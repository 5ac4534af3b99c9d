(* Single-layer runs on inputs captured from a workload instance: the
   workload's programs, its representative request context (the head
   of [capture.requests]) and the demand-address stream of its first
   256 request contexts.
   Host time per call is fitted with bechamel's OLS over the number of
   calls per sample, and reported with the fit's R². *)

open Bechamel
open Stallhide_cpu
open Stallhide_mem

let quota = 0.25

(* (ns per call, R²) *)
let ols name f =
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:400 ~quota:(Time.second quota) ~stabilize:false () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let fit = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let res = Analyze.all fit Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ o acc ->
      match (Analyze.OLS.estimates o, Analyze.OLS.r_square o) with
      | Some (ns :: _), Some r2 -> (ns, r2)
      | _ -> acc)
    res (nan, nan)

(* A context that can be rewound to its initial state without
   re-decoding its program. *)
let rewindable ctx =
  let snap = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (Bigarray.Array1.dim ctx.Context.regs) in
  Bigarray.Array1.blit ctx.Context.regs snap;
  fun () ->
    Context.reset ctx;
    Bigarray.Array1.blit snap ctx.Context.regs

let run_to_halt config hier image clock ctx =
  let rec go () =
    match Engine.run config hier image ~clock ctx with
    | Engine.Halted -> ()
    | Engine.Yielded _ | Engine.Out_of_budget -> go ()
    | Engine.Fault m -> failwith ("single-layer engine run faulted: " ^ m)
  in
  go ()

let hooked_config () =
  let counters = Stallhide_pmu.Counters.create () in
  let recorder = Stallhide_runtime.Latency.recorder () in
  {
    Engine.default_config with
    Engine.hooks =
      Events.compose [ Stallhide_pmu.Counters.hooks counters; Stallhide_runtime.Latency.hooks recorder ];
  }

(* Demand loads (address, cycle) of the first [n] request contexts run
   back to back on a private hierarchy. *)
let demand_stream (c : Outcome.capture) ~n =
  let acc = ref [] in
  let on_load (i : Events.load_info) = acc := (i.Events.addr, i.Events.cycle) :: !acc in
  let config = { Engine.default_config with Engine.hooks = { Events.nop with Events.on_load } } in
  let hier = Hierarchy.create c.Outcome.memcfg in
  let clock = ref 0 in
  List.iteri
    (fun i ctx -> if i < n then run_to_halt config hier c.Outcome.image clock ctx)
    (c.Outcome.requests ());
  Array.of_list (List.rev !acc)

(* One Core_sched over the captured requests and scavengers on a
   private hierarchy; host ns per [step]. *)
let core_sched_step_ns (c : Outcome.capture) =
  let t = Stallhide_runtime.Core_sched.create (Hierarchy.create c.Outcome.memcfg) c.Outcome.image in
  List.iter (Stallhide_runtime.Core_sched.add_scavenger t) (c.Outcome.scavengers ());
  List.iter (Stallhide_runtime.Core_sched.submit t) (c.Outcome.requests ());
  let steps = ref 0 and ns = ref 0 and running = ref true in
  while !running && !steps < 200_000 do
    let t0 = Span.now_ns () in
    let o = Stallhide_runtime.Core_sched.step t ~deadline:max_int in
    ns := !ns + (Span.now_ns () - t0);
    incr steps;
    if o = Stallhide_runtime.Core_sched.Idle then running := false
  done;
  float_of_int !ns /. float_of_int (max 1 !steps)

let measure (c : Outcome.capture) =
  let instrs = List.fold_left (fun a p -> a + Stallhide_isa.Program.length p) 0 c.Outcome.programs in
  let decode_ns, decode_r2 =
    ols "uop.decode" (fun () -> List.iter (fun p -> ignore (Uop.decode p)) c.Outcome.programs)
  in
  let rep = List.hd (c.Outcome.requests ()) in
  let rewind = rewindable rep in
  let engine_minstr config =
    let hier = Hierarchy.create c.Outcome.memcfg in
    let clock = ref 0 in
    let once () =
      rewind ();
      run_to_halt config hier c.Outcome.image clock rep
    in
    once ();
    let per_run = rep.Context.instructions in
    let ns, r2 = ols "engine.run" once in
    (float_of_int per_run /. ns *. 1e3, r2)
  in
  if not (Engine.fast_engaged Engine.default_config) then failwith "fast engine not engaged";
  let fast, fast_r2 = engine_minstr Engine.default_config in
  let hooked, hooked_r2 = engine_minstr (hooked_config ()) in
  let stream = demand_stream c ~n:256 in
  let len = float_of_int (Array.length stream) in
  Printf.printf "single-layer inputs: %d programs (%d instructions), demand stream of %d loads\n"
    (List.length c.Outcome.programs) instrs (Array.length stream);
  let span = snd stream.(Array.length stream - 1) + 1 in
  let hier = Hierarchy.create c.Outcome.memcfg in
  let base = ref 0 in
  let access_ns, access_r2 =
    ols "hierarchy.access" (fun () ->
        let b = !base in
        Array.iter (fun (addr, cycle) -> ignore (Hierarchy.access hier ~now:(b + cycle) addr)) stream;
        base := b + span)
  in
  (* The port remembers every window it has admitted into, so each call
     replays the stream into a fresh port; the port's creation is fitted
     on its own and subtracted. *)
  let create_ns, _ = ols "shared_l3.create" (fun () -> ignore (Shared_l3.create c.Outcome.memcfg)) in
  let replay_ns, admit_r2 =
    ols "shared_l3.admit" (fun () ->
        let l3 = Shared_l3.create c.Outcome.memcfg in
        Array.iter (fun (_, cycle) -> ignore (Shared_l3.admit l3 ~now:cycle)) stream)
  in
  let admit_ns = replay_ns -. create_ns in
  [
    ("cpu.uop.decode_ns_per_instr", decode_ns /. float_of_int instrs);
    ("cpu.uop.decode_r2", decode_r2);
    ("cpu.engine.fast_minstr_per_s", fast);
    ("cpu.engine.fast_r2", fast_r2);
    ("cpu.engine.hooked_minstr_per_s", hooked);
    ("cpu.engine.hooked_r2", hooked_r2);
    ("mem.hierarchy.access_ns", access_ns /. len);
    ("mem.hierarchy.access_r2", access_r2);
    ("mem.shared_l3.admit_ns", admit_ns /. len);
    ("mem.shared_l3.admit_r2", admit_r2);
    ("runtime.core_sched.step_ns", core_sched_step_ns c);
  ]
