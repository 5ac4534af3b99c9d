(* The differential wall in front of the decoded-µop fast path: the
   fast loop must be architecturally bit-identical to the reference
   interpreter — registers, memory, Mem_stats, instruction/stall/cycle
   counts — on every workload, on hundreds of generated programs, and
   through the whole SMP harness in every placement mode — and each
   context's op count and op-latency samples, which the engine records
   itself on both paths by the rule of the Latency hooks — and every
   event the engine writes into a stream's log, scheduler events
   interleaved, against a closure-hook oracle that records the same
   events through [Stream.record].
   The zero-allocation regression keeps the fast path actually fast,
   traced or not: its per-simulated-cycle minor-heap delta must be zero
   (only a small per-[Engine.run]-call constant is allowed, for the
   returned [stop] value). *)

open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_workloads
open Stallhide_check
open Stallhide_binopt
module Pipeline = Stallhide.Pipeline
module Harness = Stallhide_smp.Harness
module Stream = Stallhide_obs.Stream
module Event = Stallhide_obs.Event
module Registry = Stallhide_obs.Registry

let memcfg = Memconfig.default

let fast_engine = Engine.default_config

let ref_engine = { Engine.default_config with Engine.fast = false }

(* The nine workloads, fresh per arm (runs mutate the image). *)
let makers : (string * (int -> Workload.t)) list =
  [
    ("pointer-chase", fun seed -> Pointer_chase.make ~seed ());
    ("hash-probe", fun seed -> Hash_probe.make ~seed ());
    ("array-scan", fun seed -> Array_scan.make ~seed ());
    ("btree", fun seed -> Btree.make ~seed ());
    ("graph-bfs", fun seed -> Graph_bfs.make ~seed ());
    ("group-by", fun seed -> Group_by.make ~seed ());
    ("hash-join", fun seed -> Hash_join.make ~seed ());
    ("kv-server", fun seed -> Kv_server.make ~seed ());
    ("offload", fun seed -> Offload.make ~seed ());
  ]

let check_mem_stats label (a : Mem_stats.t) (b : Mem_stats.t) =
  let f name g = Alcotest.(check int) (label ^ ": " ^ name) (g a) (g b) in
  f "demand_accesses" (fun s -> s.Mem_stats.demand_accesses);
  f "l1_hits" (fun s -> s.Mem_stats.l1_hits);
  f "l2_hits" (fun s -> s.Mem_stats.l2_hits);
  f "l3_hits" (fun s -> s.Mem_stats.l3_hits);
  f "dram_accesses" (fun s -> s.Mem_stats.dram_accesses);
  f "inflight_hits" (fun s -> s.Mem_stats.inflight_hits);
  f "prefetches" (fun s -> s.Mem_stats.prefetches);
  f "useless_prefetches" (fun s -> s.Mem_stats.useless_prefetches)

(* Run one arm of the single-engine differential: all lanes
   sequentially on a private hierarchy, op latencies logged by the
   engine. Returns everything observable. *)
let run_arm engine (w : Workload.t) =
  let hier = Hierarchy.create memcfg in
  let ctxs = Workload.contexts w in
  let log = Latency.watch ctxs in
  let r = Scheduler.run_sequential ~engine hier w.Workload.image ctxs in
  (ctxs, hier, r, Latency.of_log log)

let diff_one label ~make =
  let wf = make () in
  let wr = make () in
  let cf, hf, rf, lf = run_arm fast_engine wf in
  (* the reference arm also carries the Latency hooks: the engine's own
     op accounting must follow their rule exactly *)
  let hooked = Latency.recorder () in
  let cr, hr, rr, lr =
    run_arm { ref_engine with Engine.hooks = Latency.hooks hooked } wr
  in
  let sf = State.capture ~mem:wf.Workload.image cf in
  let sr = State.capture ~mem:wr.Workload.image cr in
  (match State.diff sr sf with
  | None -> ()
  | Some d -> Alcotest.fail (label ^ ": fast/reference state diff: " ^ d));
  Alcotest.(check int) (label ^ ": cycles") rr.Scheduler.cycles rf.Scheduler.cycles;
  Alcotest.(check int) (label ^ ": stall") rr.Scheduler.stall rf.Scheduler.stall;
  Alcotest.(check int)
    (label ^ ": instructions")
    rr.Scheduler.instructions rf.Scheduler.instructions;
  Alcotest.(check int) (label ^ ": completed") rr.Scheduler.completed rf.Scheduler.completed;
  check_mem_stats label (Hierarchy.stats hr) (Hierarchy.stats hf);
  (* commit order: the engine is in-order, so identical per-context
     instruction counts + identical final state pin the retire sequence *)
  Array.iter2
    (fun (a : Context.t) (b : Context.t) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: ctx %d instructions" label a.Context.id)
        a.Context.instructions b.Context.instructions;
      Alcotest.(check int)
        (Printf.sprintf "%s: ctx %d stall_cycles" label a.Context.id)
        a.Context.stall_cycles b.Context.stall_cycles;
      Alcotest.(check int)
        (Printf.sprintf "%s: ctx %d opmarks" label a.Context.id)
        a.Context.opmarks b.Context.opmarks;
      let id = a.Context.id in
      Alcotest.(check (list int))
        (Printf.sprintf "%s: ctx %d latency samples vs hooks" label id)
        (Latency.of_ctx hooked id) (Latency.of_ctx lr id);
      Alcotest.(check (list int))
        (Printf.sprintf "%s: ctx %d latency samples" label id)
        (Latency.of_ctx lr id) (Latency.of_ctx lf id))
    cr cf;
  Alcotest.(check (list int)) (label ^ ": all latency samples vs hooks") (Latency.all hooked)
    (Latency.all lr);
  Alcotest.(check (list int)) (label ^ ": all latency samples") (Latency.all lr) (Latency.all lf)

let test_workloads_diff () =
  List.iter (fun (name, make) -> diff_one name ~make:(fun () -> make 42)) makers;
  (* and the hand-instrumented (manual) variants, which exercise the
     yield opcodes on the fast path *)
  List.iter
    (fun (name, mk) -> diff_one (name ^ "/manual") ~make:mk)
    [
      ("pointer-chase", fun () -> Pointer_chase.make ~manual:true ~seed:42 ());
      ("hash-probe", fun () -> Hash_probe.make ~manual:true ~seed:42 ());
      ("group-by", fun () -> Group_by.make ~manual:true ~seed:42 ());
      ("kv-server", fun () -> Kv_server.make ~manual:true ~seed:42 ());
      ("offload", fun () -> Offload.make ~manual:true ~seed:42 ());
    ]

(* 500 generated programs, raw and scavenger-instrumented: the fast
   path must agree with the reference on programs it has never seen. *)
let test_gen_programs_diff () =
  for seed = 0 to 499 do
    let case = Gen.case ~seed () in
    let label = Printf.sprintf "gen seed %d" seed in
    diff_one label ~make:(fun () -> Gen.workload ~prog:case.Gen.program case.Gen.cfg)
  done

let test_fast_engaged_sanity () =
  let with_hooks hooks = Engine.fast_engaged { fast_engine with Engine.hooks } in
  let s = Stream.create () in
  Alcotest.(check bool) "default engages" true (Engine.fast_engaged fast_engine);
  Alcotest.(check bool) "fast=false disengages" false (Engine.fast_engaged ref_engine);
  Alcotest.(check bool) "stream hooks engage" true (with_hooks (Stream.hooks s));
  Alcotest.(check bool) "Latency hooks disengage" false
    (with_hooks (Latency.hooks (Latency.recorder ())));
  Alcotest.(check bool) "Counters hooks disengage" false
    (with_hooks (Stallhide_pmu.Counters.hooks (Stallhide_pmu.Counters.create ())));
  Alcotest.(check bool) "compose [nop; stream hooks] engages" true
    (with_hooks (Events.compose [ Events.nop; Stream.hooks s ]));
  Alcotest.(check bool) "stall_shape disengages" false
    (Engine.fast_engaged
       { fast_engine with Engine.stall_shape = Some (fun ~pc:_ ~stall -> stall) })

(* --- traced differential ---

   The oracle for the engine-written event log: closure hooks that feed
   the stream through [Stream.record] as each engine event fires, the
   plain callback reading of [Stream.hooks]. Being closures, they run on
   the reference interpreter only. *)
let closure_hooks s =
  let record = Stream.record s in
  {
    Events.nop with
    Events.on_load =
      (fun (i : Events.load_info) ->
        record
          (Event.Cache_access
             {
               ctx = i.Events.ctx;
               pc = i.Events.pc;
               addr = i.Events.addr;
               level = i.Events.level;
               stall = i.Events.stall;
               queue = i.Events.queue;
               cycle = i.Events.cycle;
             }));
    on_stall = (fun ~ctx ~pc ~cycles ~cycle -> record (Event.Stall { ctx; pc; cycles; cycle }));
    on_frontend_stall =
      (fun ~ctx ~pc ~cycles ~cycle -> record (Event.Frontend_stall { ctx; pc; cycles; cycle }));
    on_opmark = (fun ~ctx ~pc ~cycle -> record (Event.Op_retired { ctx; pc; cycle }));
    on_yield =
      (fun ~ctx ~pc ~kind ~fired ~cycle -> record (Event.Yield { ctx; pc; kind; fired; cycle }));
  }

(* Round-robin with the stream as [obs] too, so dispatch and switch
   events interleave with the engine's. Every other context runs in
   scavenger mode, so scavenger yields both fire and fall through. *)
let traced_arm ?(mem = memcfg) engine ~hooks ~capacity (w : Workload.t) =
  let s = Stream.create ~capacity () in
  let ctxs = Workload.contexts w in
  Array.iteri
    (fun i (c : Context.t) -> if i mod 2 = 1 then c.Context.mode <- Context.Scavenger)
    ctxs;
  let r =
    Scheduler.run_round_robin
      ~engine:{ engine with Engine.hooks = hooks s }
      ~obs:s ~switch:Switch_cost.coroutine (Hierarchy.create mem) w.Workload.image ctxs
  in
  (s, r)

let registry_json s = Stallhide_util.Json.to_string (Registry.to_json (Stream.registry s))

let check_events label expected actual =
  let rec first i = function
    | a :: ra, b :: rb -> if a = b then first (i + 1) (ra, rb) else Some (i, Some a, Some b)
    | [], [] -> None
    | a :: _, [] -> Some (i, Some a, None)
    | [], b :: _ -> Some (i, None, Some b)
  in
  match first 0 (expected, actual) with
  | None -> ()
  | Some (i, a, b) ->
      let pp = function Some e -> Format.asprintf "%a" Event.pp e | None -> "<none>" in
      Alcotest.failf "%s: event %d differs: expected %s, got %s" label i (pp a) (pp b)

let check_streams label (expected : Stream.t) (actual : Stream.t) =
  Alcotest.(check int) (label ^ ": dropped") (Stream.dropped expected) (Stream.dropped actual);
  check_events label (Stream.events expected) (Stream.events actual);
  Alcotest.(check string) (label ^ ": registry") (registry_json expected) (registry_json actual)

let default_capacity = 1 lsl 18

(* Oracle vs the engine-written log on both paths, at [capacity]; a
   capped run must also count every event a full-size run counts.
   [tweak] sets the timing knobs both engines share. Returns whether the
   oracle overflowed. *)
let diff_traced ?mem ?(tweak = Fun.id) label ~make ~capacity =
  let fast_engine = tweak fast_engine and ref_engine = tweak ref_engine in
  let so, ro = traced_arm ?mem ref_engine ~hooks:closure_hooks ~capacity (make ()) in
  let sf, rf = traced_arm ?mem fast_engine ~hooks:Stream.hooks ~capacity (make ()) in
  let sr, rr = traced_arm ?mem ref_engine ~hooks:Stream.hooks ~capacity (make ()) in
  List.iter
    (fun (arm, (r : Scheduler.result)) ->
      Alcotest.(check int) (label ^ arm ^ ": cycles") ro.Scheduler.cycles r.Scheduler.cycles)
    [ (" fast", rf); (" reference", rr) ];
  check_streams (label ^ " fast") so sf;
  check_streams (label ^ " reference") so sr;
  let overflowed = Stream.dropped so > 0 in
  if overflowed then begin
    let full, _ =
      traced_arm ?mem fast_engine ~hooks:Stream.hooks ~capacity:default_capacity (make ())
    in
    Alcotest.(check int)
      (label ^ ": retained + dropped")
      (Stream.length full + Stream.dropped full)
      (Stream.length sf + Stream.dropped sf);
    Alcotest.(check string) (label ^ ": capped registry") (registry_json full) (registry_json sf);
    check_events (label ^ ": capped prefix")
      (List.filteri (fun i _ -> i < capacity) (Stream.events full))
      (Stream.events sf)
  end;
  overflowed

let test_traced_workloads_diff () =
  let overflows = ref 0 in
  let case label make =
    List.iter
      (fun capacity ->
        if diff_traced (Printf.sprintf "%s/cap %d" label capacity) ~make ~capacity then
          incr overflows)
      [ default_capacity; 500 ]
  in
  List.iter (fun (name, make) -> case name (fun () -> make 42)) makers;
  (* OoO overlap plus a load-block threshold that some stalls pass: a
     blocked load or accelerator wait is logged at its issue cycle,
     with no Stall *)
  List.iter
    (fun (name, make) ->
      ignore
        (diff_traced (name ^ "/ooo+block")
           ~tweak:(fun e ->
             { e with Engine.ooo_window = 16; load_block_threshold = Some 40 })
           ~make:(fun () -> make 42)
           ~capacity:default_capacity))
    makers;
  (* instrumented programs: a conditional yield at every load (resident
     or not) under an icache (front-end stalls), and scavenger yields
     alone *)
  let icache =
    { memcfg with Memconfig.icache = Some { Memconfig.size_bytes = 2048; ways = 4; latency = 14 } }
  in
  let variants =
    [
      ( "cond+icache",
        Some icache,
        { Primary_pass.default_opts with policy = Gain_cost.Always; conditional = true },
        None );
      ( "scav",
        None,
        { Primary_pass.default_opts with policy = Gain_cost.Threshold 2.0 },
        Some 20 );
    ]
  in
  List.iter
    (fun (name, make) ->
      let w = make 42 in
      let profiled = Pipeline.profile w in
      List.iter
        (fun (variant, mem, primary, scavenger_interval) ->
          let prog =
            (snd (Pipeline.instrument ~primary ?scavenger_interval profiled w)).Pipeline.program
          in
          ignore
            (diff_traced (name ^ "/" ^ variant) ?mem
               ~make:(fun () -> Workload.with_program (make 42) prog)
               ~capacity:default_capacity))
        variants)
    makers;
  List.iter
    (fun (name, mk) -> case (name ^ "/manual") mk)
    [
      ("pointer-chase", fun () -> Pointer_chase.make ~manual:true ~seed:42 ());
      ("hash-probe", fun () -> Hash_probe.make ~manual:true ~seed:42 ());
      ("group-by", fun () -> Group_by.make ~manual:true ~seed:42 ());
      ("kv-server", fun () -> Kv_server.make ~manual:true ~seed:42 ());
      ("offload", fun () -> Offload.make ~manual:true ~seed:42 ());
    ];
  Alcotest.(check bool) "some capped runs overflowed" true (!overflows > 0)

let test_traced_gen_programs_diff () =
  let overflows = ref 0 in
  for seed = 0 to 499 do
    let case = Gen.case ~seed () in
    let capacity = if seed mod 4 = 0 then 64 else default_capacity in
    if
      diff_traced
        (Printf.sprintf "gen seed %d/cap %d" seed capacity)
        ~make:(fun () -> Gen.workload ~prog:case.Gen.program case.Gen.cfg)
        ~capacity
    then incr overflows
  done;
  Alcotest.(check bool) "some capped runs overflowed" true (!overflows > 0)

(* --- whole-machine differential: the SMP harness in every placement
   mode, fast (trace off) vs reference (trace on). The trace flag only
   adds observation, never timing, so the two arms must agree on every
   architectural and timing figure. --- *)

let harness_params ~placement ~fast =
  {
    Harness.default_params with
    Harness.placement = placement;
    requests_per_core = 16;
    scav_tuples = 60;
    trace = not fast;
    engine_fast = fast;
  }

let check_harness_equal label (a : Harness.run) (b : Harness.run) =
  let ra = a.Harness.result and rb = b.Harness.result in
  Alcotest.(check int) (label ^ ": cycles") ra.Stallhide_smp.Machine.cycles
    rb.Stallhide_smp.Machine.cycles;
  Alcotest.(check int)
    (label ^ ": completed")
    ra.Stallhide_smp.Machine.completed rb.Stallhide_smp.Machine.completed;
  Alcotest.(check int) (label ^ ": faulted") ra.Stallhide_smp.Machine.faulted
    rb.Stallhide_smp.Machine.faulted;
  Alcotest.(check int) (label ^ ": steals") ra.Stallhide_smp.Machine.steals
    rb.Stallhide_smp.Machine.steals;
  Alcotest.(check int)
    (label ^ ": donations")
    ra.Stallhide_smp.Machine.donations rb.Stallhide_smp.Machine.donations;
  Array.iter2
    (fun (ca : Stallhide_smp.Machine.core_result) (cb : Stallhide_smp.Machine.core_result) ->
      let p fmt = Printf.sprintf ("%s: core %d " ^^ fmt) label ca.Stallhide_smp.Machine.core_id in
      Alcotest.(check int) (p "cycles") ca.Stallhide_smp.Machine.cycles
        cb.Stallhide_smp.Machine.cycles;
      let sa = ca.Stallhide_smp.Machine.stats and sb = cb.Stallhide_smp.Machine.stats in
      Alcotest.(check int) (p "dispatches") sa.Core_sched.dispatches sb.Core_sched.dispatches;
      Alcotest.(check int) (p "scav_dispatches") sa.Core_sched.scav_dispatches
        sb.Core_sched.scav_dispatches;
      Alcotest.(check int) (p "switches") sa.Core_sched.switches sb.Core_sched.switches;
      Alcotest.(check int) (p "switch_cycles") sa.Core_sched.switch_cycles
        sb.Core_sched.switch_cycles;
      Alcotest.(check int) (p "steals") sa.Core_sched.steals sb.Core_sched.steals;
      Alcotest.(check int) (p "donated") sa.Core_sched.donated sb.Core_sched.donated;
      Alcotest.(check int) (p "escalations") sa.Core_sched.escalations sb.Core_sched.escalations;
      Alcotest.(check int) (p "completions") sa.Core_sched.completions sb.Core_sched.completions;
      Alcotest.(check int) (p "faults") sa.Core_sched.fault_count sb.Core_sched.fault_count;
      check_mem_stats
        (Printf.sprintf "%s: core %d" label ca.Stallhide_smp.Machine.core_id)
        ca.Stallhide_smp.Machine.mem cb.Stallhide_smp.Machine.mem;
      Alcotest.(check (list int)) (p "sojourns") ca.Stallhide_smp.Machine.sojourns
        cb.Stallhide_smp.Machine.sojourns)
    ra.Stallhide_smp.Machine.per_core rb.Stallhide_smp.Machine.per_core;
  let la = ra.Stallhide_smp.Machine.l3 and lb = rb.Stallhide_smp.Machine.l3 in
  Alcotest.(check int) (label ^ ": l3 admitted") la.Shared_l3.admitted lb.Shared_l3.admitted;
  Alcotest.(check int) (label ^ ": l3 queued") la.Shared_l3.queued lb.Shared_l3.queued;
  Alcotest.(check int)
    (label ^ ": l3 queue_cycles")
    la.Shared_l3.queue_cycles lb.Shared_l3.queue_cycles;
  Alcotest.(check int) (label ^ ": l3 writes") la.Shared_l3.writes lb.Shared_l3.writes;
  Alcotest.(check int)
    (label ^ ": l3 invalidations")
    la.Shared_l3.invalidations lb.Shared_l3.invalidations

let test_harness_placements_diff () =
  List.iter
    (fun placement ->
      let label = "harness/" ^ Harness.placement_name placement in
      let r_ref = Harness.run (harness_params ~placement ~fast:false) in
      let r_fast = Harness.run (harness_params ~placement ~fast:true) in
      check_harness_equal label r_ref r_fast)
    [ Harness.Pgo; Harness.Static; Harness.Hybrid ]

(* --- zero-allocation regression ---

   Drive >= 10k simulated cycles of every workload through the engaged
   fast path with a pre-warmed µop cache and assert the minor-heap
   delta is bounded by a small constant per [Engine.run] call (the
   returned [stop] value) — i.e. zero words per simulated cycle. The
   traced run writes every engine event into a stream's log on the way
   and is held to the same allowance. *)

let test_zero_alloc () =
  List.iter
    (fun ((name, make), traced) ->
      let fast_engine =
        if traced then { fast_engine with Engine.hooks = Stream.hooks (Stream.create ()) }
        else fast_engine
      in
      let name = if traced then name ^ " (traced)" else name in
      let w = make 7 in
      let hier = Hierarchy.create memcfg in
      let ctxs = Workload.contexts w in
      let clock = ref 0 in
      (* warm-up: first entry decodes the µop cache (allocates once) *)
      Array.iter
        (fun c ->
          ignore (Engine.run fast_engine hier w.Workload.image ~clock ~deadline:(!clock + 1) c))
        ctxs;
      let deadline = !clock + 10_000 in
      let calls = ref 0 in
      let rec drive c =
        incr calls;
        match Engine.run fast_engine hier w.Workload.image ~clock ~deadline c with
        | Engine.Yielded _ -> if !clock < deadline then drive c
        | Engine.Halted | Engine.Out_of_budget | Engine.Fault _ -> ()
      in
      let m0 = Gc.minor_words () in
      Array.iter drive ctxs;
      let m1 = Gc.minor_words () in
      let words = m1 -. m0 in
      (* 48 words/call covers the per-[run]-entry constant: the fast
         loop's two local closures and the [Yielded]/[stop] result.
         Anything per-cycle or per-instruction would show up as
         thousands of words over a 10k-cycle window. *)
      let allowance = float_of_int ((!calls * 48) + 64) in
      if words > allowance then
        Alcotest.failf "%s: fast path allocated %.0f minor words over %d cycles (%d calls)"
          name words (!clock) !calls)
    (List.concat_map (fun m -> [ (m, false); (m, true) ]) makers)

let () =
  Alcotest.run "engine-diff"
    [
      ( "fast-vs-reference",
        [
          Alcotest.test_case "fast_engaged gating" `Quick test_fast_engaged_sanity;
          Alcotest.test_case "nine workloads (+manual variants)" `Quick test_workloads_diff;
          Alcotest.test_case "500 generated programs" `Slow test_gen_programs_diff;
        ] );
      ( "traced",
        [
          Alcotest.test_case "nine workloads (+manual variants)" `Quick
            test_traced_workloads_diff;
          Alcotest.test_case "500 generated programs" `Slow test_traced_gen_programs_diff;
        ] );
      ( "whole-machine",
        [
          Alcotest.test_case "harness placements pgo/static/hybrid" `Slow
            test_harness_placements_diff;
        ] );
      ("zero-alloc", [ Alcotest.test_case "no per-cycle allocation" `Quick test_zero_alloc ]);
    ]
