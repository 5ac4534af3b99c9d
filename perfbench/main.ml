(* The benchmark command (see perfbench/README.md):

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   A rep runs the workload's trials one after another; each trial builds
   a fresh instance (timed as set-up) and serves it (timed as the run).
   Times are CPU times of the process, scaled by the control kernel
   timed next to them. The first rep warms up and is not timed; reps
   repeat while the next one is expected to end within [--seconds].
   With --trace 0 the last line carries the end-to-end metrics, all
   from untraced reps. With --trace 1 the reps cycle through untraced,
   span-traced and simulator-tracing-flipped variants, the single-layer
   runs follow, and the last line carries the per-layer metrics. A
   failed check exits 1 before any result is printed. *)

open Stallhide_util

type workload = {
  name : string;
  default_obs : bool;  (** simulator tracing as the workload ships it *)
  trials : int;  (** independent instances per rep, seeds [seed * 100 + j] *)
  instance : seed:int -> obs:bool -> (unit -> Outcome.t) * Outcome.capture;
      (** set-up; returns the run and the single-layer inputs *)
  check_one_shot : seed:int -> Outcome.t -> unit;
  serves : int;
      (** times each instance is served in an untraced rep; above 1 only
          where serving leaves the instance as set-up left it *)
}

let workloads =
  [
    {
      name = "smp-kv";
      default_obs = false;
      (* p50 sits between two modes of the sojourn distribution and
         jumps 6% on one seed in four; the mean of 3 trials does not *)
      trials = 3;
      instance =
        (fun ~seed ~obs ->
          let i = Smp_kv.setup ~seed ~obs in
          ((fun () -> Smp_kv.run i), i.Smp_kv.capture));
      check_one_shot = Smp_kv.check_one_shot;
      serves = 1;
    };
    {
      name = "paper-1core";
      default_obs = false;
      (* peak memory depends on where the GC's cycle falls, which moves
         with the seed; the peak over 3 seeds' trials moves less *)
      trials = 3;
      instance =
        (fun ~seed ~obs ->
          let i = Paper_1core.setup ~seed ~obs in
          ((fun () -> Paper_1core.run i), i.Paper_1core.capture));
      check_one_shot = Paper_1core.check_one_shot;
      serves = 1;
    };
    {
      name = "cluster-faults";
      default_obs = true;
      (* one trial's p99 moves 13% from seed to seed; the mean of 8 moves 4% *)
      trials = 8;
      instance =
        (fun ~seed ~obs ->
          let i = Cluster_faults.setup ~seed ~obs in
          ((fun () -> Cluster_faults.run i), i.Cluster_faults.capture));
      check_one_shot = Cluster_faults.check_one_shot;
      serves = 3;
    };
  ]

exception Gate of string

let gate cond msg = if not cond then raise (Gate msg)

(* The fast engine and the reference interpreter must agree on a small
   instance: the C19 machine at harness defaults. *)
let check_fast_vs_reference ~seed =
  let module H = Stallhide_smp.Harness in
  let run engine_fast = H.run { H.default_params with H.seed; trace = false; engine_fast } in
  gate
    (Machine_result.fingerprint (run true).H.result = Machine_result.fingerprint (run false).H.result)
    "fast engine and reference interpreter disagree"

type variant = Plain | Spans | Obs_flipped

type rep = {
  variant : variant;
  control_s : float;  (** median of the control runs timed before each serve *)
  setup_s : float;  (** CPU seconds scaled by the control, like [run_s] *)
  run_s : float;
  setup_raw_s : float;  (** [setup_s] unscaled *)
  run_raw_s : float;
  run_wall_s : float;  (** [run_raw_s] on the wall clock *)
  minor_words : float;
  major_collections : int;
  trials : Outcome.t list;
  outcome : Outcome.t;  (** the trials combined *)
  self_s : (string * float) list;  (** per-layer self time, span-traced reps *)
  steps : int * int;  (** [Live.step] calls and their host ns, span-traced reps *)
  trace_json : Json.t;  (** spans of the first span-traced rep *)
}

let secs t0 t1 = float_of_int (t1 - t0) *. 1e-9

let trial_seed ~seed j = (seed * 100) + j

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Trials run one after another, each set up then served [serves]
   times. A rep's set-up time is the sum over its trials, its run time
   the sum over its trials divided by [serves]; both are scaled by
   [Host.nominal_control_s] / the median of the control runs timed
   right before each serve. Every serve of an instance must give the
   first serve's fingerprint. *)
let one_rep w ~seed ~index ~keep_capture ~serves variant =
  let warmup = index = 0 in
  let controls = ref [] in
  Span.reset ();
  Span.enabled := variant = Spans;
  Span.current_rep := index;
  let obs = if variant = Obs_flipped then not w.default_obs else w.default_obs in
  let setup_ns = ref 0 and run_ns = ref 0 and wall_ns = ref 0 and minor = ref 0.0 and major = ref 0 in
  let trial j =
    Gc.compact ();
    Span.current_trial := j;
    let t0 = Span.cpu_ns () in
    let run, capture = Span.with_ "setup" (fun () -> w.instance ~seed:(trial_seed ~seed j) ~obs) in
    let t1 = Span.cpu_ns () in
    setup_ns := !setup_ns + (t1 - t0);
    let serve k =
      if k > 0 then Gc.compact ();
      if not warmup then controls := Host.control_s () :: !controls;
      let g0 = Gc.quick_stat () in
      let w2 = Span.now_ns () in
      let t2 = Span.cpu_ns () in
      let outcome = Span.with_ "run" run in
      let t3 = Span.cpu_ns () in
      let w3 = Span.now_ns () in
      let g1 = Gc.quick_stat () in
      run_ns := !run_ns + (t3 - t2);
      wall_ns := !wall_ns + (w3 - w2);
      minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
      outcome
    in
    let outcome = serve 0 in
    for k = 1 to serves - 1 do
      gate
        ((Outcome.digested (serve k)).Outcome.fingerprint = (Outcome.digested outcome).Outcome.fingerprint)
        "serving an instance again gives another fingerprint"
    done;
    (outcome, if j = 0 && keep_capture then Some capture else None)
  in
  let results =
    List.init w.trials (fun j ->
        let o, c = trial j in
        ((if index = 0 then o else Outcome.digested o), c))
  in
  Span.enabled := false;
  let a = Span.agg "smp.machine.step" in
  let control_s = median !controls in
  let scale = Host.nominal_control_s /. control_s in
  let setup_raw_s = float_of_int !setup_ns *. 1e-9 in
  let run_raw_s = float_of_int !run_ns *. 1e-9 /. float_of_int serves in
  ( {
      variant;
      control_s;
      setup_s = setup_raw_s *. scale;
      run_s = run_raw_s *. scale;
      setup_raw_s;
      run_raw_s;
      run_wall_s = float_of_int !wall_ns *. 1e-9 /. float_of_int serves;
      minor_words = !minor /. float_of_int serves;
      major_collections = !major / serves;
      trials = List.map fst results;
      outcome = Outcome.combine (List.map fst results);
      self_s = Span.self_seconds ~rep:index;
      steps = (a.Span.count, a.Span.total_ns);
      trace_json = (if variant = Spans && index = 1 then Span.to_json () else Json.Null);
    },
    snd (List.hd results) )

let verify_errors (o : Outcome.t) =
  int_of_float (Option.value ~default:0.0 (List.assoc_opt "verify.errors" o.Outcome.counts))

(* Per-layer metrics whose value is a simulated count of the instance
   (0 where the workload bypasses the layer). *)
let counted =
  [
    ("pmu.samples", "count");
    ("binopt.yield_sites", "count");
    ("verify.errors", "count");
    ("mem.l1_hit_frac", "ratio");
    ("mem.l2_hit_frac", "ratio");
    ("mem.l3_hit_frac", "ratio");
    ("mem.dram_frac", "ratio");
    ("mem.useless_prefetch_frac", "ratio");
    ("mem.shared_l3.queue_cycles_per_admit", "cycles");
    ("mem.shared_l3.invalidations", "count");
    ("runtime.core_sched.switch_cycles_frac", "ratio");
    ("runtime.core_sched.escalations", "count");
    ("runtime.core_sched.steals", "count");
    ("sched.dispatch.remote_frac", "ratio");
    ("cluster.hedge_useful_frac", "ratio");
    ("cluster.retries", "count");
    ("net.dropped", "count");
    ("lb.quarantines", "count");
  ]

(* Per-layer host self time from the span-traced reps (0 where the
   workload makes no such call). *)
let timed_layers =
  [
    "workloads.build";
    "pmu.profile";
    "binopt.instrument";
    "analysis.analyze";
    "verify.validate";
    "runtime.dual_mode.run";
    "runtime.scheduler.round_robin";
    "cluster.calibrate";
    "cluster.run";
  ]

let single_layer_units =
  [
    ("cpu.uop.decode_ns_per_instr", "ns");
    ("cpu.uop.decode_r2", "ratio");
    ("cpu.engine.fast_minstr_per_s", "Minstr/s");
    ("cpu.engine.fast_r2", "ratio");
    ("cpu.engine.hooked_minstr_per_s", "Minstr/s");
    ("cpu.engine.hooked_r2", "ratio");
    ("mem.hierarchy.access_ns", "ns");
    ("mem.hierarchy.access_r2", "ratio");
    ("mem.shared_l3.admit_ns", "ns");
    ("mem.shared_l3.admit_r2", "ratio");
    ("runtime.core_sched.step_ns", "ns");
  ]

let main ~workload ~seed ~seconds ~trace =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None -> raise (Gate ("unknown workload " ^ workload))
  in
  check_fast_vs_reference ~seed;
  let start = Span.now_ns () in
  let cycle = if trace then [| Plain; Spans; Obs_flipped |] else [| Plain |] in
  let min_reps = if trace then 7 else 4 in
  (* the traced run's per-rep self times count one serve per trial *)
  let serves = if trace then 1 else w.serves in
  let reps = ref [] and capture = ref None and index = ref 0 and peak_rss_mb = ref 0.0 in
  (* another rep starts only if, at the mean rep length so far, it ends
     within [seconds]. The first rep warms up (first touches of the
     heap) and is left out of host times; it runs no control, whose
     table would otherwise count in its memory. *)
  let room () =
    let elapsed = secs start (Span.now_ns ()) in
    elapsed +. (elapsed /. float_of_int !index) <= float_of_int seconds
  in
  while !index < min_reps || room () do
    (* the single-layer inputs keep their instance alive, so only the
       traced run, which reports no memory, holds on to one *)
    let keep_capture = trace && !index = 0 in
    let r, c = one_rep w ~seed ~index:!index ~keep_capture ~serves cycle.(!index mod Array.length cycle) in
    if keep_capture then capture := c;
    (* Memory is read after the first rep: a user runs one instance per
       process, and the OCaml 5.1 heap keeps what later reps free, so
       they would measure the repetition, not the workload. *)
    if !index = 0 then begin
      peak_rss_mb := Host.peak_rss_mb ();
      Host.prepare_control ()
    end;
    reps := r :: !reps;
    incr index
  done;
  let reps = List.rev !reps in
  let first = (List.hd reps).outcome in
  (* the correctness gate *)
  let fingerprints r = List.map (fun o -> (Outcome.digested o).Outcome.fingerprint) r.trials in
  List.iter
    (fun r ->
      gate
        (fingerprints r = fingerprints (List.hd reps))
        "a rep's fingerprint differs from the first rep's (traced vs untraced, or rep to rep)";
      gate (r.outcome.Outcome.instructions = first.Outcome.instructions) "retired instructions differ between reps")
    reps;
  gate (verify_errors first = 0) "an instrumented program is not verifier-clean";
  gate
    (first.Outcome.completed + first.Outcome.dropped = first.Outcome.attempted)
    "an attempted operation is counted neither completed nor failed";
  w.check_one_shot ~seed:(trial_seed ~seed 0) (List.hd (List.hd reps).trials);
  let timed = List.tl reps in
  let of_variant v = List.filter (fun r -> r.variant = v) timed in
  let med f rs = median (List.map f rs) in
  let plain = of_variant Plain in
  let run_s = med (fun r -> r.run_s) plain in
  let control_s = med (fun r -> r.control_s) timed in
  let failed = first.Outcome.dropped + verify_errors first in
  let metric name unit v = (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]) in
  let lat = first.Outcome.latency in
  let metrics =
    if not trace then
      [
        metric "setup_s" "s" (med (fun r -> r.setup_s) plain);
        metric "sim_kops_per_s" "kop/s" (float_of_int first.Outcome.completed /. run_s /. 1e3);
        metric "sim_minstr_per_s" "Minstr/s" (float_of_int first.Outcome.instructions /. run_s /. 1e6);
        metric "peak_rss_mb" "MB" !peak_rss_mb;
        metric "sim_p50_cycles" "cycles" (float_of_int lat.Stallhide_runtime.Latency.p50);
        metric "sim_p99_cycles" "cycles" (float_of_int lat.Stallhide_runtime.Latency.p99);
        metric "sim_ops_per_kcyc" "op/kcycle" (Outcome.ops_per_kcyc first);
        metric "ok_frac" "ratio" (1.0 -. (float_of_int failed /. float_of_int first.Outcome.attempted));
      ]
    else begin
      let c = Option.get !capture in
      let spans = of_variant Spans and flipped = of_variant Obs_flipped in
      let self name = med (fun r -> Option.value ~default:0.0 (List.assoc_opt name r.self_s)) spans in
      let t_flipped = med (fun r -> r.run_s) flipped in
      (* [Live.step] calls: timed in the traced reps when the benchmark
         drives the machine itself, else replayed from captured inputs *)
      let steps, step_ns, step_reqs =
        match ((List.hd spans).steps, c.Outcome.live_replay) with
        | (n, _), _ when n > 0 ->
            (n, med (fun r -> float_of_int (snd r.steps) /. float_of_int (fst r.steps)) spans, first.Outcome.attempted)
        | _, Some replay ->
            let n, ns, reqs = replay () in
            (n, float_of_int ns /. float_of_int (max 1 n), reqs)
        | _, None -> (0, 0.0, 1)
      in
      let count name = Option.value ~default:0.0 (List.assoc_opt name first.Outcome.counts) in
      let single = Layers.measure c in
      List.map (fun n -> metric (n ^ "_s") "s" (self n)) timed_layers
      @ List.map (fun (n, u) -> metric n u (count n)) counted
      @ List.map (fun (n, u) -> metric n u (List.assoc n single)) single_layer_units
      @ [
          metric "smp.machine.step_ns" "ns" step_ns;
          metric "smp.machine.steps_per_req" "count" (float_of_int steps /. float_of_int step_reqs);
          metric "cpu.minor_words_per_instr" "words"
            (med (fun r -> r.minor_words) plain /. float_of_int (max 1 first.Outcome.instructions));
          metric "gc.major_collections" "count" (med (fun r -> float_of_int r.major_collections) plain);
          metric "obs.trace_overhead" "ratio"
            (if w.default_obs then run_s /. t_flipped else t_flipped /. run_s);
          metric "bench.trace_overhead" "ratio" (med (fun r -> r.run_s) spans /. run_s);
          metric "host.calibration_ms" "ms" (control_s *. 1e3);
          metric "host.nproc" "count" (float_of_int (Host.nproc ()));
        ]
    end
  in
  let host = Host.fingerprint_json ~control_s in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool true);
        ("attempted", Json.Int (first.Outcome.attempted * List.length reps * serves));
        ("failed", Json.Int (failed * List.length reps * serves));
        ("metrics", Json.Obj metrics);
      ]
  in
  (* Everything the run saw, spans included, for later comparison. *)
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d-trace%d.json" w.name seed (Bool.to_int trace)) in
  Json.write ~path
    (Json.Obj
       [
         ("workload", Json.String w.name);
         ("seed", Json.Int seed);
         ("host", host);
         ("reps", Json.Int (List.length reps));
         ("serves", Json.Int serves);
         ("setup_s", Json.List (List.map (fun r -> Json.Float r.setup_s) reps));
         ("run_s", Json.List (List.map (fun r -> Json.Float r.run_s) reps));
         ("setup_raw_s", Json.List (List.map (fun r -> Json.Float r.setup_raw_s) reps));
         ("run_raw_s", Json.List (List.map (fun r -> Json.Float r.run_raw_s) reps));
         ("run_wall_s", Json.List (List.map (fun r -> Json.Float r.run_wall_s) reps));
         ("control_s", Json.List (List.map (fun r -> Json.Float r.control_s) reps));
         ("result", result);
         ( "trace",
           match List.find_opt (fun r -> r.variant = Spans) reps with
           | Some r -> r.trace_json
           | None -> Json.Null );
       ]);
  print_endline ("host " ^ Json.to_string host);
  Printf.printf
    "%s seed=%d: %d reps of %d trials served %d times; per serve %d ops attempted, %d failed, %d latency samples (p99 has %d above it)\n"
    w.name seed (List.length reps) w.trials serves first.Outcome.attempted failed lat.Stallhide_runtime.Latency.count
    (lat.Stallhide_runtime.Latency.count / 100);
  Printf.printf "wrote %s\n" path;
  print_endline (Json.to_string result)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S how long the reps run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  try main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
  | Gate msg ->
      prerr_endline ("perfbench: check failed: " ^ msg);
      exit 1
  | Failure msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1
