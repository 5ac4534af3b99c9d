open Stallhide_cpu
open Stallhide_mem
open Stallhide_runtime
open Stallhide_workloads

type opts = {
  mem_cfg : Memconfig.t;
  switch : Switch_cost.t;
  engine : Engine.config;
  max_cycles : int;
  obs : Stallhide_obs.Stream.t option;
  prepare_hier : Hierarchy.t -> unit;
  watchdog : Core_sched.watchdog option;
}

let default_opts =
  {
    mem_cfg = Memconfig.default;
    switch = Switch_cost.coroutine;
    engine = Engine.default_config;
    max_cycles = max_int;
    obs = None;
    prepare_hier = ignore;
    watchdog = None;
  }

let make_hier opts =
  let hier = Hierarchy.create opts.mem_cfg in
  opts.prepare_hier hier;
  hier

(* The caller's hooks, plus telemetry when an [obs] stream is set. A
   stream's hooks are closure-free, so [Engine.fast_engaged] holds unless
   the caller passes closures; op counts and latencies come from the
   engine's own accounting on either path. *)
let engine_of opts =
  match opts.obs with
  | None -> opts.engine
  | Some s ->
      {
        opts.engine with
        Engine.hooks = Events.compose [ opts.engine.Engine.hooks; Stallhide_obs.Stream.hooks s ];
      }

let ops ctxs = Array.fold_left (fun acc c -> acc + c.Context.opmarks) 0 ctxs

let metrics ~label ctxs recorded r =
  Metrics.of_sched ~label ~ops:(ops ctxs) ~latency:(Latency.summarize (Latency.all recorded)) r

let run_sequential ?label ?(opts = default_opts) w =
  let hier = make_hier opts in
  let ctxs = Workload.contexts w in
  let log = Latency.watch ctxs in
  let r =
    Scheduler.run_sequential ~engine:(engine_of opts) ~max_cycles:opts.max_cycles ?obs:opts.obs
      hier w.Workload.image ctxs
  in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/none" in
  metrics ~label ctxs (Latency.of_log log) r

let run_ooo ?label ?(opts = default_opts) ~window w =
  let opts = { opts with engine = { opts.engine with Engine.ooo_window = window } } in
  let label = match label with Some l -> l | None -> Printf.sprintf "%s/ooo-%d" w.Workload.name window in
  run_sequential ~label ~opts w

let run_smt ?label ?(opts = default_opts) w =
  let hier = make_hier opts in
  let ctxs = Workload.contexts w in
  let r =
    Smt.run
      ~config:{ Smt.hooks = (engine_of opts).Engine.hooks; threshold = 0 }
      hier w.Workload.image ctxs ~max_cycles:opts.max_cycles
  in
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "%s/smt-%d" w.Workload.name (Workload.lane_count w)
  in
  Metrics.of_smt ~label ~ops:(ops ctxs) r

let run_round_robin ?label ?(opts = default_opts) w =
  let hier = make_hier opts in
  let ctxs = Workload.contexts w in
  let log = Latency.watch ctxs in
  let r =
    Scheduler.run_round_robin ~engine:(engine_of opts) ~max_cycles:opts.max_cycles
      ?obs:opts.obs ~switch:opts.switch hier w.Workload.image ctxs
  in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/rr" in
  metrics ~label ctxs (Latency.of_log log) r

let run_pgo ?label ?opts ?profile_config ?primary ?scavenger_interval ?verify w =
  let o = match opts with Some o -> o | None -> default_opts in
  let profiled = Pipeline.profile ?config:profile_config ~mem_cfg:o.mem_cfg w in
  let w', inst = Pipeline.instrument ?primary ?scavenger_interval ?verify profiled w in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/pgo" in
  (run_round_robin ~label ?opts w', inst)

(* Profile-free placement: the static must/may analysis classifies the
   loads, its taint priors price the rest — no profiling run at all. *)
let run_static ?label ?opts ?(primary = Stallhide_binopt.Primary_pass.default_opts)
    ?scavenger_interval ?verify w =
  let o = match opts with Some o -> o | None -> default_opts in
  let analysis = Stallhide_analysis.Analysis.run ~mem:o.mem_cfg w.Workload.program in
  let classifier = Stallhide_analysis.Analysis.to_classifier analysis in
  let primary =
    { primary with
      Stallhide_binopt.Primary_pass.placement = Stallhide_binopt.Gain_cost.Static classifier }
  in
  let no_estimates =
    {
      Stallhide_binopt.Gain_cost.miss_probability = (fun _ -> None);
      stall_per_miss = (fun _ -> None);
    }
  in
  let inst =
    Pipeline.instrument_with ~estimates:no_estimates ~primary ?scavenger_interval
      ?verify w.Workload.program
  in
  let w' = Workload.with_program w inst.Pipeline.program in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/static" in
  (run_round_robin ~label ?opts w', inst)

(* Hybrid: proven static facts override the profile; priors back-fill
   pcs the profile never sampled. *)
let run_hybrid ?label ?opts ?profile_config
    ?(primary = Stallhide_binopt.Primary_pass.default_opts) ?scavenger_interval
    ?verify w =
  let o = match opts with Some o -> o | None -> default_opts in
  let analysis = Stallhide_analysis.Analysis.run ~mem:o.mem_cfg w.Workload.program in
  let classifier = Stallhide_analysis.Analysis.to_classifier analysis in
  let primary =
    { primary with
      Stallhide_binopt.Primary_pass.placement = Stallhide_binopt.Gain_cost.Hybrid classifier }
  in
  let profiled = Pipeline.profile ?config:profile_config ~mem_cfg:o.mem_cfg w in
  let w', inst = Pipeline.instrument ~primary ?scavenger_interval ?verify profiled w in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/hybrid" in
  (run_round_robin ~label ?opts w', inst)

type attributed = {
  pgo_metrics : Metrics.t;
  inst : Pipeline.instrumented;
  attribution : Stallhide_obs.Attribution.report;
  stream : Stallhide_obs.Stream.t;
}

let run_pgo_attributed ?label ?opts ?profile_config ?(primary = Stallhide_binopt.Primary_pass.default_opts)
    ?scavenger_interval ?verify w =
  let o = match opts with Some o -> o | None -> default_opts in
  let profiled = Pipeline.profile ?config:profile_config ~mem_cfg:o.mem_cfg w in
  let w', inst = Pipeline.instrument ~primary ?scavenger_interval ?verify profiled w in
  (* Baseline stall map: the uninstrumented workload run once more with
     engine telemetry attached (the hooks do not touch the clock, so
     this is exactly the run_sequential baseline). *)
  let baseline = Stallhide_obs.Stream.create () in
  let base_engine =
    {
      o.engine with
      Engine.hooks =
        Events.compose [ o.engine.Engine.hooks; Stallhide_obs.Stream.hooks baseline ];
    }
  in
  let (_ : Scheduler.result) =
    Scheduler.run_sequential ~engine:base_engine ~max_cycles:o.max_cycles
      (Hierarchy.create o.mem_cfg) w.Workload.image (Workload.contexts w)
  in
  w.Workload.reset ();
  let stream = Stallhide_obs.Stream.create () in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/pgo" in
  let pgo_metrics = run_round_robin ~label ~opts:{ o with obs = Some stream } w' in
  let attribution =
    Stallhide_obs.Attribution.build ~program:inst.Pipeline.program
      ~orig_of_new:inst.Pipeline.orig_of_new
      ~selected:inst.Pipeline.primary.Stallhide_binopt.Primary_pass.selected
      ~machine:primary.Stallhide_binopt.Primary_pass.machine
      ~estimates:(Stallhide_binopt.Gain_cost.of_profile profiled.Pipeline.profile)
      ~baseline stream
  in
  { pgo_metrics; inst; attribution; stream }

type dual_result = {
  metrics : Metrics.t;
  primary_latency : Latency.summary option;
  primary_done_at : int;
  scavenger_switches : int;
  watchdog_strikes : int;
  watchdog_demotions : int;
  watchdog_quarantined : int;
}

let run_dual ?label ?(opts = default_opts) ~primary ~scavengers () =
  if primary.Workload.image != scavengers.Workload.image then
    invalid_arg "Baselines.run_dual: primary and scavengers must share one memory image";
  let hier = make_hier opts in
  let p_ctx = Workload.context primary ~lane:0 ~id:0 ~mode:Context.Primary in
  let s_ctxs =
    Array.init (Workload.lane_count scavengers) (fun lane ->
        Workload.context scavengers ~lane ~id:(lane + 1) ~mode:Context.Scavenger)
  in
  let all = Array.append [| p_ctx |] s_ctxs in
  let log = Latency.watch all in
  let sched =
    Core_sched.create
      ~config:{ Core_sched.default_config with engine = engine_of opts; switch = opts.switch }
      ?watchdog:opts.watchdog ?obs:opts.obs hier primary.Workload.image
  in
  Core_sched.submit sched p_ctx;
  Array.iter (Core_sched.add_scavenger sched) s_ctxs;
  let primary_done_at = ref (-1) in
  Core_sched.set_on_complete sched (fun _ ~now -> primary_done_at := now);
  (* the primary, then the scavengers drained round-robin *)
  while Core_sched.step sched ~deadline:opts.max_cycles = Core_sched.Worked do
    ()
  done;
  let st = Core_sched.stats sched in
  let r =
    Scheduler.collect all ~clock:(Core_sched.clock sched) ~switches:st.Core_sched.switches
      ~switch_cycles:st.Core_sched.switch_cycles ~faults:(Core_sched.faults sched)
  in
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "%s+%s/dual" primary.Workload.name scavengers.Workload.name
  in
  let recorded = Latency.of_log log in
  {
    metrics = metrics ~label all recorded r;
    primary_latency = Latency.summarize (Latency.of_ctx recorded 0);
    primary_done_at = !primary_done_at;
    scavenger_switches = st.Core_sched.scav_dispatches;
    watchdog_strikes = st.Core_sched.watchdog_strikes;
    watchdog_demotions = st.Core_sched.watchdog_demotions;
    watchdog_quarantined = st.Core_sched.watchdog_quarantines;
  }
