(* Asymmetric concurrency (§3.3): a latency-sensitive KV server shares
   the core with batch analytics. Dual-mode execution keeps the KV
   request latency close to running alone, while the scavengers soak up
   the stall cycles; the scavenger inter-yield interval is the knob
   trading primary latency against total efficiency.

   Run with: dune exec examples/latency_kv.exe *)

open Stallhide
open Stallhide_mem
open Stallhide_runtime
open Stallhide_workloads

let seed = 5

let build interval =
  let image = Address_space.create ~bytes:(1 lsl 25) in
  let kv = Kv_server.make ~image ~requests:800 ~service_compute:30 ~seed () in
  let analytics =
    Pointer_chase.make ~image ~lanes:8 ~nodes_per_lane:2048 ~hops:1200 ~compute:250 ~seed ()
  in
  let kv', _ = Pipeline.instrument ~scavenger_interval:interval (Pipeline.profile kv) kv in
  let an', _ =
    Pipeline.instrument ~scavenger_interval:interval (Pipeline.profile analytics) analytics
  in
  (kv', an')

let lat = function
  | Some (s : Latency.summary) -> (s.Latency.p50, s.Latency.p99)
  | None -> (0, 0)

(* A zoomed-in dual-mode timeline: ctx 0 is the KV primary; the
   scavengers fill its miss windows. *)
let show_timeline () =
  let kv, analytics = build 200 in
  let stream = Stallhide_obs.Stream.create () in
  let p_ctx = Workload.context kv ~lane:0 ~id:0 ~mode:Stallhide_cpu.Context.Primary in
  let s_ctxs =
    Array.init 4 (fun l ->
        Workload.context analytics ~lane:l ~id:(l + 1) ~mode:Stallhide_cpu.Context.Scavenger)
  in
  let sched =
    Core_sched.create ~obs:stream (Hierarchy.create Memconfig.default) kv.Workload.image
  in
  Core_sched.submit sched p_ctx;
  Array.iter (Core_sched.add_scavenger sched) s_ctxs;
  while Core_sched.step sched ~deadline:4000 = Core_sched.Worked do
    ()
  done;
  print_newline ();
  print_string (Tracer.render ~width:72 stream)

let () =
  let alone =
    Baselines.run_sequential
      (Kv_server.make
         ~image:(Address_space.create ~bytes:(1 lsl 25))
         ~requests:800 ~service_compute:30 ~seed ())
  in
  let ap50, ap99 = lat alone.Metrics.latency in
  Printf.printf "KV server alone:       p50 %d  p99 %d cycles, CPU efficiency %s\n" ap50 ap99
    (Experiment.pct alone.Metrics.efficiency);

  let rows =
    List.map
      (fun interval ->
        let kv, analytics = build interval in
        let d = Baselines.run_dual ~primary:kv ~scavengers:analytics () in
        let p50, p99 = lat d.Baselines.primary_latency in
        [
          Experiment.fi interval;
          Experiment.fi p50;
          Experiment.fi p99;
          Experiment.pct d.Baselines.metrics.Metrics.efficiency;
        ])
      [ 100; 200; 400 ]
  in
  Experiment.table ~title:"Dual-mode: KV primary + 8 analytics scavengers"
    ~note:"pick the interval that meets the latency SLO; the rest of the core feeds analytics"
    ~header:[ "scavenger interval"; "KV p50"; "KV p99"; "total efficiency" ]
    rows;
  show_timeline ()
