(* The set-up pipeline split into its layers so each call can be timed:
   profile → instrument → validate for profile-guided placement
   ([Smp.Harness.instrument_twin] with [Pgo], [Baselines.run_pgo]), and
   analyze → instrument → validate for static placement
   ([Baselines.run_static]). The workloads check that the split
   reproduces those one-shot calls. *)

open Stallhide
open Stallhide_workloads

type instrumented = {
  workload : Workload.t;  (** rebound to the instrumented program *)
  program : Stallhide_isa.Program.t;
  samples : int;
  yield_sites : int;
  verify_errors : int;
}

let validated ~samples (w : Workload.t) (inst : Pipeline.instrumented) =
  let outcome =
    Span.with_ "verify.validate" (fun () ->
        Stallhide_verify.Verify.validate ~orig:w.Workload.program
          ~orig_of_new:inst.Pipeline.orig_of_new inst.Pipeline.program)
  in
  {
    workload = Workload.with_program w inst.Pipeline.program;
    program = inst.Pipeline.program;
    samples;
    yield_sites =
      (inst.Pipeline.primary.Stallhide_binopt.Primary_pass.yield_sites
      + match inst.Pipeline.scavenger with
        | Some r -> r.Stallhide_binopt.Scavenger_pass.inserted
        | None -> 0);
    verify_errors = Stallhide_verify.Verify.errors outcome;
  }

let pgo ?scavenger_interval ~mem (w : Workload.t) =
  let profiled = Span.with_ "pmu.profile" (fun () -> Pipeline.profile ~mem_cfg:mem w) in
  let _, inst =
    Span.with_ "binopt.instrument" (fun () -> Pipeline.instrument ?scavenger_interval profiled w)
  in
  validated ~samples:profiled.Pipeline.samples w inst

let static ~mem (w : Workload.t) =
  let analysis =
    Span.with_ "analysis.analyze" (fun () -> Stallhide_analysis.Analysis.run ~mem w.Workload.program)
  in
  let primary =
    {
      Stallhide_binopt.Primary_pass.default_opts with
      Stallhide_binopt.Primary_pass.placement =
        Stallhide_binopt.Gain_cost.Static (Stallhide_analysis.Analysis.to_classifier analysis);
    }
  in
  let no_estimates =
    {
      Stallhide_binopt.Gain_cost.miss_probability = (fun _ -> None);
      stall_per_miss = (fun _ -> None);
    }
  in
  let inst =
    Span.with_ "binopt.instrument" (fun () ->
        Pipeline.instrument_with ~estimates:no_estimates ~primary w.Workload.program)
  in
  validated ~samples:0 w inst

(* The twin workloads [Smp.Harness] and [Cluster.Harness] instrument
   once before serving: the kv-server and group-by program text on small
   instances. *)
let twins ~seed ~table_slots ~service_compute ~scav_groups ~scav_tuples ~scav_interval ~mem =
  Span.with_ "smp.instrument_twin" (fun () ->
      let kv_twin =
        Span.with_ "workloads.build" (fun () ->
            Kv_server.make ~lanes:8 ~table_slots ~requests:64 ~service_compute ~seed:(seed + 1) ())
      in
      let kv = pgo ~mem kv_twin in
      let scav_twin =
        Span.with_ "workloads.build" (fun () ->
            Group_by.make ~lanes:4 ~groups:scav_groups ~tuples:(max 400 scav_tuples) ~seed:(seed + 2) ())
      in
      (kv, pgo ~scavenger_interval:scav_interval ~mem scav_twin))

let setup_counts (xs : instrumented list) =
  let sum f = float_of_int (List.fold_left (fun a x -> a + f x) 0 xs) in
  [
    ("pmu.samples", sum (fun x -> x.samples));
    ("binopt.yield_sites", sum (fun x -> x.yield_sites));
    ("verify.errors", sum (fun x -> x.verify_errors));
  ]
