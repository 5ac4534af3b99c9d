(* The differential wall in front of the decoded-µop fast path: the
   fast loop must be architecturally bit-identical to the reference
   interpreter — registers, memory, Mem_stats, instruction/stall/cycle
   counts — on every workload, on hundreds of generated programs, and
   through the whole SMP harness in every placement mode — and each
   context's op count and op-latency samples, which the engine records
   itself on both paths by the rule of the Latency hooks. The
   zero-allocation regression keeps the fast path actually fast: its
   per-simulated-cycle minor-heap delta must be zero (only a small
   per-[Engine.run]-call constant is allowed, for the returned [stop]
   value). *)

open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_workloads
open Stallhide_check
module Harness = Stallhide_smp.Harness

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
  Alcotest.(check bool) "default engages" true (Engine.fast_engaged fast_engine);
  Alcotest.(check bool) "fast=false disengages" false (Engine.fast_engaged ref_engine);
  Alcotest.(check bool) "hooks disengage" false
    (Engine.fast_engaged
       {
         fast_engine with
         Engine.hooks = Stallhide_obs.Stream.hooks (Stallhide_obs.Stream.create ());
       });
  Alcotest.(check bool) "stall_shape disengages" false
    (Engine.fast_engaged
       { fast_engine with Engine.stall_shape = Some (fun ~pc:_ ~stall -> stall) })

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
   returned [stop] value) — i.e. zero words per simulated cycle. *)

let test_zero_alloc () =
  List.iter
    (fun (name, make) ->
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
    makers

let () =
  Alcotest.run "engine-diff"
    [
      ( "fast-vs-reference",
        [
          Alcotest.test_case "fast_engaged gating" `Quick test_fast_engaged_sanity;
          Alcotest.test_case "nine workloads (+manual variants)" `Quick test_workloads_diff;
          Alcotest.test_case "500 generated programs" `Slow test_gen_programs_diff;
        ] );
      ( "whole-machine",
        [
          Alcotest.test_case "harness placements pgo/static/hybrid" `Slow
            test_harness_placements_diff;
        ] );
      ("zero-alloc", [ Alcotest.test_case "no per-cycle allocation" `Quick test_zero_alloc ]);
    ]
