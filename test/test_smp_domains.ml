(* Domain-determinism wall for barrier-parallel SMP: a Barrier-mode
   machine must be bit-identical — per-core final state, stats, memory
   stats, steal log, makespan — whether its windows run on 1 domain or
   N domains, and across repeated runs. Workloads are lib/check
   generated programs, whose write sets are lane-private by
   construction (the property that makes mid-window parallelism legal:
   no two cores ever store to the same word). *)

open Stallhide_mem
open Stallhide_cpu
open Stallhide_sched
open Stallhide_runtime
open Stallhide_workloads
open Stallhide_check
module Machine = Stallhide_smp.Machine

let budget = 60_000_000

let window = 64

(* One barrier-mode machine over a generated program: lanes become
   requests, two store-free generated scavengers seed core 0 so barrier
   stealing has something to migrate. Mirrors the smp oracle's arm. *)
let run_machine ~cores ~domains ~seed =
  let case = Gen.case ~base:{ Gen.default_cfg with Gen.cores } ~seed () in
  let cfg = case.Gen.cfg in
  let wl = Gen.workload ~prog:case.Gen.program cfg in
  let lanes = Array.length wl.Workload.lanes in
  let requests =
    List.init lanes (fun i ->
        let key = (7 * i) + 3 in
        let ctx = Workload.context wl ~lane:i ~id:i ~mode:Context.Primary in
        Machine.request ~rid:i ~key
          ~home:(Dispatch.home ~shards:cores key)
          ~arrival:(i * 50) ctx)
  in
  let scav_cfg = { cfg with Gen.stores = false; seed = cfg.Gen.seed + 17; ops = 1 } in
  let scav_prog = Gen.program scav_cfg in
  let scavs =
    List.init 2 (fun k ->
        let ctx = Context.create ~id:(1000 + k) ~mode:Context.Scavenger scav_prog in
        Context.set_regs ctx wl.Workload.lanes.(0);
        ctx)
  in
  let scavengers = Array.init cores (fun i -> if i = 0 then scavs else []) in
  let config =
    {
      Machine.default_config with
      Machine.cores;
      max_cycles = budget;
      sync = Machine.Barrier { window; domains };
      trace = false;
    }
  in
  let r = Machine.run ~config ~policy:Dispatch.Jbsq ~mem:wl.Workload.image ~requests ~scavengers () in
  let ctxs =
    Array.of_list (List.map (fun (rq : Machine.request) -> rq.Machine.ctx) requests)
  in
  (r, State.capture ~mem:wl.Workload.image ctxs)

(* The machine keeps its steal log untraced, so the per-steal check
   runs on the same fast path the machines above use. *)
let steal_log (r : Machine.result) =
  Array.to_list r.Machine.per_core
  |> List.concat_map (fun (c : Machine.core_result) ->
         List.map
           (fun (s : Machine.steal) ->
             (s.Machine.stolen, s.Machine.from_core, s.Machine.to_core, s.Machine.at))
           c.Machine.steal_log)

let steal_entry : (int * int * int * int) Alcotest.testable =
  Alcotest.testable
    (fun fmt (w, x, y, z) -> Format.fprintf fmt "(ctx=%d,from=%d,to=%d,cycle=%d)" w x y z)
    ( = )

let check_identical label (ra, sa) (rb, sb) =
  (match State.diff sa sb with
  | None -> ()
  | Some d -> Alcotest.fail (label ^ ": state diff: " ^ d));
  Alcotest.(check int) (label ^ ": cycles") ra.Machine.cycles rb.Machine.cycles;
  Alcotest.(check int) (label ^ ": completed") ra.Machine.completed rb.Machine.completed;
  Alcotest.(check int) (label ^ ": faulted") ra.Machine.faulted rb.Machine.faulted;
  Alcotest.(check int) (label ^ ": steals") ra.Machine.steals rb.Machine.steals;
  Alcotest.(check int) (label ^ ": donations") ra.Machine.donations rb.Machine.donations;
  Alcotest.(check (list steal_entry))
    (label ^ ": steal log")
    (steal_log ra) (steal_log rb);
  Array.iter2
    (fun (ca : Machine.core_result) (cb : Machine.core_result) ->
      let p fmt = Printf.sprintf ("%s: core %d " ^^ fmt) label ca.Machine.core_id in
      Alcotest.(check int) (p "cycles") ca.Machine.cycles cb.Machine.cycles;
      let xa = ca.Machine.stats and xb = cb.Machine.stats in
      Alcotest.(check int) (p "dispatches") xa.Core_sched.dispatches xb.Core_sched.dispatches;
      Alcotest.(check int) (p "scav_dispatches") xa.Core_sched.scav_dispatches
        xb.Core_sched.scav_dispatches;
      Alcotest.(check int) (p "switches") xa.Core_sched.switches xb.Core_sched.switches;
      Alcotest.(check int) (p "switch_cycles") xa.Core_sched.switch_cycles
        xb.Core_sched.switch_cycles;
      Alcotest.(check int) (p "steals") xa.Core_sched.steals xb.Core_sched.steals;
      Alcotest.(check int) (p "donated") xa.Core_sched.donated xb.Core_sched.donated;
      Alcotest.(check int) (p "escalations") xa.Core_sched.escalations
        xb.Core_sched.escalations;
      Alcotest.(check int) (p "completions") xa.Core_sched.completions
        xb.Core_sched.completions;
      Alcotest.(check int) (p "faults") xa.Core_sched.fault_count xb.Core_sched.fault_count;
      let ma = ca.Machine.mem and mb = cb.Machine.mem in
      Alcotest.(check int) (p "demand_accesses") ma.Mem_stats.demand_accesses
        mb.Mem_stats.demand_accesses;
      Alcotest.(check int) (p "l1_hits") ma.Mem_stats.l1_hits mb.Mem_stats.l1_hits;
      Alcotest.(check int) (p "l2_hits") ma.Mem_stats.l2_hits mb.Mem_stats.l2_hits;
      Alcotest.(check int) (p "l3_hits") ma.Mem_stats.l3_hits mb.Mem_stats.l3_hits;
      Alcotest.(check int) (p "dram_accesses") ma.Mem_stats.dram_accesses
        mb.Mem_stats.dram_accesses;
      Alcotest.(check int) (p "prefetches") ma.Mem_stats.prefetches mb.Mem_stats.prefetches;
      Alcotest.(check (list int)) (p "sojourns") ca.Machine.sojourns cb.Machine.sojourns)
    ra.Machine.per_core rb.Machine.per_core;
  let la = ra.Machine.l3 and lb = rb.Machine.l3 in
  Alcotest.(check int) (label ^ ": l3 admitted") la.Shared_l3.admitted lb.Shared_l3.admitted;
  Alcotest.(check int) (label ^ ": l3 writes") la.Shared_l3.writes lb.Shared_l3.writes;
  Alcotest.(check int)
    (label ^ ": l3 invalidations")
    la.Shared_l3.invalidations lb.Shared_l3.invalidations

let seeds = List.init 20 (fun i -> i * 31)

let test_domains_identical () =
  let logged = ref 0 in
  List.iter
    (fun cores ->
      List.iter
        (fun seed ->
          let label = Printf.sprintf "cores=%d seed=%d" cores seed in
          let one = run_machine ~cores ~domains:1 ~seed in
          let par = run_machine ~cores ~domains:cores ~seed in
          check_identical (label ^ " 1-vs-N") one par;
          logged := !logged + List.length (steal_log (fst one));
          (* rerun: same parallel config twice must also be identical
             (no hidden dependence on scheduling of the domains) *)
          let par2 = run_machine ~cores ~domains:cores ~seed in
          check_identical (label ^ " rerun") par par2)
        seeds)
    [ 2; 4; 8 ];
  (* the steal-log comparison is only a check if some run stole *)
  Alcotest.(check bool) "some run logged a steal" true (!logged > 0)

(* Completeness guard: the machines above must actually finish their
   requests — a vacuous all-idle run would make the property trivial. *)
let test_runs_complete () =
  let r, _ = run_machine ~cores:4 ~domains:4 ~seed:5 in
  Alcotest.(check bool) "completed > 0" true (r.Machine.completed > 0);
  Alcotest.(check int) "faulted" 0 r.Machine.faulted

let () =
  Alcotest.run "smp-domains"
    [
      ( "barrier-determinism",
        [
          Alcotest.test_case "runs complete" `Quick test_runs_complete;
          Alcotest.test_case "1 vs N domains bit-identical, 20 seeds x {2,4,8} cores" `Slow
            test_domains_identical;
        ] );
    ]
