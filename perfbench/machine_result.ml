(* What every check and per-layer count reads from an SMP machine's
   result. *)

open Stallhide_mem
open Stallhide_runtime
module M = Stallhide_smp.Machine
module Json = Stallhide_util.Json

(* Per-core cycles, completions, demand accesses, switches and steals,
   plus every request's finish time. *)
let fingerprint (r : M.result) =
  Json.Obj
    [
      ("cycles", Json.Int r.M.cycles);
      ("completed", Json.Int r.M.completed);
      ("faulted", Json.Int r.M.faulted);
      ( "per_core",
        Json.List
          (Array.to_list
             (Array.map
                (fun (c : M.core_result) ->
                  Json.List
                    [
                      Json.Int c.M.cycles;
                      Json.Int c.M.stats.Core_sched.completions;
                      Json.Int c.M.mem.Mem_stats.demand_accesses;
                      Json.Int c.M.stats.Core_sched.switches;
                      Json.Int c.M.stats.Core_sched.steals;
                    ])
                r.M.per_core)) );
      ("finished_at", Json.List (Array.to_list (Array.map (fun q -> Json.Int q.M.finished_at) r.M.requests)));
    ]

(* Memory, shared-L3, scheduler and dispatch counts over machines. *)
let counts (rs : M.result list) =
  let per_core = List.concat_map (fun (r : M.result) -> Array.to_list r.M.per_core) rs in
  let sum l f = List.fold_left (fun a x -> a + f x) 0 l in
  let st f = sum per_core (fun (c : M.core_result) -> f c.M.stats) in
  let l3 f = sum rs (fun (r : M.result) -> f r.M.l3) in
  let served =
    List.concat_map (fun (r : M.result) -> Array.to_list r.M.requests) rs
    |> List.filter (fun q -> q.M.served_by >= 0)
  in
  let frac n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d in
  Outcome.mem_counts (List.map (fun (c : M.core_result) -> c.M.mem) per_core)
  @ [
      ( "mem.shared_l3.queue_cycles_per_admit",
        frac (l3 (fun s -> s.Shared_l3.queue_cycles)) (l3 (fun s -> s.Shared_l3.admitted)) );
      ("mem.shared_l3.invalidations", float_of_int (l3 (fun s -> s.Shared_l3.invalidations)));
      ( "runtime.core_sched.switch_cycles_frac",
        frac (st (fun s -> s.Core_sched.switch_cycles)) (sum per_core (fun (c : M.core_result) -> c.M.cycles)) );
      ("runtime.core_sched.escalations", float_of_int (st (fun s -> s.Core_sched.escalations)));
      ("runtime.core_sched.steals", float_of_int (st (fun s -> s.Core_sched.steals)));
      ( "sched.dispatch.remote_frac",
        frac (List.length (List.filter (fun q -> q.M.served_by <> q.M.home) served)) (List.length served) );
    ]
