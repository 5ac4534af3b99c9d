open Stallhide_mem
open Stallhide_runtime
open Stallhide_sched
open Stallhide_smp

let cfg = Memconfig.default

(* --- Shared L3: bandwidth admission --- *)

let test_l3_admission () =
  let l3 = Shared_l3.create ~window:32 ~budget:2 cfg in
  let delays = List.init 5 (fun _ -> Shared_l3.admit l3 ~now:0) in
  Alcotest.(check (list int)) "windowed queueing" [ 0; 0; 32; 32; 64 ] delays;
  let s = Shared_l3.stats l3 in
  Alcotest.(check int) "admitted" 5 s.Shared_l3.admitted;
  Alcotest.(check int) "queued" 3 s.Shared_l3.queued;
  Alcotest.(check int) "queue cycles" 128 s.Shared_l3.queue_cycles;
  (* a later window has fresh budget *)
  Alcotest.(check int) "fresh window" 0 (Shared_l3.admit l3 ~now:100)

let test_l3_unlimited () =
  let l3 = Shared_l3.create ~budget:0 cfg in
  for _ = 1 to 100 do
    Alcotest.(check int) "no contention" 0 (Shared_l3.admit l3 ~now:0)
  done

(* --- Shared L3: cross-core invalidation through Hierarchy --- *)

let test_l3_invalidation () =
  let l3 = Shared_l3.create ~budget:0 cfg in
  let h0 = Hierarchy.create_core cfg ~shared:l3 in
  let h1 = Hierarchy.create_core cfg ~shared:l3 in
  Alcotest.(check int) "two cores attached" 2 (Shared_l3.cores l3);
  let addr = 4096 in
  (* core 0 reads the line into its private L1/L2 *)
  let (_ : Hierarchy.result) = Hierarchy.access h0 ~now:0 addr in
  let r = Hierarchy.access h0 ~now:1000 addr in
  Alcotest.(check bool) "core 0 has it private" true (r.Hierarchy.level = Hierarchy.L1);
  (* remote write kills core 0's private copies, not the L3 copy *)
  Hierarchy.write h1 ~now:1100 addr;
  let s = Shared_l3.stats l3 in
  Alcotest.(check int) "one write" 1 s.Shared_l3.writes;
  Alcotest.(check int) "l1+l2 invalidated" 2 s.Shared_l3.invalidations;
  let r = Hierarchy.access h0 ~now:2000 addr in
  Alcotest.(check bool) "re-read served below private levels" true
    (r.Hierarchy.level = Hierarchy.L3);
  (* the writer's own hierarchy is unaffected *)
  let (_ : Hierarchy.result) = Hierarchy.access h1 ~now:3000 addr in
  Hierarchy.write h1 ~now:4000 addr;
  let r = Hierarchy.access h1 ~now:5000 addr in
  Alcotest.(check bool) "writer keeps its line" true (r.Hierarchy.level = Hierarchy.L1)

(* --- Latency.merge --- *)

let test_latency_merge () =
  let empty = Latency.merge [] in
  Alcotest.(check int) "empty count" 0 empty.Latency.count;
  let a = Latency.summary [ 10; 20; 30 ] in
  Alcotest.(check int) "singleton is identity" a.Latency.p99 (Latency.merge [ a ]).Latency.p99;
  let b = Latency.summary [ 40 ] in
  let m = Latency.merge [ a; b ] in
  Alcotest.(check int) "pooled count" 4 m.Latency.count;
  Alcotest.(check (float 1e-9)) "pooled mean exact" 25.0 m.Latency.mean;
  Alcotest.(check int) "max of maxes" 40 m.Latency.max;
  let expect_p50 =
    int_of_float
      (Float.round
         (float_of_int ((3 * a.Latency.p50) + (1 * b.Latency.p50)) /. 4.0))
  in
  Alcotest.(check int) "count-weighted p50" expect_p50 m.Latency.p50;
  (* summaries with count = 0 are ignored *)
  let m' = Latency.merge [ a; Latency.summary []; b ] in
  Alcotest.(check int) "zero-count summaries ignored" m.Latency.p99 m'.Latency.p99

(* identical shards: the merge is exact, not just an approximation *)
let test_latency_merge_identical () =
  let xs = List.init 100 (fun i -> i + 1) in
  let s = Latency.summary xs in
  let m = Latency.merge [ s; s; s ] in
  Alcotest.(check int) "count triples" (3 * s.Latency.count) m.Latency.count;
  Alcotest.(check (float 1e-9)) "mean unchanged" s.Latency.mean m.Latency.mean;
  Alcotest.(check (float 1e-6)) "stddev unchanged" s.Latency.stddev m.Latency.stddev;
  Alcotest.(check int) "p99 unchanged" s.Latency.p99 m.Latency.p99

(* merge [] and merge [s] pinned field by field: the empty merge is
   exactly [empty_summary] and a singleton merge is the identity — not
   just on headline percentiles but on every moment the summary carries *)
let test_latency_merge_edges () =
  let check_all label (exp : Latency.summary) (got : Latency.summary) =
    Alcotest.(check int) (label ^ " count") exp.Latency.count got.Latency.count;
    Alcotest.(check (float 1e-9)) (label ^ " mean") exp.Latency.mean got.Latency.mean;
    Alcotest.(check (float 1e-9)) (label ^ " stddev") exp.Latency.stddev got.Latency.stddev;
    Alcotest.(check int) (label ^ " p50") exp.Latency.p50 got.Latency.p50;
    Alcotest.(check int) (label ^ " p90") exp.Latency.p90 got.Latency.p90;
    Alcotest.(check int) (label ^ " p99") exp.Latency.p99 got.Latency.p99;
    Alcotest.(check int) (label ^ " p999") exp.Latency.p999 got.Latency.p999;
    Alcotest.(check int) (label ^ " max") exp.Latency.max got.Latency.max
  in
  check_all "empty merge" Latency.empty_summary (Latency.merge []);
  check_all "all-empty merge" Latency.empty_summary
    (Latency.merge [ Latency.summary []; Latency.summary [] ]);
  let s = Latency.summary [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  check_all "singleton identity" s (Latency.merge [ s ]);
  check_all "singleton + empties identity" s
    (Latency.merge [ Latency.summary []; s; Latency.summary [] ])

(* --- Registry namespaces --- *)

let test_registry_namespace () =
  let module R = Stallhide_obs.Registry in
  let reg = R.create () in
  let bump name v = R.incr ~by:v (R.counter reg ~ctx:(-1) name) in
  bump "core0.steals" 2;
  bump "core1.steals" 3;
  bump "core0.cycles" 100;
  bump "core1.cycles" 140;
  bump "l3.writes" 7;
  Alcotest.(check (list int)) "indices" [ 0; 1 ] (R.namespace_indices reg ~prefix:"core");
  Alcotest.(check (list string)) "names" [ "cycles"; "steals" ]
    (R.namespace_names reg ~prefix:"core");
  Alcotest.(check int) "aggregate steals" 5 (R.namespace_total reg ~prefix:"core" "steals");
  Alcotest.(check int) "aggregate cycles" 240 (R.namespace_total reg ~prefix:"core" "cycles");
  match R.namespace_json reg ~prefix:"core" with
  | Stallhide_util.Json.Obj fields ->
      Alcotest.(check bool) "aggregate present" true (List.mem_assoc "aggregate" fields);
      (match List.assoc "per" fields with
      | Stallhide_util.Json.Obj per ->
          Alcotest.(check (list string)) "per-core keys" [ "0"; "1" ] (List.map fst per)
      | _ -> Alcotest.fail "per is not an object")
  | _ -> Alcotest.fail "namespace_json is not an object"

(* Namespace-collision behavior, pinned: matching is purely textual
   ("<prefix><digits>.<name>"), so a counter from a *longer* prefix
   ("corequeue2.depth") is invisible under "core" (non-digit after the
   prefix), while a *numeric* continuation ("core12.steals" read with
   prefix "core1") parses as index 2 of "core1" — consumers that nest
   namespaces numerically must pick non-overlapping prefixes. *)
let test_registry_namespace_collision () =
  let module R = Stallhide_obs.Registry in
  let reg = R.create () in
  let bump name v = R.incr ~by:v (R.counter reg ~ctx:(-1) name) in
  bump "core0.steals" 1;
  bump "core12.steals" 4;
  bump "corequeue2.depth" 9;
  bump "core.steals" 11;
  (* no index digits at all *)
  bump "core3steals" 13;
  (* digits but no dot *)
  Alcotest.(check (list int)) "longer-prefix names invisible" [ 0; 12 ]
    (R.namespace_indices reg ~prefix:"core");
  Alcotest.(check int) "collision-free total" 5 (R.namespace_total reg ~prefix:"core" "steals");
  Alcotest.(check (list string)) "only dotted digit names counted" [ "steals" ]
    (R.namespace_names reg ~prefix:"core");
  (* the sharp edge: "core12.steals" is a valid member of namespace
     "core1" (index 2) — numeric prefixes overlap by construction *)
  Alcotest.(check (list int)) "numeric continuation parses" [ 2 ]
    (R.namespace_indices reg ~prefix:"core1");
  Alcotest.(check int) "and is aggregated there" 4
    (R.namespace_total reg ~prefix:"core1" "steals");
  (* an unrelated namespace sees nothing *)
  Alcotest.(check (list int)) "disjoint prefix empty" []
    (R.namespace_indices reg ~prefix:"l3")

(* --- Dispatch --- *)

let test_dispatch_home () =
  List.iter
    (fun shards ->
      for key = 0 to 999 do
        let h = Dispatch.home ~shards key in
        Alcotest.(check bool) "home in range" true (h >= 0 && h < shards);
        Alcotest.(check int) "home stable" h (Dispatch.home ~shards key)
      done)
    [ 1; 2; 4; 7; 8 ]

let test_dispatch_choose () =
  Alcotest.(check int) "d-fcfs ignores depths" 0
    (Dispatch.choose Dispatch.D_fcfs ~home:0 ~depths:[| 5; 0; 0 |]);
  Alcotest.(check int) "jbsq takes shallowest" 1
    (Dispatch.choose Dispatch.Jbsq ~home:0 ~depths:[| 3; 1; 2 |]);
  Alcotest.(check int) "home wins ties" 1
    (Dispatch.choose Dispatch.Jbsq ~home:1 ~depths:[| 2; 2; 2 |]);
  Alcotest.(check int) "lowest index among equals" 0
    (Dispatch.choose Dispatch.Jbsq ~home:1 ~depths:[| 1; 2; 1 |]);
  Alcotest.(check (option Alcotest.reject)) "unknown policy name" None
    (Dispatch.policy_of_string "lifo");
  Alcotest.(check bool) "jbsq parses" true (Dispatch.policy_of_string "jbsq" = Some Dispatch.Jbsq)

(* --- Perfetto multi-track export --- *)

let test_perfetto_tracks () =
  let module Obs = Stallhide_obs in
  let s0 = Obs.Stream.create () and s1 = Obs.Stream.create () in
  Obs.Stream.record s0 (Obs.Event.Dispatch { ctx = 7; start = 0; stop = 10 });
  Obs.Stream.record s1 (Obs.Event.Dispatch { ctx = 8; start = 5; stop = 15 });
  match Obs.Perfetto.to_json_tracks [ ("core0", s0); ("core1", s1) ] with
  | Stallhide_util.Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Stallhide_util.Json.List events ->
          let names_by_tid = Hashtbl.create 4 in
          let tids = Hashtbl.create 4 in
          List.iter
            (fun e ->
              match e with
              | Stallhide_util.Json.Obj f -> (
                  (match List.assoc_opt "tid" f with
                  | Some (Stallhide_util.Json.Int tid) -> Hashtbl.replace tids tid ()
                  | _ -> ());
                  match (List.assoc_opt "name" f, List.assoc_opt "args" f) with
                  | Some (Stallhide_util.Json.String "thread_name"), Some (Stallhide_util.Json.Obj args)
                    -> (
                      match (List.assoc_opt "name" args, List.assoc_opt "tid" f) with
                      | Some (Stallhide_util.Json.String track), Some (Stallhide_util.Json.Int tid)
                        ->
                          Hashtbl.replace names_by_tid tid track
                      | _ -> ())
                  | _ -> ())
              | _ -> ())
            events;
          Alcotest.(check (option string)) "track 0 named" (Some "core0")
            (Hashtbl.find_opt names_by_tid 0);
          Alcotest.(check (option string)) "track 1 named" (Some "core1")
            (Hashtbl.find_opt names_by_tid 1);
          Alcotest.(check (list int)) "only two lanes" [ 0; 1 ]
            (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tids []))
      | _ -> Alcotest.fail "traceEvents is not a list")
  | _ -> Alcotest.fail "trace is not an object"

(* --- Machine: determinism and stealing --- *)

let small_params =
  {
    Harness.default_params with
    Harness.cores = 4;
    requests_per_core = 12;
    scav_per_core = 3;
    scav_tuples = 60;
    interarrival = 2000;
  }

let fingerprint (r : Harness.run) =
  let res = r.Harness.result in
  ( Array.to_list
      (Array.map
         (fun (c : Machine.core_result) ->
           ( c.Machine.cycles,
             c.Machine.stats.Core_sched.dispatches,
             c.Machine.stats.Core_sched.steals,
             c.Machine.stats.Core_sched.scav_dispatches ))
         res.Machine.per_core),
    ( res.Machine.cycles,
      res.Machine.completed,
      res.Machine.steals,
      res.Machine.l3.Shared_l3.admitted,
      res.Machine.l3.Shared_l3.invalidations,
      res.Machine.summary.Latency.p99 ) )

(* Rerun determinism across core counts, including the steal path:
   the per-core steal counts are part of the fingerprint, so the check
   only bites if some run stole. *)
let test_machine_determinism () =
  let stole = ref false in
  List.iter
    (fun cores ->
      let p = { small_params with Harness.cores } in
      let a = Harness.run p and b = Harness.run p in
      Alcotest.(check bool)
        (Printf.sprintf "cores=%d: bit-identical rerun" cores)
        true
        (fingerprint a = fingerprint b);
      if a.Harness.result.Machine.steals > 0 then stole := true)
    [ 2; 4; 8 ];
  Alcotest.(check bool) "some run stole" true !stole;
  let a = Harness.run small_params in
  let c = Harness.run { small_params with Harness.seed = 43 } in
  Alcotest.(check bool) "seed actually matters" true (fingerprint a <> fingerprint c)

let test_machine_completes () =
  let r = Harness.run small_params in
  let res = r.Harness.result in
  Alcotest.(check int) "all requests served" (12 * 4) res.Machine.completed;
  Alcotest.(check int) "no faults" 0 res.Machine.faulted;
  Alcotest.(check int) "verifier-clean" 0 (r.Harness.verify_errors + r.Harness.verify_warnings)

let test_steal_correctness () =
  (* batch work is enqueued on core 0 only (scav_home_cores = 1): the
     other cores must steal to hide their primaries' stalls *)
  let r = Harness.run small_params in
  let res = r.Harness.result in
  Alcotest.(check bool) "steals happened" true (res.Machine.steals > 0);
  Alcotest.(check int) "every steal is one donation" res.Machine.steals res.Machine.donations;
  (* a scavenger — stolen or not — executes on exactly one core: its
     dispatch spans appear in exactly one core's stream *)
  let total = small_params.Harness.requests_per_core * small_params.Harness.cores in
  let cores_running = Hashtbl.create 16 in
  Array.iter
    (fun (c : Machine.core_result) ->
      Stallhide_obs.Stream.iter
        (function
          | Stallhide_obs.Event.Dispatch { ctx; _ } when ctx >= total ->
              let seen =
                match Hashtbl.find_opt cores_running ctx with Some s -> s | None -> []
              in
              if not (List.mem c.Machine.core_id seen) then
                Hashtbl.replace cores_running ctx (c.Machine.core_id :: seen)
          | _ -> ())
        c.Machine.stream)
    res.Machine.per_core;
  Alcotest.(check bool) "some scavengers ran" true (Hashtbl.length cores_running > 0);
  Hashtbl.iter
    (fun ctx cores ->
      Alcotest.(check int)
        (Printf.sprintf "scavenger %d runs on exactly one core" ctx)
        1 (List.length cores))
    cores_running;
  (* at least one scavenger ran away from home (core 0) *)
  let migrated =
    Hashtbl.fold (fun _ cores acc -> acc || List.exists (fun c -> c <> 0) cores)
      cores_running false
  in
  Alcotest.(check bool) "a stolen scavenger ran remotely" true migrated

(* An untraced machine records nothing — no dispatch, span or steal
   events — and serves the same run as a traced one, per-core steal
   counts included. *)
let test_untraced_streams_empty () =
  let traced = Harness.run small_params in
  let r = Harness.run { small_params with Harness.trace = false } in
  let res = r.Harness.result in
  Alcotest.(check bool) "steals happened" true (res.Machine.steals > 0);
  Alcotest.(check bool) "same run as traced" true (fingerprint traced = fingerprint r);
  Array.iter
    (fun (c : Machine.core_result) ->
      Alcotest.(check int)
        (Printf.sprintf "core %d stream empty" c.Machine.core_id)
        0
        (Stallhide_obs.Stream.length c.Machine.stream
        + Stallhide_obs.Stream.dropped c.Machine.stream))
    res.Machine.per_core

(* A traced machine runs its engines on the fast loop, which writes the
   same events into each core's stream as the reference interpreter,
   and tracing changes no result. *)
let test_traced_engine_paths () =
  let fast = Harness.run { small_params with Harness.engine_fast = true } in
  let reference = Harness.run { small_params with Harness.engine_fast = false } in
  let untraced = Harness.run { small_params with Harness.trace = false } in
  let sojourns (r : Harness.run) =
    Array.map
      (fun (c : Machine.core_result) -> c.Machine.sojourns)
      r.Harness.result.Machine.per_core
  in
  List.iter
    (fun (arm, r) ->
      Alcotest.(check bool) (arm ^ ": same run as untraced") true
        (fingerprint r = fingerprint untraced);
      Alcotest.(check bool) (arm ^ ": same sojourns as untraced") true
        (sojourns r = sojourns untraced))
    [ ("fast", fast); ("reference", reference) ];
  let registry s =
    Stallhide_util.Json.to_string
      (Stallhide_obs.Registry.to_json (Stallhide_obs.Stream.registry s))
  in
  Array.iter2
    (fun (cf : Machine.core_result) (cr : Machine.core_result) ->
      let p = Printf.sprintf "core %d " cf.Machine.core_id in
      let ef = Stallhide_obs.Stream.events cf.Machine.stream in
      Alcotest.(check bool) (p ^ "recorded engine events") true
        (List.exists
           (function Stallhide_obs.Event.Cache_access _ -> true | _ -> false)
           ef);
      Alcotest.(check bool) (p ^ "events fast = reference") true
        (ef = Stallhide_obs.Stream.events cr.Machine.stream);
      Alcotest.(check string) (p ^ "registry fast = reference")
        (registry cr.Machine.stream) (registry cf.Machine.stream))
    fast.Harness.result.Machine.per_core reference.Harness.result.Machine.per_core

let test_no_steal_means_none () =
  let r = Harness.run { small_params with Harness.steal = false } in
  Alcotest.(check int) "no steals when disabled" 0 r.Harness.result.Machine.steals;
  Alcotest.(check int) "still serves everything" (12 * 4) r.Harness.result.Machine.completed

let test_machine_validation () =
  let mem = Address_space.create ~bytes:65536 in
  (match
     Machine.run
       ~config:{ Machine.default_config with Machine.cores = 0 }
       ~policy:Dispatch.Jbsq ~mem ~requests:[] ~scavengers:[||] ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cores = 0 accepted");
  match
    Machine.run ~policy:Dispatch.Jbsq ~mem ~requests:[] ~scavengers:[| []; [] |] ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "scavenger arity mismatch accepted"

let () =
  Alcotest.run "smp"
    [
      ( "shared-l3",
        [
          Alcotest.test_case "windowed admission" `Quick test_l3_admission;
          Alcotest.test_case "unlimited budget" `Quick test_l3_unlimited;
          Alcotest.test_case "cross-core invalidation" `Quick test_l3_invalidation;
        ] );
      ( "latency-merge",
        [
          Alcotest.test_case "pooled moments and percentiles" `Quick test_latency_merge;
          Alcotest.test_case "identical shards exact" `Quick test_latency_merge_identical;
          Alcotest.test_case "empty and singleton merges" `Quick test_latency_merge_edges;
        ] );
      ( "registry",
        [
          Alcotest.test_case "core namespaces" `Quick test_registry_namespace;
          Alcotest.test_case "namespace collisions" `Quick test_registry_namespace_collision;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "key-hash home" `Quick test_dispatch_home;
          Alcotest.test_case "policy choice" `Quick test_dispatch_choose;
        ] );
      ("perfetto", [ Alcotest.test_case "one track per core" `Quick test_perfetto_tracks ]);
      ( "machine",
        [
          Alcotest.test_case "deterministic" `Quick test_machine_determinism;
          Alcotest.test_case "serves all requests" `Quick test_machine_completes;
          Alcotest.test_case "steal correctness" `Quick test_steal_correctness;
          Alcotest.test_case "no-steal runs clean" `Quick test_no_steal_means_none;
          Alcotest.test_case "untraced streams empty" `Quick test_untraced_streams_empty;
          Alcotest.test_case "traced fast = reference" `Quick test_traced_engine_paths;
          Alcotest.test_case "config validation" `Quick test_machine_validation;
        ] );
    ]
