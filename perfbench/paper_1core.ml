(* Workload [paper-1core]: the paper's single-core pipeline over
   several lib/workloads programs — pointer-chase, hash-probe, btree and
   hash-join (reads), group-by and txn-oltp (stores and latches) — each
   run sequentially, then profile → instrument → verify → round-robin,
   then with static (analysis-only) placement; plus kv-server with
   group-by scavengers under dual-mode. Every run goes through
   [Baselines] with its Counters and Latency hooks, so the hooked
   reference engine does the work. Modelled caches start empty (every
   run builds a fresh hierarchy).

   [setup] makes the set-up calls one at a time; [check_one_shot]
   proves the split equal to [Baselines.run_pgo] and
   [Baselines.run_static]. *)

open Stallhide
open Stallhide_mem
open Stallhide_runtime
open Stallhide_workloads
module Json = Stallhide_util.Json

let lanes = 16

(* (name, builder); each program gets its own seed offset *)
let programs =
  [
    ("pointer-chase", fun ~seed -> Pointer_chase.make ~lanes ~nodes_per_lane:2048 ~hops:200 ~seed ());
    ("hash-probe", fun ~seed -> Hash_probe.make ~lanes ~table_slots:16384 ~ops:200 ~seed ());
    ("btree", fun ~seed -> Btree.make ~lanes ~keys:16384 ~ops:100 ~seed ());
    ("hash-join", fun ~seed -> Hash_join.make ~lanes ~build_rows:16384 ~ops:200 ~seed ());
    ("group-by", fun ~seed -> Group_by.make ~lanes ~groups:16384 ~tuples:200 ~seed ());
    ("txn-oltp", fun ~seed -> Stallhide_txn.Txn_oltp.workload ~lanes ~txns:40 ~seed ());
  ]

let kv_requests = 1200

let scav_interval = 150

let dual_parts ~seed =
  let image = Address_space.create ~bytes:(1 lsl 25) in
  let kv = Kv_server.make ~image ~requests:kv_requests ~service_compute:30 ~seed () in
  let scav = Group_by.make ~image ~lanes:8 ~groups:4096 ~tuples:1500 ~seed:(seed + 1) () in
  (kv, scav)

type prog = { w : Workload.t; pgo : Split.instrumented; static : Split.instrumented }

type inst = {
  progs : prog list;
  kv : Split.instrumented;
  scav : Split.instrumented;
  opts : Baselines.opts;
  hiers : Hierarchy.t list ref;  (** every hierarchy the runs build *)
  setup_counts : (string * float) list;
  capture : Outcome.capture;
}

let mem = Memconfig.default

let setup ~seed ~obs =
  let progs =
    List.mapi
      (fun i (_, make) ->
        let w = Span.with_ "workloads.build" (fun () -> make ~seed:(seed + (10 * i))) in
        let pgo = Split.pgo ~mem w in
        let static = Split.static ~mem w in
        { w; pgo; static })
      programs
  in
  let kv0, scav0 = Span.with_ "workloads.build" (fun () -> dual_parts ~seed:(seed + 100)) in
  let kv = Split.pgo ~scavenger_interval:scav_interval ~mem kv0 in
  let scav = Split.pgo ~scavenger_interval:scav_interval ~mem scav0 in
  let hiers = ref [] in
  let opts =
    {
      Baselines.default_opts with
      Baselines.obs = (if obs then Some (Stallhide_obs.Stream.create ()) else None);
      prepare_hier = (fun h -> hiers := h :: !hiers);
    }
  in
  let kvw = kv.Split.workload and scw = scav.Split.workload in
  {
    progs;
    kv;
    scav;
    opts;
    hiers;
    setup_counts =
      Split.setup_counts
        ([ kv; scav ] @ List.concat_map (fun p -> [ p.pgo; p.static ]) progs);
    capture =
      {
        Outcome.programs =
          List.concat_map (fun p -> [ p.w.Workload.program; p.pgo.Split.program; p.static.Split.program ]) progs
          @ [ kv.Split.program; scav.Split.program ];
        image = kvw.Workload.image;
        memcfg = mem;
        requests =
          (fun () ->
            List.init (Workload.lane_count kvw) (fun lane ->
                Workload.context kvw ~lane ~id:lane ~mode:Stallhide_cpu.Context.Primary));
        scavengers =
          (fun () ->
            List.init (Workload.lane_count scw) (fun lane ->
                Workload.context scw ~lane ~id:(1000 + lane) ~mode:Stallhide_cpu.Context.Scavenger));
        live_replay = None;
      };
  }

let metrics_json (m : Metrics.t) =
  Json.Obj
    [
      ("cycles", Json.Int m.Metrics.cycles);
      ("stall", Json.Int m.Metrics.stall);
      ("switch_cycles", Json.Int m.Metrics.switch_cycles);
      ("switches", Json.Int m.Metrics.switches);
      ("instructions", Json.Int m.Metrics.instructions);
      ("ops", Json.Int m.Metrics.ops);
      ("latency", match m.Metrics.latency with Some s -> Latency.summary_to_json s | None -> Json.Null);
    ]

let run inst =
  let opts = inst.opts in
  inst.hiers := [];
  let arm name f (w : Workload.t) =
    let m = Span.with_ name (fun () -> f w) in
    w.Workload.reset ();
    (m, Workload.total_ops w)
  in
  let arms =
    List.concat_map
      (fun p ->
        [
          arm "runtime.scheduler.sequential" (Baselines.run_sequential ~opts) p.w;
          arm "runtime.scheduler.round_robin" (Baselines.run_round_robin ~opts) p.pgo.Split.workload;
          arm "runtime.scheduler.round_robin" (Baselines.run_round_robin ~opts) p.static.Split.workload;
        ])
      inst.progs
  in
  let kvw = inst.kv.Split.workload and scw = inst.scav.Split.workload in
  let dual =
    Span.with_ "runtime.dual_mode.run" (fun () -> Baselines.run_dual ~opts ~primary:kvw ~scavengers:scw ())
  in
  let dual_attempted = kvw.Workload.ops_per_lane + Workload.total_ops scw in
  let all = (dual.Baselines.metrics, dual_attempted) :: arms in
  let sum f = List.fold_left (fun a (m, n) -> a + f m n) 0 all in
  let completed = sum (fun m _ -> m.Metrics.ops) in
  let attempted = sum (fun _ n -> n) in
  (* Every run's per-operation latency summary, merged count-weighted
     ([Latency.merge]): one short run's percentiles jump between
     discrete values from seed to seed, their weighted mean does not. *)
  let lat = Latency.merge (List.filter_map (fun (m, _) -> m.Metrics.latency) all) in
  {
    Outcome.fingerprint =
      Json.Obj
        [
          ("arms", Json.List (List.map (fun (m, _) -> metrics_json m) all));
          ("primary_done_at", Json.Int dual.Baselines.primary_done_at);
          ("primary_latency", Latency.summary_to_json (Option.value ~default:Latency.empty_summary dual.Baselines.primary_latency));
        ];
    attempted;
    completed;
    (* Baselines reports no failures: a faulted context shows up as
       operations missing from [completed], which the gate rejects *)
    dropped = 0;
    instructions = sum (fun m _ -> m.Metrics.instructions);
    cycles = sum (fun m _ -> m.Metrics.cycles);
    latency = lat;
    counts =
      inst.setup_counts @ Outcome.mem_counts (List.map Hierarchy.stats !(inst.hiers));
  }

(* [Baselines.run_pgo] / [run_static] on the same inputs must give the
   metrics the split gave. *)
let check_one_shot ~seed (o : Outcome.t) =
  let arms =
    match Json.member "arms" o.Outcome.fingerprint with
    | Some (Json.List l) -> Array.of_list l
    | _ -> failwith "paper-1core: no arms in fingerprint"
  in
  List.iteri
    (fun i (name, make) ->
      let pgo, _ = Baselines.run_pgo (make ~seed:(seed + (10 * i))) in
      let static, _ = Baselines.run_static (make ~seed:(seed + (10 * i))) in
      (* arm 0 is the dual run; each program then has seq, pgo, static *)
      if metrics_json pgo <> arms.(1 + (3 * i) + 1) || metrics_json static <> arms.(1 + (3 * i) + 2) then
        failwith ("paper-1core: the timed split does not reproduce Baselines for " ^ name))
    programs
