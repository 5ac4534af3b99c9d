(* Workload [smp-kv]: the C19 sharded kv-server on 4 cores
   ([Smp.Harness] defaults: Interleaved sync, JBSQ with stealing, PGO
   placement, Zipf 1.1 keys, open-loop arrivals at the harness's
   per-core load), grown to [requests_per_core] requests per core and
   run with [trace = false], so the decoded-µop fast loop serves every
   request. Modelled caches start empty.

   [setup] repeats what [Smp.Harness.run] does before [Machine.run],
   one public call at a time, so set-up and serving are timed apart;
   [check_one_shot] proves the split equal to [Smp.Harness.run]. *)

open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_sched
open Stallhide_workloads
module H = Stallhide_smp.Harness
module M = Stallhide_smp.Machine

let requests_per_core = 3072

(* 1 in [warmup] requests, the earliest, is left out of latency *)
let warmup = 10

let params ~seed ~obs =
  { H.default_params with H.cores = 4; requests_per_core; seed; trace = obs }

type inst = {
  p : H.params;
  image : Address_space.t;
  requests : M.request list;
  scavengers : Context.t list array;
  config : M.config;
  setup_counts : (string * float) list;
  capture : Outcome.capture;
}

let setup ~seed ~obs =
  let p = params ~seed ~obs in
  let total = p.H.requests_per_core * p.H.cores in
  let trace, per_shard, image =
    Span.with_ "workloads.build" (fun () ->
        let st = Random.State.make [| p.H.seed; 0xC19 |] in
        let cdf = H.zipf_cdf ~universe:p.H.key_universe ~skew:p.H.skew in
        let gap = max 1 (p.H.interarrival / p.H.cores) in
        let t = ref 0 in
        let trace =
          Array.init total (fun rid ->
              let key = H.zipf_sample cdf st in
              let home = Dispatch.home ~shards:p.H.cores key in
              t := !t + (gap / 2) + Random.State.int st (max 1 gap);
              (rid, key, home, !t))
        in
        let per_shard = Array.make p.H.cores 0 in
        Array.iter (fun (_, _, home, _) -> per_shard.(home) <- per_shard.(home) + 1) trace;
        let line = 64 in
        let scav_lanes = p.H.scav_per_core * p.H.cores in
        let bytes =
          2
          * ((p.H.cores
             * ((p.H.table_slots * line) + (p.H.requests_per_core * p.H.cores * p.H.req_ops * 8) + 4096))
            + (scav_lanes * ((p.H.scav_tuples * 16) + (p.H.scav_groups * line) + 1024))
            + 65536)
        in
        (trace, per_shard, Address_space.create ~bytes))
  in
  let kv, scav =
    Split.twins ~seed:p.H.seed ~table_slots:p.H.table_slots ~service_compute:p.H.service_compute
      ~scav_groups:p.H.scav_groups ~scav_tuples:p.H.scav_tuples ~scav_interval:p.H.scav_interval
      ~mem:p.H.memcfg
  in
  Span.with_ "workloads.build" (fun () ->
      let shard_wl =
        Array.init p.H.cores (fun s ->
            if per_shard.(s) = 0 then None
            else
              Some
                (Workload.with_program
                   (Kv_server.make ~image ~lanes:per_shard.(s) ~table_slots:p.H.table_slots
                      ~requests:p.H.req_ops ~service_compute:p.H.service_compute
                      ~seed:(p.H.seed + 100 + s) ())
                   kv.Split.program))
      in
      let next_lane = Array.make p.H.cores 0 in
      let requests =
        Array.to_list
          (Array.map
             (fun (rid, key, home, arrival) ->
               let wl = Option.get shard_wl.(home) in
               let lane = next_lane.(home) in
               next_lane.(home) <- lane + 1;
               M.request ~rid ~key ~home ~arrival
                 (Workload.context wl ~lane ~id:rid ~mode:Context.Primary))
             trace)
      in
      let scav_lanes = p.H.scav_per_core * p.H.cores in
      let scav_wl =
        let wl =
          Workload.with_program
            (Group_by.make ~image ~lanes:scav_lanes ~groups:p.H.scav_groups ~tuples:p.H.scav_tuples
               ~seed:(p.H.seed + 3) ())
            scav.Split.program
        in
        (* share_scav_accs: every lane aggregates into lane 0's array *)
        let base0 = List.assoc Reg.r3 wl.Workload.lanes.(0) in
        {
          wl with
          Workload.lanes =
            Array.map
              (List.map (fun (r, v) -> if r = Reg.r3 then (r, base0) else (r, v)))
              wl.Workload.lanes;
        }
      in
      scav_wl.Workload.reset ();
      let homes = max 1 (min p.H.scav_home_cores p.H.cores) in
      let scavengers = Array.make p.H.cores [] in
      for k = scav_lanes - 1 downto 0 do
        let ctx = Workload.context scav_wl ~lane:k ~id:(total + k) ~mode:Context.Scavenger in
        scavengers.(k mod homes) <- ctx :: scavengers.(k mod homes)
      done;
      let config =
        {
          M.cores = p.H.cores;
          memcfg = p.H.memcfg;
          l3_window = p.H.l3_window;
          l3_budget = p.H.l3_budget;
          core =
            {
              Core_sched.engine = { Engine.default_config with Engine.fast = p.H.engine_fast };
              switch = Switch_cost.coroutine;
              steal_budget = p.H.steal_budget;
              steal_cost = p.H.steal_cost;
            };
          steal = p.H.steal;
          max_cycles = p.H.max_cycles;
          prepare_core = p.H.prepare_core;
          sync = p.H.sync;
          trace = p.H.trace;
        }
      in
      let wl0 = Option.get shard_wl.(Option.get (Array.find_index (( <> ) None) shard_wl)) in
      let capture =
        {
          Outcome.programs = [ kv.Split.program; scav.Split.program ];
          image;
          memcfg = p.H.memcfg;
          requests =
            (fun () ->
              List.init (Workload.lane_count wl0) (fun lane ->
                  Workload.context wl0 ~lane ~id:lane ~mode:Context.Primary));
          scavengers =
            (fun () ->
              List.init scav_lanes (fun lane ->
                  Workload.context scav_wl ~lane ~id:(total + lane) ~mode:Context.Scavenger));
          live_replay = None;
        }
      in
      {
        p;
        image;
        requests;
        scavengers;
        config;
        setup_counts = Split.setup_counts [ kv; scav ];
        capture;
      })

(* The serving loop of [Machine.run], driven step by step so each
   [Live.step] is counted and timed (traced run only). *)
let drive_live inst =
  let live =
    M.Live.create ~config:inst.config ~policy:inst.p.H.policy ~mem:inst.image
      ~scavengers:inst.scavengers ()
  in
  List.iter (M.Live.submit live) inst.requests;
  let a = Span.agg "smp.machine.step" in
  while M.Live.clock live < inst.config.M.max_cycles && not (M.Live.quiescent live) do
    let t0 = Span.now_ns () in
    ignore (M.Live.step live);
    a.Span.total_ns <- a.Span.total_ns + (Span.now_ns () - t0);
    a.Span.count <- a.Span.count + 1
  done;
  M.Live.finish live

let fingerprint = Machine_result.fingerprint

let outcome inst (r : M.result) =
  let instructions =
    List.fold_left (fun a q -> a + q.M.ctx.Context.instructions) 0 inst.requests
    + Array.fold_left
        (List.fold_left (fun a (c : Context.t) -> a + c.Context.instructions))
        0 inst.scavengers
  in
  let attempted = List.length inst.requests in
  let finished q = q.M.finished_at >= 0 in
  let unfinished = Array.fold_left (fun a q -> if finished q then a else a + 1) 0 r.M.requests in
  (* Latency leaves out the first [warmup] of requests by arrival: while
     the empty modelled caches fill, a queue builds whose length varies
     tenfold from seed to seed and would swamp p99. *)
  let steady = Array.sub r.M.requests (attempted / warmup) (attempted - (attempted / warmup)) in
  let answered =
    Array.to_list steady
    |> List.filter_map (fun q -> if finished q then Some (q.M.finished_at - q.M.arrival) else None)
  in
  let split =
    Latency.split ~censor:r.M.cycles ~dropped:(Array.length steady - List.length answered) answered
  in
  {
    Outcome.fingerprint = fingerprint r;
    attempted;
    completed = r.M.completed;
    dropped = unfinished;
    instructions;
    cycles = r.M.cycles;
    latency = split.Latency.full;
    counts = inst.setup_counts @ Machine_result.counts [ r ];
  }

let run inst =
  let r =
    Span.with_ "smp.machine.run" (fun () ->
        if !Span.enabled then drive_live inst
        else
          M.run ~config:inst.config ~policy:inst.p.H.policy ~mem:inst.image ~requests:inst.requests
            ~scavengers:inst.scavengers ())
  in
  outcome inst r

(* [Smp.Harness.run] on the same parameters must give the result the
   split gave. *)
let check_one_shot ~seed (o : Outcome.t) =
  let r = H.run (params ~seed ~obs:false) in
  if fingerprint r.H.result <> o.Outcome.fingerprint then
    failwith "smp-kv: the timed split does not reproduce Smp.Harness.run";
  if r.H.verify_errors <> 0 then failwith "smp-kv: Smp.Harness.run reports verifier errors"
