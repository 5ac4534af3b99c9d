(* Workload [cluster-faults]: C23 with 4 machines x 4 cores behind P2c,
   open-loop clients at 70% of measured capacity, a crash (machine 0,
   mid-trace, restarting after a quarter-trace outage) plus a 6x slow
   node (machine 1), and a defense calibrated on the fault-free run.
   Measuring capacity and calibrating are set-up. Every machine is
   driven through [Machine.Live] with tracing on, as the cluster
   harness ships it. Modelled caches start empty.

   [setup] repeats what [Cluster.Harness.run] does before
   [Cluster.run], one public call at a time; [check_one_shot] proves
   the split equal to [Cluster.Harness.run]. *)

open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
module CH = Stallhide_cluster.Harness
module Cl = Stallhide_cluster.Cluster
module F = Stallhide_faults.Faults
module M = Stallhide_smp.Machine
module Json = Stallhide_util.Json

let machines = 4

let cores = 4

let requests = 1536

let load = 0.70

let mix (p : CH.params) =
  let last_send = List.fold_left (fun acc (s : Cl.spec) -> max acc s.Cl.send) 0 (CH.trace p) in
  [ F.Crash { machine = 0; at = 50; percent = true; down = last_send / 4 }; F.Slownode { machine = 1; mult = 6 } ]

(* Capacity and calibration, as bench C23 does them: the offered rate
   is [load] x the saturated goodput, the defense is tuned on the
   fault-free undefended run at that rate. *)
let calibrated ~seed =
  let base = { CH.default_params with CH.machines; cores; requests; seed } in
  let cap = Span.with_ "cluster.calibrate" (fun () -> CH.run { base with CH.interarrival = 1 }) in
  let gap = 1000.0 /. (load *. cap.CH.goodput_rpk) in
  let p = { base with CH.interarrival = int_of_float (gap *. float_of_int (machines * cores)) } in
  let defense, slo = Span.with_ "cluster.calibrate" (fun () -> CH.calibrate p) in
  { p with CH.slo_deadline = slo; faults = mix p; defense = Some defense }

type inst = {
  p : CH.params;
  node : machine:int -> restart:int -> Cl.node_impl;
  trace : Cl.spec list;
  ctxs : Context.t list ref;  (** every context any replica incarnation made *)
  last : Cl.result option ref;
  setup_counts : (string * float) list;
  capture : Outcome.capture;
}

let config_of (p : CH.params) =
  {
    Cl.machines = p.CH.machines;
    policy = p.CH.policy;
    lb = p.CH.lb;
    net = p.CH.net;
    defense = p.CH.defense;
    slo_deadline = p.CH.slo_deadline;
    seed = p.CH.seed;
    faults = p.CH.faults;
    horizon = p.CH.horizon;
  }

(* Machine 2 (neither crashed nor slowed) serves its requests again on
   a fresh incarnation, stepped from here so each [Live.step] is
   timed. *)
let replay factory (p : CH.params) (r : Cl.result) =
  let served =
    match r.Cl.nodes.(2).Cl.result with Some m -> m.M.requests | None -> [||]
  in
  let n = factory ~machine:2 ~restart:0 in
  let live =
    M.Live.create ~config:n.Cl.config ~policy:p.CH.policy ~mem:n.Cl.mem ~scavengers:n.Cl.scavengers ()
  in
  Array.iter
    (fun (q : M.request) ->
      M.Live.submit live
        (M.request ~rid:q.M.rid ~key:q.M.key ~home:q.M.home ~arrival:q.M.arrival
           (n.Cl.make_ctx ~rid:q.M.rid ~attempt:0)))
    served;
  let steps = ref 0 and ns = ref 0 in
  while M.Live.clock live < n.Cl.config.M.max_cycles && not (M.Live.quiescent live) do
    let t0 = Span.now_ns () in
    ignore (M.Live.step live);
    ns := !ns + (Span.now_ns () - t0);
    incr steps
  done;
  (!steps, !ns, Array.length served)

let setup ~seed ~obs =
  let p = calibrated ~seed in
  let kv, scav =
    Split.twins ~seed:p.CH.seed ~table_slots:p.CH.table_slots ~service_compute:p.CH.service_compute
      ~scav_groups:p.CH.scav_groups ~scav_tuples:p.CH.scav_tuples ~scav_interval:p.CH.scav_interval
      ~mem:Memconfig.default
  in
  let factory, trace =
    Span.with_ "workloads.build" (fun () ->
        ( CH.node_factory ~kv_program:kv.Split.program ~scav_program:scav.Split.program p,
          CH.trace p ))
  in
  let ctxs = ref [] and last = ref None in
  (* Collect every incarnation's contexts. [obs] sets the machines'
     tracing, which the harness hard-codes on. *)
  let node ~machine ~restart =
    let n = factory ~machine ~restart in
    Array.iter (fun l -> ctxs := l @ !ctxs) n.Cl.scavengers;
    {
      n with
      Cl.config = { n.Cl.config with M.trace = obs };
      make_ctx =
        (fun ~rid ~attempt ->
          let c = n.Cl.make_ctx ~rid ~attempt in
          ctxs := c :: !ctxs;
          c);
    }
  in
  let spare = factory ~machine:0 ~restart:0 in
  let home0 =
    List.filter
      (fun (s : Cl.spec) -> Stallhide_sched.Dispatch.home ~shards:cores s.Cl.key = 0)
      trace
  in
  {
    p;
    node;
    trace;
    ctxs;
    last;
    setup_counts = Split.setup_counts [ kv; scav ];
    capture =
      {
        Outcome.programs = [ kv.Split.program; scav.Split.program ];
        image = spare.Cl.mem;
        memcfg = Memconfig.default;
        requests =
          (fun () -> List.map (fun (s : Cl.spec) -> spare.Cl.make_ctx ~rid:s.Cl.rid ~attempt:0) home0);
        scavengers = (fun () -> List.concat (Array.to_list (factory ~machine:0 ~restart:1).Cl.scavengers));
        live_replay = Some (fun () -> replay factory p (Option.get !last));
      };
  }

let fingerprint (r : Cl.result) =
  Json.Obj
    [
      ("cycles", Json.Int r.Cl.cycles);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.Cl.counters));
      ( "requests",
        Json.List
          (Array.to_list
             (Array.map
                (fun (q : Cl.rq) ->
                  Json.List
                    [ Json.Int q.Cl.done_at; Json.String (Cl.outcome_name q.Cl.outcome); Json.Int q.Cl.winner ])
                r.Cl.requests)) );
      ( "nodes",
        Json.List
          (Array.to_list
             (Array.map
                (fun (v : Cl.node_view) ->
                  match v.Cl.result with
                  | Some m -> Machine_result.fingerprint m
                  | None -> Json.Null)
                r.Cl.nodes)) );
    ]

let run inst =
  inst.ctxs := [];
  let r =
    Span.with_ "cluster.run" (fun () -> Cl.run (config_of inst.p) ~node:inst.node ~requests:inst.trace)
  in
  inst.last := Some r;
  if r.Cl.lost_acked <> 0 then failwith "cluster-faults: an acked request's context did not finish";
  let c k = Option.value ~default:0 (List.assoc_opt k r.Cl.counters) in
  let frac n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d in
  let results = Array.to_list r.Cl.nodes |> List.filter_map (fun (v : Cl.node_view) -> v.Cl.result) in
  {
    Outcome.fingerprint = fingerprint r;
    attempted = r.Cl.offered;
    completed = r.Cl.acked;
    dropped = r.Cl.expired + r.Cl.shed + r.Cl.unanswered;
    instructions = List.fold_left (fun a (x : Context.t) -> a + x.Context.instructions) 0 !(inst.ctxs);
    cycles = r.Cl.cycles;
    latency = r.Cl.split.Latency.full;
    counts =
      inst.setup_counts
      (* the last incarnation of each machine *)
      @ Machine_result.counts results
      @ [
          ("cluster.hedge_useful_frac", frac (c "client.hedge_wins") (c "client.hedges"));
          ("cluster.retries", float_of_int (c "client.retries"));
          ("net.dropped", float_of_int (c "net.req_lost" + c "net.resp_lost"));
          ("lb.quarantines", float_of_int (c "lb.quarantines"));
        ];
  }

let check_one_shot ~seed (o : Outcome.t) =
  let r = CH.run (calibrated ~seed) in
  if fingerprint r.CH.result <> o.Outcome.fingerprint then
    failwith "cluster-faults: the timed split does not reproduce Cluster.Harness.run"
