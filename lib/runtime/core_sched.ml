open Stallhide_isa
open Stallhide_cpu
open Stallhide_mem

type config = {
  engine : Engine.config;
  switch : Switch_cost.t;
  steal_budget : int;
  steal_cost : int;
}

let default_config =
  {
    engine = Engine.default_config;
    switch = Switch_cost.coroutine;
    steal_budget = 1;
    steal_cost = 24;
  }

type watchdog = { bound : int; strikes : int; backoff : int; quarantine_after : int }

let default_watchdog = { bound = 512; strikes = 2; backoff = 2048; quarantine_after = 2 }

type stats = {
  mutable dispatches : int;
  mutable scav_dispatches : int;
  mutable switches : int;
  mutable switch_cycles : int;
  mutable steals : int;
  mutable donated : int;
  mutable escalations : int;
  mutable completions : int;
  mutable fault_count : int;
  mutable watchdog_strikes : int;
  mutable watchdog_demotions : int;
  mutable watchdog_quarantines : int;
}

(* A pool entry: the scavenger and its watchdog record (left at zero
   when no watchdog is installed). *)
type slot = {
  ctx : Context.t;
  mutable overruns : int;  (** strikes since the last demotion *)
  mutable demotions : int;
  mutable benched_until : int;  (** 0 when not benched *)
  mutable quarantined : bool;
}

type t = {
  cfg : config;
  watchdog : watchdog option;
  hier : Hierarchy.t;
  mem : Address_space.t;
  obs : Stallhide_obs.Stream.t option;
  clock : int ref;
  queue : Context.t Queue.t;
  mutable current : Context.t option;
  mutable pool : slot array;
  mutable rr : int;
  mutable steal_source : (unit -> Context.t option) option;
  mutable on_complete : (Context.t -> now:int -> unit) option;
  mutable faults : string list;
  mutable scav_enabled : bool;
  stats : stats;
}

let create ?(config = default_config) ?watchdog ?obs hier mem =
  {
    cfg = config;
    watchdog;
    hier;
    mem;
    obs;
    clock = ref 0;
    queue = Queue.create ();
    current = None;
    pool = [||];
    rr = 0;
    steal_source = None;
    on_complete = None;
    faults = [];
    scav_enabled = true;
    stats =
      {
        dispatches = 0;
        scav_dispatches = 0;
        switches = 0;
        switch_cycles = 0;
        steals = 0;
        donated = 0;
        escalations = 0;
        completions = 0;
        fault_count = 0;
        watchdog_strikes = 0;
        watchdog_demotions = 0;
        watchdog_quarantines = 0;
      };
  }

let config t = t.cfg

let clock t = !(t.clock)

let advance_clock t cycle = if cycle > !(t.clock) then t.clock := cycle

let stats t = t.stats

let hierarchy t = t.hier

let faults t = List.rev t.faults

let submit t ctx =
  ctx.Context.mode <- Context.Primary;
  Queue.push ctx t.queue

let queue_depth t = Queue.length t.queue + match t.current with Some _ -> 1 | None -> 0

let add_scavenger t ctx =
  ctx.Context.mode <- Context.Scavenger;
  t.pool <-
    Array.append t.pool
      [| { ctx; overruns = 0; demotions = 0; benched_until = 0; quarantined = false } |]

let cold s = Context.is_ready s.ctx && s.ctx.Context.started_at < 0

let stealable t = Array.fold_left (fun acc s -> if cold s then acc + 1 else acc) 0 t.pool

let donate t =
  let n = Array.length t.pool in
  let rec find i = if i = n then None else if cold t.pool.(i) then Some i else find (i + 1) in
  match find 0 with
  | None -> None
  | Some i ->
      let s = t.pool.(i) in
      t.pool <- Array.init (n - 1) (fun k -> if k < i then t.pool.(k) else t.pool.(k + 1));
      if t.rr > i then t.rr <- t.rr - 1;
      t.stats.donated <- t.stats.donated + 1;
      Some s.ctx

let set_steal_source t f = t.steal_source <- Some f

let set_on_complete t f = t.on_complete <- Some f

let set_scavengers_enabled t enabled = t.scav_enabled <- enabled

type outcome = Worked | Idle

let emit t event =
  match t.obs with Some s -> Stallhide_obs.Stream.record s event | None -> ()

let charge t ~from_ctx ~at_pc cost =
  t.stats.switches <- t.stats.switches + 1;
  t.stats.switch_cycles <- t.stats.switch_cycles + cost;
  (* Build the event under the match: [emit t (Context_switch {...})]
     would allocate the record on every switch even with no observer
     attached, and switches dominate the hot scheduling path. *)
  (match t.obs with
  | Some s ->
      Stallhide_obs.Stream.record s
        (Stallhide_obs.Event.Context_switch
           { from_ctx; to_ctx = -1; at_pc; cost; cycle = !(t.clock) })
  | None -> ());
  t.clock := !(t.clock) + cost

let fault t m =
  t.faults <- m :: t.faults;
  t.stats.fault_count <- t.stats.fault_count + 1

(* Install a scavenger pulled from another core, paying the steal
   toll; the cycles are spent inside the stall being hidden, so they
   land in switch accounting. *)
let accept_stolen t s =
  t.stats.steals <- t.stats.steals + 1;
  t.stats.switch_cycles <- t.stats.switch_cycles + t.cfg.steal_cost;
  t.clock := !(t.clock) + t.cfg.steal_cost;
  add_scavenger t s

let try_steal t =
  match t.steal_source with
  | None -> false
  | Some f -> (
      match f () with
      | None -> false
      | Some s ->
          accept_stolen t s;
          true)

let watchdog_event t s action =
  emit t (Stallhide_obs.Event.Watchdog { ctx = s.ctx.Context.id; action; cycle = !(t.clock) })

(* Whether the watchdog lets [s] run now; an expired bench readmits it. *)
let admissible t s =
  match t.watchdog with
  | None -> true
  | Some _ ->
      if s.quarantined || s.benched_until > !(t.clock) then false
      else begin
        if s.benched_until > 0 then begin
          s.benched_until <- 0;
          watchdog_event t s Stallhide_obs.Event.Readmit
        end;
        true
      end

(* First ready, admissible scavenger at or after the cursor; the cursor
   moves past it (round-robin rotation). *)
let next_scavenger t =
  let n = Array.length t.pool in
  let rec loop k =
    if k = n then None
    else
      let j = (t.rr + k) mod n in
      let s = t.pool.(j) in
      if Context.is_ready s.ctx && admissible t s then begin
        t.rr <- (j + 1) mod n;
        Some s
      end
      else loop (k + 1)
  in
  loop 0

(* The strike check: a dispatch past [bound] cycles earns a strike;
   [strikes] strikes demote the scavenger for [backoff] cycles
   (doubling per demotion); the [quarantine_after]-th demotion is
   permanent. *)
let check_overrun t s ~elapsed =
  match t.watchdog with
  | Some w when elapsed > w.bound ->
      t.stats.watchdog_strikes <- t.stats.watchdog_strikes + 1;
      watchdog_event t s Stallhide_obs.Event.Strike;
      s.overruns <- s.overruns + 1;
      if s.overruns >= w.strikes then begin
        s.overruns <- 0;
        let nth = s.demotions in
        s.demotions <- nth + 1;
        if s.demotions >= w.quarantine_after then begin
          s.quarantined <- true;
          t.stats.watchdog_quarantines <- t.stats.watchdog_quarantines + 1;
          watchdog_event t s Stallhide_obs.Event.Quarantine
        end
        else begin
          s.benched_until <- !(t.clock) + (w.backoff lsl min nth 20);
          t.stats.watchdog_demotions <- t.stats.watchdog_demotions + 1;
          watchdog_event t s Stallhide_obs.Event.Demote
        end
      end
  | _ -> ()

let run_slice t ~deadline ctx =
  Scheduler.traced ?obs:t.obs t.cfg.engine t.hier t.mem ~clock:t.clock ~deadline ctx

(* One scavenger slice, counted and checked by the watchdog. *)
let dispatch_scavenger t ~deadline s =
  t.stats.scav_dispatches <- t.stats.scav_dispatches + 1;
  let start = !(t.clock) in
  let outcome = run_slice t ~deadline s.ctx in
  check_overrun t s ~elapsed:(!(t.clock) - start);
  outcome

(* Fill the current primary's stall: scavenger slices until a timely
   scavenger-phase yield, escalating past ones that hit their own
   misses; steal when the local pool runs dry. *)
let hide t ~deadline =
  let steals_left = ref t.cfg.steal_budget in
  let rec go budget =
    if budget = 0 || !(t.clock) >= deadline then ()
    else
      match next_scavenger t with
      | None -> if !steals_left > 0 && try_steal t then begin decr steals_left; go budget end
      | Some s -> (
          let c = s.ctx in
          match dispatch_scavenger t ~deadline s with
          | Engine.Yielded (Instr.Scavenger, pc) ->
              charge t ~from_ctx:c.Context.id ~at_pc:pc
                (Switch_cost.at_site t.cfg.switch c.Context.program pc)
          | Engine.Yielded (Instr.Primary, pc) ->
              t.stats.escalations <- t.stats.escalations + 1;
              emit t
                (Stallhide_obs.Event.Scavenger_escalation
                   { ctx = c.Context.id; pc; cycle = !(t.clock) });
              charge t ~from_ctx:c.Context.id ~at_pc:pc
                (Switch_cost.at_site t.cfg.switch c.Context.program pc);
              go (budget - 1)
          | Engine.Halted ->
              charge t ~from_ctx:c.Context.id ~at_pc:(-1) t.cfg.switch.Switch_cost.base;
              go (budget - 1)
          | Engine.Out_of_budget -> ()
          | Engine.Fault m ->
              fault t m;
              go (budget - 1))
  in
  if t.scav_enabled then go (2 * max 1 (Array.length t.pool))

let quiescent t = t.current = None && Queue.is_empty t.queue

let step t ~deadline =
  if !(t.clock) >= deadline then Idle
  else begin
    (match t.current with
    | None -> (
        match Queue.take_opt t.queue with Some c -> t.current <- Some c | None -> ())
    | Some _ -> ());
    match t.current with
    | Some p -> (
        t.stats.dispatches <- t.stats.dispatches + 1;
        match run_slice t ~deadline p with
        | Engine.Yielded (_, pc) ->
            charge t ~from_ctx:p.Context.id ~at_pc:pc
              (Switch_cost.at_site t.cfg.switch p.Context.program pc);
            hide t ~deadline;
            Worked
        | Engine.Halted ->
            t.stats.completions <- t.stats.completions + 1;
            (match t.on_complete with Some f -> f p ~now:!(t.clock) | None -> ());
            t.current <- None;
            Worked
        | Engine.Out_of_budget ->
            (* deadline hit mid-request: resume on the next step *)
            Worked
        | Engine.Fault m ->
            fault t m;
            t.current <- None;
            Worked)
    | None when not t.scav_enabled -> Idle
    | None -> (
        (* Batch-only period: one scavenger slice. *)
        match next_scavenger t with
        | Some s -> (
            match dispatch_scavenger t ~deadline s with
            | Engine.Yielded (_, pc) ->
                charge t ~from_ctx:s.ctx.Context.id ~at_pc:pc
                  (Switch_cost.at_site t.cfg.switch s.ctx.Context.program pc);
                Worked
            | Engine.Halted | Engine.Out_of_budget -> Worked
            | Engine.Fault m ->
                fault t m;
                Worked)
        | None -> if try_steal t then Worked else Idle)
  end
