open Stallhide_util
open Stallhide_mem
open Stallhide_cpu

(* Every event lives in one engine-format log ({!Event_log}): the
   engine writes kinds 0..4 itself, [record] encodes the rest here. *)
let k_switch = Event_log.first_free_kind

let k_escalation = k_switch + 1

let k_watchdog = k_switch + 2

let k_dispatch = k_switch + 3

let k_span_open = k_switch + 4

let k_span_close = k_switch + 5

let k_steal = k_switch + 6

type t = {
  log : Event_log.t;
  hooks : Events.t;
  registry : Registry.t;
  mutable counted : int;  (* retained records already counted into [registry] *)
  span_ids : (string, int) Hashtbl.t;  (* interned span names *)
  span_names : string Vec.t;
}

let action_code = function
  | Event.Strike -> 0
  | Event.Demote -> 1
  | Event.Quarantine -> 2
  | Event.Readmit -> 3

let action_of_code = function
  | 0 -> Event.Strike
  | 1 -> Event.Demote
  | 2 -> Event.Quarantine
  | _ -> Event.Readmit

let watchdog_series = function
  | Event.Strike -> "watchdog.strikes"
  | Event.Demote -> "watchdog.demotions"
  | Event.Quarantine -> "watchdog.quarantines"
  | Event.Readmit -> "watchdog.readmissions"

(* "load.<level>" by level code *)
let load_series = Array.init 4 (fun c -> "load." ^ Hierarchy.level_name (Hierarchy.level_of_code c))

(* Count one record, read straight from the log, into the registry. *)
let count r (ch : int array) o =
  let kind = ch.(o + Event_log.f_kind) and ctx = ch.(o + Event_log.f_ctx) in
  let a = ch.(o + Event_log.f_a) in
  let incr ?by name = Registry.incr ?by (Registry.counter r ~ctx name) in
  let observe name v = Registry.observe (Registry.histogram r ~ctx name) v in
  if kind = Event_log.k_cache_access then begin
    let stall = ch.(o + Event_log.f_c) and queue = ch.(o + Event_log.f_d) in
    incr load_series.(ch.(o + Event_log.f_b));
    if stall > 0 then observe "load.stall" stall;
    if queue > 0 then incr ~by:queue "load.queue_cycles"
  end
  else if kind = Event_log.k_stall then incr ~by:a "stall.cycles"
  else if kind = Event_log.k_frontend_stall then incr ~by:a "frontend_stall.cycles"
  else if kind = Event_log.k_op_retired then incr "ops"
  else if kind = Event_log.k_yield then
    incr (if ch.(o + Event_log.f_b) = 1 then "yield.fired" else "yield.skipped")
  else if kind = k_switch then begin
    incr "switch.count";
    observe "switch.cost" ch.(o + Event_log.f_b)
  end
  else if kind = k_escalation then incr "scavenger.escalations"
  else if kind = k_watchdog then incr (watchdog_series (action_of_code a))
  else if kind = k_dispatch then observe "dispatch.cycles" (a - ch.(o + Event_log.f_cycle))
  else if kind = k_span_open then incr "span.opened"
  else if kind = k_span_close then incr "span.closed"
  else incr "steal.migrations"

(* Count the retained records not counted yet. *)
let catch_up t =
  let n = Event_log.length t.log in
  if t.counted < n then begin
    Event_log.iter_from t.log t.counted (count t.registry);
    t.counted <- n
  end

let create ?(capacity = 1 lsl 18) () =
  let log = Event_log.create ~capacity in
  let t =
    {
      log;
      hooks = Events.of_log log;
      registry = Registry.create ();
      counted = 0;
      span_ids = Hashtbl.create 4;
      span_names = Vec.create ();
    }
  in
  (* A full log still counts every event: the retained ones first, then
     the one being dropped. *)
  Event_log.set_on_drop log (fun () ->
      catch_up t;
      count t.registry (Event_log.spill log) 0);
  t

let span_id t name =
  match Hashtbl.find_opt t.span_ids name with
  | Some i -> i
  | None ->
      let i = Vec.length t.span_names in
      Vec.push t.span_names name;
      Hashtbl.add t.span_ids name i;
      i

let push t kind ctx cycle pc a b = Event_log.push t.log kind ctx cycle pc a b 0 0

let record t event =
  match event with
  | Event.Yield { ctx; pc; kind; fired; cycle } ->
      push t Event_log.k_yield ctx cycle pc (Event_log.yield_code kind) (Bool.to_int fired)
  | Event.Cache_access { ctx; pc; addr; level; stall; queue; cycle } ->
      Event_log.push t.log Event_log.k_cache_access ctx cycle pc addr
        (Hierarchy.level_code level) stall queue
  | Event.Stall { ctx; pc; cycles; cycle } -> push t Event_log.k_stall ctx cycle pc cycles 0
  | Event.Frontend_stall { ctx; pc; cycles; cycle } ->
      push t Event_log.k_frontend_stall ctx cycle pc cycles 0
  | Event.Op_retired { ctx; pc; cycle } -> push t Event_log.k_op_retired ctx cycle pc 0 0
  | Event.Context_switch { from_ctx; to_ctx; at_pc; cost; cycle } ->
      push t k_switch from_ctx cycle at_pc to_ctx cost
  | Event.Scavenger_escalation { ctx; pc; cycle } -> push t k_escalation ctx cycle pc 0 0
  | Event.Watchdog { ctx; action; cycle } -> push t k_watchdog ctx cycle 0 (action_code action) 0
  | Event.Dispatch { ctx; start; stop } -> push t k_dispatch ctx start 0 stop 0
  | Event.Span_open { ctx; name; cycle } -> push t k_span_open ctx cycle 0 (span_id t name) 0
  | Event.Span_close { ctx; name; cycle } -> push t k_span_close ctx cycle 0 (span_id t name) 0
  | Event.Steal { ctx; from_core; to_core; cycle } -> push t k_steal ctx cycle 0 from_core to_core

let decode t (ch : int array) o =
  let kind = ch.(o + Event_log.f_kind) in
  let ctx = ch.(o + Event_log.f_ctx) and cycle = ch.(o + Event_log.f_cycle) in
  let pc = ch.(o + Event_log.f_pc) in
  let a = ch.(o + Event_log.f_a) and b = ch.(o + Event_log.f_b) in
  if kind = Event_log.k_cache_access then
    Event.Cache_access
      {
        ctx;
        pc;
        addr = a;
        level = Hierarchy.level_of_code b;
        stall = ch.(o + Event_log.f_c);
        queue = ch.(o + Event_log.f_d);
        cycle;
      }
  else if kind = Event_log.k_stall then Event.Stall { ctx; pc; cycles = a; cycle }
  else if kind = Event_log.k_frontend_stall then Event.Frontend_stall { ctx; pc; cycles = a; cycle }
  else if kind = Event_log.k_op_retired then Event.Op_retired { ctx; pc; cycle }
  else if kind = Event_log.k_yield then
    Event.Yield { ctx; pc; kind = Event_log.yield_of_code a; fired = b = 1; cycle }
  else if kind = k_switch then
    Event.Context_switch { from_ctx = ctx; to_ctx = a; at_pc = pc; cost = b; cycle }
  else if kind = k_escalation then Event.Scavenger_escalation { ctx; pc; cycle }
  else if kind = k_watchdog then Event.Watchdog { ctx; action = action_of_code a; cycle }
  else if kind = k_dispatch then Event.Dispatch { ctx; start = cycle; stop = a }
  else if kind = k_span_open then Event.Span_open { ctx; name = Vec.get t.span_names a; cycle }
  else if kind = k_span_close then Event.Span_close { ctx; name = Vec.get t.span_names a; cycle }
  else Event.Steal { ctx; from_core = a; to_core = b; cycle }

let iter f t = Event_log.iter_from t.log 0 (fun ch o -> f (decode t ch o))

let events t =
  let acc = ref [] in
  iter (fun e -> acc := e :: !acc) t;
  List.rev !acc

let length t = Event_log.length t.log

let dropped t = Event_log.dropped t.log

let reset t =
  Event_log.clear t.log;
  t.counted <- 0;
  Registry.reset t.registry

let registry t =
  catch_up t;
  t.registry

let hooks t = t.hooks

let fold_tbl t select =
  let tbl = Hashtbl.create 64 in
  iter
    (fun e ->
      match select e with
      | Some (key, v) ->
          Hashtbl.replace tbl key (v + Option.value ~default:0 (Hashtbl.find_opt tbl key))
      | None -> ())
    t;
  tbl

let stall_by_pc ?(map = fun pc -> pc) t =
  fold_tbl t (function
    | Event.Stall { pc; cycles; _ } -> Some (map pc, cycles)
    | _ -> None)

let execs_by_pc ?(map = fun pc -> pc) t =
  fold_tbl t (function Event.Cache_access { pc; _ } -> Some (map pc, 1) | _ -> None)

let yields_by_pc t =
  let tbl = Hashtbl.create 32 in
  iter
    (fun e ->
      match e with
      | Event.Yield { pc; fired; _ } ->
          let f, s = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl pc) in
          Hashtbl.replace tbl pc (if fired then (f + 1, s) else (f, s + 1))
      | _ -> ())
    t;
  tbl

let switch_cycles_by_pc t =
  fold_tbl t (function
    | Event.Context_switch { at_pc; cost; _ } when at_pc >= 0 -> Some (at_pc, cost)
    | _ -> None)

let spans t =
  List.filter_map
    (function Event.Dispatch { ctx; start; stop } -> Some (ctx, start, stop) | _ -> None)
    (events t)
