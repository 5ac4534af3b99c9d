(** Hardware event hooks.

    The execution engine fires these callbacks as instructions retire;
    the PMU library implements them (counters, PEBS-style sampling,
    LBR). This is the simulated equivalent of the performance-monitoring
    fabric the paper's profiling step relies on.

    Hooks may also carry {!Event_log}s, which the engine writes its
    load, stall, front-end stall, opmark and yield events into directly,
    with no callback. Hooks whose callbacks are all {!nop}'s are
    closure-free: the engine's decoded-µop fast path can run them. *)

open Stallhide_isa
open Stallhide_mem

type load_info = {
  ctx : int;  (** context id *)
  pc : int;
  addr : int;
  level : Hierarchy.level;
  stall : int;  (** stall cycles actually paid (after any OoO overlap) *)
  queue : int;
      (** of those, cycles queued at the shared-L3 port (contention);
          0 on single-core hierarchies *)
  cycle : int;
}

type t = {
  on_retire : ctx:int -> pc:int -> instr:Instr.t -> cycle:int -> unit;
  on_load : load_info -> unit;
  on_branch : ctx:int -> pc:int -> target:int -> taken:bool -> cycle:int -> unit;
  on_stall : ctx:int -> pc:int -> cycles:int -> cycle:int -> unit;
  on_frontend_stall : ctx:int -> pc:int -> cycles:int -> cycle:int -> unit;
  on_opmark : ctx:int -> pc:int -> cycle:int -> unit;
  on_yield : ctx:int -> pc:int -> kind:Instr.yield_kind -> fired:bool -> cycle:int -> unit;
      (** every yield-family instruction: [fired = false] when a
          conditional or scavenger-phase yield fell through (the check
          cycle was paid but the core was kept) *)
  logs : Event_log.t list;  (** logs the engine writes into itself *)
}

(** Hooks that do nothing. *)
val nop : t

(** Closure-free hooks that feed one log. *)
val of_log : Event_log.t -> t

(** Are all callbacks {!nop}'s (by physical equality)? Logs may be set. *)
val closure_free : t -> bool

(** [compose hs] fires every callback of every element, in order, and
    writes every element's logs. Closure-free elements contribute only
    their logs, so composing them with {!nop} or each other stays
    closure-free. *)
val compose : t list -> t
