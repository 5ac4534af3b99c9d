(** Cycle-level in-order execution engine.

    The engine interprets one context at a time against a shared clock,
    memory image and cache hierarchy, firing {!Events} hooks and
    writing its events into the hooks' {!Event_log}s as instructions
    retire. Control returns to the caller (the scheduler)
    at yields, halts, faults, or when the clock reaches a deadline.

    Two knobs change the timing model without changing semantics:
    - [ooo_window] — cycles of each memory stall hidden by out-of-order
      overlap with independent work (the Figure-1 OoO model);
    - [load_block_threshold] — when set, a load whose stall exceeds the
      threshold does not stall the pipeline but *blocks the context*
      until the data arrives ({!step} returns [Blocked_until]); the SMT
      model runs other hardware contexts in the gap. *)

open Stallhide_isa
open Stallhide_mem

type config = {
  hooks : Events.t;
  cond_check_cost : int;  (** cost of an untaken conditional yield (default 1) *)
  ooo_window : int;  (** default 0 (in-order) *)
  load_block_threshold : int option;  (** default [None] (loads stall) *)
  stall_shape : (pc:int -> stall:int -> int) option;
      (** default [None]. When set, rewrites the raw memory/accelerator
          stall charged at [pc] *before* OoO hiding: the causal layer
          uses it both to zero the stall at one yield site's covered
          loads (a literal Coz virtual speedup) and to inflate one site
          as injected ground truth. Cache state, residency checks and
          control flow are unaffected — only the cycles charged move.
          Negative returns are clamped to 0. *)
  fast : bool;
      (** default [true]. Allow {!run} to take the decoded-µop fast
          path — a zero-allocation-per-cycle loop over {!Uop} arrays —
          whenever the hooks are closure-free ({!Events.closure_free}:
          no callback but {!Events.nop}'s; event logs allowed, so a
          stream's hooks qualify) and no [stall_shape] is armed.
          Architectural results, and the events written into the hooks'
          {!Event_log}s, are bit-identical to the reference interpreter
          ([test_engine_diff] is the gate). Op accounting needs no
          hooks: both paths run {!Context.opmark} on every retired
          [Opmark]. Set [false] to force the reference path, e.g. as the
          baseline arm of the C25 speed bench. *)
}

val default_config : config

type stop =
  | Halted
  | Yielded of Instr.yield_kind * int  (** kind and pc of the yield instruction *)
  | Out_of_budget
  | Fault of string

type step_result = Normal | Blocked_until of int | Stop of stop

(** The accelerator's deterministic transform ([Accel_issue] computes
    [accel_transform mem\[rs+disp\]]); exposed so tests and workload
    oracles can recompute results host-side. *)
val accel_transform : int -> int

(** Execute exactly one instruction of [ctx], advancing [clock] by its
    cost. This is the resumable interface the SMP machine interleaves:
    each core owns its own [clock] and contexts, so N engines can be
    stepped against a shared L3 in any deterministic order. *)
val step :
  config -> Hierarchy.t -> Address_space.t -> clock:int ref -> Context.t -> step_result

(** Run [ctx] until it yields, halts, faults, or [clock] reaches
    [deadline]. With [load_block_threshold] set, blocked periods are
    simply waited out (single-context fallback). Dispatches to the
    decoded-µop fast loop when {!fast_engaged} holds, else to
    {!run_reference}. *)
val run :
  config ->
  Hierarchy.t ->
  Address_space.t ->
  clock:int ref ->
  ?deadline:int ->
  Context.t ->
  stop

(** The original variant-matching interpreter, kept reachable as the
    differential-test reference arm regardless of [config.fast]. *)
val run_reference :
  config ->
  Hierarchy.t ->
  Address_space.t ->
  clock:int ref ->
  ?deadline:int ->
  Context.t ->
  stop

(** Would {!run} take the fast path under this config? *)
val fast_engaged : config -> bool

val pp_stop : Format.formatter -> stop -> unit
