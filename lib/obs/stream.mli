(** The trace-event stream: a bounded log of {!Event.t} plus a
    {!Registry.t} of counts over them.

    Events live in an engine-format {!Stallhide_cpu.Event_log} (fixed
    stride int records in fixed-size chunks). The engine writes its
    load, stall, front-end stall, opmark and yield events there itself,
    through {!hooks}, on the decoded-µop fast path too; {!record}
    encodes scheduler and machine events into the same log (span names
    are interned). {!events} and {!iter} decode records back into
    {!Event.t}, in recording order.

    The registry is counted lazily: {!registry} first counts the
    events recorded since the last read. Once the log is full, later
    events are counted in {!dropped} rather than kept, and each is
    counted into the registry as it arrives, after the retained ones,
    so the registry always counts every event — only the raw event log
    is bounded.

    Zero-cost discipline: nothing in the simulator ever *requires* a
    stream. Engine hooks default to no-ops, schedulers take
    [?obs:Stream.t option] defaulting to [None], and no hook ever
    touches the simulated clock — so cycle counts are identical with
    telemetry on or off (asserted by the obs tests). *)

type t

(** [create ?capacity ()] — default capacity [1 lsl 18] events. *)
val create : ?capacity:int -> unit -> t

val record : t -> Event.t -> unit

(** Events in recording order (cycle-monotone per context). *)
val events : t -> Event.t list

val iter : (Event.t -> unit) -> t -> unit

val length : t -> int

val dropped : t -> int

val reset : t -> unit

(** The registry fed by this stream (yield fired/skipped and load-level
    counters; stall, switch-cost and dispatch-length histograms), with
    every event recorded so far counted. Read it again after recording
    more: counting happens on this call. *)
val registry : t -> Registry.t

(** Engine hooks that feed the stream: loads, stalls, front-end stalls,
    yields, opmarks. Closure-free ({!Stallhide_cpu.Events.of_log} on
    the stream's log), so the engine's fast path stays engaged. Compose
    into [Engine.config.hooks]. *)
val hooks : t -> Stallhide_cpu.Events.t

(** {2 Derived views used by attribution and exporters} *)

(** Per-pc totals of back-end stall cycles ([Stall] events), optionally
    re-keyed through [map] (e.g. new-pc to original-pc). *)
val stall_by_pc : ?map:(int -> int) -> t -> (int, int) Hashtbl.t

(** Per-pc demand-load executions ([Cache_access] events, hits
    included), optionally re-keyed through [map]. *)
val execs_by_pc : ?map:(int -> int) -> t -> (int, int) Hashtbl.t

(** Per-yield-site (fires, skips) from [Yield] events, keyed by pc. *)
val yields_by_pc : t -> (int, int * int) Hashtbl.t

(** Per-yield-site total switch cycles charged ([Context_switch] events
    with [at_pc >= 0]). *)
val switch_cycles_by_pc : t -> (int, int) Hashtbl.t

(** Dispatch spans as [(ctx, start, stop)], recording order. *)
val spans : t -> (int * int * int) list
