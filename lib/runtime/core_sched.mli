(** The §3.3 dual-mode (asymmetric-concurrency) scheduler for one core.

    [Core_sched] owns a core-local clock, a FIFO of pending requests
    (primary-mode contexts) and a pool of scavenger coroutines, and
    exposes a {!step} interface so an external machine can interleave N
    cores deterministically. A single-core run is a one-request
    [Core_sched]: submit the primary, add the scavengers and step until
    [Idle] (or until {!quiescent}, to stop when the primary halts).
    One [step] makes one dispatch decision:

    - resume (or admit) the current request and run it to its next
      yield/halt; on a primary yield (a likely miss), charge the switch
      and {e hide} the stall: dispatch scavengers until one reaches a
      timely scavenger-phase yield. A scavenger that hits a
      primary-phase yield has met its own likely miss too early, so
      the scheduler escalates to the next one (on-demand scaling); when
      the pool is exhausted, control returns to the primary;
    - when the local pool runs dry mid-hide, pull ready scavengers from
      the installed {!set_steal_source}, at most [steal_budget] per
      hide phase and [steal_cost] cycles each — the steal happens
      {e inside} the stall being hidden, so a primary never waits on a
      steal to be dispatched;
    - with no request pending, run one scavenger slice (batch work),
      stealing if even that is unavailable;
    - otherwise report [Idle] and leave the clock alone (the machine
      advances it to the next arrival).

    Scavengers rotate round-robin: every dispatch moves the cursor past
    the scavenger it picked, so consecutive stalls are filled by
    different scavengers. The paper result depends on it: serving them
    depth-first instead (the same scavenger resumes until it halts or
    escalates) drops C7's dual-mode efficiency from 92.4% to 58.4%
    (3.790 → 2.398 ops/kcycle).

    Work stealing only migrates {b cold} scavengers — coroutines that
    have never executed ([Context.started_at < 0]) — so a stolen
    context runs on exactly one core and no register state migrates.

    {2 Watchdog}

    A scavenger is supposed to return the core {e timely} — its
    conditional-yield instrumentation bounds how long it computes per
    dispatch. A rogue scavenger (bad instrumentation, adversarial code)
    blows that contract and the primary's tail latency with it. The
    optional watchdog restores the bound at the scheduler level: each
    scavenger dispatch that overruns [bound] cycles earns the scavenger
    a strike; [strikes] strikes demote it — it is benched for [backoff]
    cycles, doubling on each repeat demotion — and the
    [quarantine_after]-th demotion retires it for the rest of the run.
    Benched or quarantined scavengers are skipped by the rotation.
    Every verdict is emitted as a {!Stallhide_obs.Event.Watchdog} event
    ([watchdog.*] counters in the stream registry). *)

open Stallhide_cpu
open Stallhide_mem

type config = {
  engine : Engine.config;
  switch : Switch_cost.t;
  steal_budget : int;  (** max remote pulls per hide phase (default 1) *)
  steal_cost : int;  (** cycles to pull a remote scavenger (default 24) *)
}

val default_config : config

type watchdog = {
  bound : int;  (** cycle budget per scavenger dispatch *)
  strikes : int;  (** overruns tolerated before a demotion *)
  backoff : int;  (** initial bench duration in cycles; doubles per demotion *)
  quarantine_after : int;  (** demotions before permanent quarantine *)
}

(** bound 512, strikes 2, backoff 2048, quarantine after 2 demotions. *)
val default_watchdog : watchdog

type stats = {
  mutable dispatches : int;  (** primary dispatch slices *)
  mutable scav_dispatches : int;  (** scavenger dispatch slices *)
  mutable switches : int;
  mutable switch_cycles : int;
  mutable steals : int;  (** scavengers pulled from other cores *)
  mutable donated : int;  (** scavengers handed to other cores *)
  mutable escalations : int;  (** scavenger-hit-own-miss handoffs *)
  mutable completions : int;  (** requests run to [Halt] *)
  mutable fault_count : int;
  mutable watchdog_strikes : int;  (** scavenger dispatches caught past the watchdog bound *)
  mutable watchdog_demotions : int;  (** temporary benchings (backoff) issued *)
  mutable watchdog_quarantines : int;  (** scavengers permanently retired *)
}

type t

(** [watchdog] defaults to [None]: no enforcement. *)
val create :
  ?config:config ->
  ?watchdog:watchdog ->
  ?obs:Stallhide_obs.Stream.t ->
  Hierarchy.t ->
  Address_space.t ->
  t

val config : t -> config

val clock : t -> int

(** Idle clock advance (to the next arrival); never moves backwards. *)
val advance_clock : t -> int -> unit

val stats : t -> stats

val hierarchy : t -> Hierarchy.t

val faults : t -> string list

(** Enqueue a request; it will run in primary mode, FIFO. *)
val submit : t -> Context.t -> unit

(** Pending requests: queued plus the one being served, i.e. the depth
    a JBSQ dispatcher compares. *)
val queue_depth : t -> int

val add_scavenger : t -> Context.t -> unit

(** Ready, never-started scavengers — what {!donate} can give away. *)
val stealable : t -> int

(** Remove and return one cold scavenger, or [None]. *)
val donate : t -> Context.t option

(** [set_steal_source t f] installs the machine's steal path: [f ()]
    picks a victim core and returns [donate victim]. *)
val set_steal_source : t -> (unit -> Context.t option) -> unit

(** [set_on_complete t f] is called as [f ctx ~now] when a request
    halts (not for scavengers). *)
val set_on_complete : t -> (Context.t -> now:int -> unit) -> unit

(** Brownout demotion: with scavengers disabled the core neither hides
    stalls nor burns down batch work — primaries run alone, stalls stay
    exposed, and an empty request queue reports [Idle] immediately.
    Cluster-wide overload control flips this to shed batch work before
    missing the latency SLO. Default: enabled. *)
val set_scavengers_enabled : t -> bool -> unit

type outcome =
  | Worked  (** ran at least one slice; clock advanced *)
  | Idle  (** nothing runnable: no request, no ready/stealable scavenger *)

val step : t -> deadline:int -> outcome

(** True when no request is pending or in flight. *)
val quiescent : t -> bool
