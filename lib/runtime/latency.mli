(** Per-operation latency recording and summarizing.

    A recorder turns [Opmark] retirements into operation latencies: for
    each context, the latency of an operation is the cycle distance from
    the previous opmark; the first opmark of a context only arms the
    recorder (a context's dispatch time is scheduler business the PMU
    cannot see). Latency includes time spent yielded away — which is
    precisely the latency impact §3.3's asymmetric concurrency is
    designed to control. *)

type recorder

val recorder : unit -> recorder

(** Hooks to compose into the engine configuration. *)
val hooks : recorder -> Stallhide_cpu.Events.t

(** Engine-native recording: [watch ctxs] gives [ctxs] one shared
    {!Stallhide_cpu.Context.op_log} and returns it. The engine then
    records their op latencies itself ({!Stallhide_cpu.Context.opmark}),
    on the decoded-µop fast path as well as the reference interpreter,
    by the same rule as {!hooks}. *)
val watch : Stallhide_cpu.Context.t array -> Stallhide_cpu.Context.op_log

(** The recorder {!hooks} would have built over the same run, rebuilt
    from a log: {!of_ctx} and {!all} read it exactly as they read a
    hooked recorder, down to the order of {!all}. *)
val of_log : Stallhide_cpu.Context.op_log -> recorder

(** Latencies recorded for context [ctx], oldest first. *)
val of_ctx : recorder -> int -> int list

(** All latencies across contexts. *)
val all : recorder -> int list

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** population standard deviation *)
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;  (** the tail §3.3 manages: 99.9th percentile *)
  max : int;
}

val summarize : int list -> summary option

(** All-zero summary: what an empty sample set summarizes to. *)
val empty_summary : summary

(** Total variant of {!summarize}: never raises; an empty sample set
    yields {!empty_summary} ([count = 0] distinguishes it from real
    data). Fault-injection runs legitimately produce empty sets — e.g.
    every request shed under overload — so consumers must not have to
    guard the empty case themselves. *)
val summary : int list -> summary

(** [percentile xs q] with [q] in [0,1]; [xs] need not be sorted.
    Linear interpolation between closest ranks (numpy's "linear"
    method): the rank is [q * (n-1)] and fractional ranks interpolate
    between the two neighbouring order statistics, rounded to the
    nearest integer cycle. For [xs = 1..100], [p50] is 51 (midpoint
    50.5 rounded), not nearest-rank's 50.
    @raise Invalid_argument on an empty list. *)
val percentile : int list -> float -> int

(** Combine per-core summaries into one machine-level summary without
    re-sorting the underlying samples. [count] and [max] are exact;
    [mean] and [stddev] are exact (pooled moments); the percentiles are
    count-weighted averages of the per-core percentiles — a standard
    mergeable-summary approximation, exact when the cores' latency
    distributions coincide. Empty ([count = 0]) summaries are ignored;
    merging none yields {!empty_summary}. *)
val merge : summary list -> summary

val pp_summary : Format.formatter -> summary -> unit

val summary_to_json : summary -> Stallhide_util.Json.t

(** Goodput vs offered accounting for runs that drop work.

    A request shed by overload protection, expired past its deadline or
    abandoned by a client timeout is an SLO violation, not a sample to
    discard: [goodput] summarizes only the answered requests (the
    flattering view), [full] summarizes the whole offered load with
    every dropped request {e censored} at [censor] cycles — the
    deadline or timeout bound, a lower bound on the latency the victim
    actually observed. Percentiles over [full] are therefore exact as
    long as they fall below the censor point and honest lower bounds
    above it. *)
type split = {
  offered : int;  (** answered + dropped *)
  answered : int;
  dropped : int;  (** shed + expired + timed out + lost *)
  censor : int;  (** latency assigned to each dropped request *)
  goodput : summary;  (** answered requests only *)
  full : summary;  (** offered load, dropped requests censored *)
}

(** [split ~censor ~dropped answered_lats].
    @raise Invalid_argument on negative [censor] or [dropped]. *)
val split : censor:int -> dropped:int -> int list -> split

(** Dropped fraction of offered load (0 when nothing was offered). *)
val violation_rate : split -> float

val split_to_json : split -> Stallhide_util.Json.t
