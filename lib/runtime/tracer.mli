(** Execution timeline recording — a rendering view over the telemetry
    event stream.

    Schedulers record one {!Stallhide_obs.Event.Dispatch} span per
    dispatch (which context held the core, from which cycle to which);
    {!render} draws an ASCII Gantt chart — one row per context, time
    left to right — which makes interleaving behaviour (round-robin
    fairness, dual-mode detours, scavenger scaling) directly visible.

    {v
    ctx 0  ##....##....##....
    ctx 1  ..##....##....##..
    v}

    A tracer {e is} a stream: {!create} makes a private one sized to
    [max_spans], which a scheduler fills when given
    [~obs:(stream t)]; {!of_stream} renders the dispatch spans already
    inside a shared telemetry stream. *)

type span = { ctx : int; start : int; stop : int }

type t

(** [create ~max_spans ()] keeps at most [max_spans] spans (default
    [65536]); later spans are dropped and counted. *)
val create : ?max_spans:int -> unit -> t

(** View an existing telemetry stream as a timeline. *)
val of_stream : Stallhide_obs.Stream.t -> t

(** The stream under this tracer. *)
val stream : t -> Stallhide_obs.Stream.t

val record : t -> ctx:int -> start:int -> stop:int -> unit

(** Spans in recording order. *)
val spans : t -> span list

val span_count : t -> int

val dropped : t -> int

(** Total cycles attributed to [ctx]. *)
val busy_of : t -> int -> int

(** [render ?width t] draws the chart ([width] columns, default 72) and
    appends a ["(+N dropped)"] note when spans were lost. Returns ""
    when nothing was recorded. *)
val render : ?width:int -> t -> string
