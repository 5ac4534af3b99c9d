(** Execution timeline rendering over the telemetry event stream.

    Schedulers record one {!Stallhide_obs.Event.Dispatch} span per
    dispatch (which context held the core, from which cycle to which)
    into the stream they are given as [~obs]; {!render} draws those
    spans as an ASCII Gantt chart — one row per context, time left to
    right — which makes interleaving behaviour (round-robin fairness,
    dual-mode detours, scavenger scaling) directly visible.

    {v
    ctx 0  ##....##....##....
    ctx 1  ..##....##....##..
    v} *)

(** [render ?width s] draws the dispatch spans of [s] ([width] columns,
    default 72) and appends a ["(+N dropped)"] note when the stream lost
    events. Returns "" when no span was recorded. *)
val render : ?width:int -> Stallhide_obs.Stream.t -> string
