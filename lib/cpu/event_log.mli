(** Engine-written event records.

    A bounded log of fixed-stride int records kept in fixed-size chunks:
    appending writes eight ints in place and never copies or allocates
    on the minor heap (chunks of 1024 records are large enough to be
    allocated straight into the major heap). The engine writes its own
    events here on both of its paths; the observability layer
    ({!Stallhide_obs.Stream}) writes scheduler and machine events with
    the same layout, decodes records into typed events when they are
    read, and counts them into its registry lazily.

    Every record is [kind; ctx; cycle; pc; a; b; c; d] (field offsets
    {!f_kind} .. {!f_d}). Kinds [0 .. 4] are the engine's, with these
    payloads:
    - {!k_cache_access}: [a] address, [b] {!Stallhide_mem.Hierarchy.level_code}
      of the serving level, [c] paid stall, [d] of which queued at the
      shared L3;
    - {!k_stall}, {!k_frontend_stall}: [a] cycles;
    - {!k_op_retired}: no payload;
    - {!k_yield}: [a] 0 primary / 1 scavenger, [b] 1 fired / 0 fell
      through.

    Writers above the engine use kinds from {!first_free_kind} on. *)

type t

val k_cache_access : int

val k_stall : int

val k_frontend_stall : int

val k_op_retired : int

val k_yield : int

val first_free_kind : int

val f_kind : int

val f_ctx : int

val f_cycle : int

val f_pc : int

val f_a : int

val f_b : int

val f_c : int

val f_d : int

(** [Yield]'s [a] field: 0 for [Primary], 1 for [Scavenger]. *)
val yield_code : Stallhide_isa.Instr.yield_kind -> int

val yield_of_code : int -> Stallhide_isa.Instr.yield_kind

(** [create ~capacity] keeps at most [capacity] records; later ones are
    dropped (see {!set_on_drop}).
    @raise Invalid_argument if [capacity < 0]. *)
val create : capacity:int -> t

(** Records retained. *)
val length : t -> int

(** Records that arrived while the log was full. *)
val dropped : t -> int

(** [push t kind ctx cycle pc a b c d] appends one record, or, when the
    log is full, stages it as the {!spill} record, counts it in
    {!dropped} and calls the drop callback. *)
val push : t -> int -> int -> int -> int -> int -> int -> int -> int -> unit

(** [set_on_drop t f]: [f] runs once for every dropped record, right
    after it was staged in {!spill}. The default does nothing. *)
val set_on_drop : t -> (unit -> unit) -> unit

(** The most recently dropped record, at offset 0. *)
val spill : t -> int array

(** [iter_from t i f] calls [f chunk off] for each retained record from
    index [i] on, in order; the record's fields are
    [chunk.(off + f_kind) .. chunk.(off + f_d)]. *)
val iter_from : t -> int -> (int array -> int -> unit) -> unit

(** Forget every record and the drop count; chunks are kept for reuse. *)
val clear : t -> unit
