open Stallhide_isa

let k_cache_access = 0

let k_stall = 1

let k_frontend_stall = 2

let k_op_retired = 3

let k_yield = 4

let first_free_kind = 5

let f_kind = 0

let f_ctx = 1

let f_cycle = 2

let f_pc = 3

let f_a = 4

let f_b = 5

let f_c = 6

let f_d = 7

let stride = 8

let yield_code = function Instr.Primary -> 0 | Instr.Scavenger -> 1

let yield_of_code c = if c = 0 then Instr.Primary else Instr.Scavenger

(* 8192-word chunks: far above the minor heap's largest block, so each
   chunk goes straight to the major heap and appends never show up as
   minor allocation. *)
let chunk_records = 1024

type t = {
  capacity : int;
  mutable chunks : int array array;  (* [0 .. nchunks-1] allocated *)
  mutable nchunks : int;
  mutable ci : int;  (* index of [cur] in [chunks], -1 before the first record *)
  mutable cur : int array;
  mutable pos : int;  (* word offset of the next record in [cur] *)
  mutable len : int;
  mutable dropped : int;
  spill : int array;
  mutable on_drop : unit -> unit;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Event_log.create: negative capacity";
  {
    capacity;
    chunks = [||];
    nchunks = 0;
    ci = -1;
    cur = [||];
    pos = 0;
    len = 0;
    dropped = 0;
    spill = Array.make stride 0;
    on_drop = ignore;
  }

let length t = t.len

let dropped t = t.dropped

let set_on_drop t f = t.on_drop <- f

let spill t = t.spill

(* Move to the next chunk, allocating it on first use. Only the last
   chunk may be shorter than [chunk_records] (when the capacity ends
   inside it), so record [i] always lives in chunk [i / chunk_records]. *)
let next_chunk t =
  let ci = t.ci + 1 in
  if ci = t.nchunks then begin
    if ci = Array.length t.chunks then begin
      let grown = Array.make (max 8 (2 * ci)) [||] in
      Array.blit t.chunks 0 grown 0 ci;
      t.chunks <- grown
    end;
    t.chunks.(ci) <- Array.make (stride * min chunk_records (t.capacity - t.len)) 0;
    t.nchunks <- ci + 1
  end;
  t.ci <- ci;
  t.cur <- t.chunks.(ci);
  t.pos <- 0

let push t kind ctx cycle pc a b c d =
  if t.len < t.capacity then begin
    if t.pos = Array.length t.cur then next_chunk t;
    let ch = t.cur and o = t.pos in
    Array.unsafe_set ch o kind;
    Array.unsafe_set ch (o + 1) ctx;
    Array.unsafe_set ch (o + 2) cycle;
    Array.unsafe_set ch (o + 3) pc;
    Array.unsafe_set ch (o + 4) a;
    Array.unsafe_set ch (o + 5) b;
    Array.unsafe_set ch (o + 6) c;
    Array.unsafe_set ch (o + 7) d;
    t.pos <- o + stride;
    t.len <- t.len + 1
  end
  else begin
    let s = t.spill in
    s.(0) <- kind;
    s.(1) <- ctx;
    s.(2) <- cycle;
    s.(3) <- pc;
    s.(4) <- a;
    s.(5) <- b;
    s.(6) <- c;
    s.(7) <- d;
    t.dropped <- t.dropped + 1;
    t.on_drop ()
  end

let iter_from t i f =
  for j = i to t.len - 1 do
    f t.chunks.(j / chunk_records) (j mod chunk_records * stride)
  done

let clear t =
  t.ci <- -1;
  t.cur <- [||];
  t.pos <- 0;
  t.len <- 0;
  t.dropped <- 0
