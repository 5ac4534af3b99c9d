type arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  cname : string;
  line_shift : int;
  sets : int;
  ways : int;
  tags : arr;  (* sets*ways; -1 = invalid *)
  ready : arr;
  stamp : arr;  (* LRU timestamps *)
  mutable tick : int;
  mutable hit_count : int;
  mutable miss_count : int;
}

type lookup = Hit | In_flight of int | Miss

let log2 n =
  let rec loop n acc = if n <= 1 then acc else loop (n lsr 1) (acc + 1) in
  loop n 0

let make_arr len v =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  Bigarray.Array1.fill a v;
  a

let create ~name ~line_bytes (cfg : Memconfig.level_cfg) =
  let lines = cfg.size_bytes / line_bytes in
  let sets = lines / cfg.ways in
  if sets <= 0 then invalid_arg "Cache.create: zero sets";
  {
    cname = name;
    line_shift = log2 line_bytes;
    sets;
    ways = cfg.ways;
    tags = make_arr lines (-1);
    ready = make_arr lines 0;
    stamp = make_arr lines 0;
    tick = 0;
    hit_count = 0;
    miss_count = 0;
  }

let name t = t.cname

let lines t = t.sets * t.ways

let line_of t addr = addr lsr t.line_shift

(* Top-level recursion with explicit arguments: a local [let rec] here
   would capture free variables and allocate one closure per call —
   the zero-allocation fast path runs these on every access. *)
let rec find_from (tags : arr) line s stop =
  if s = stop then -1
  else if Bigarray.Array1.unsafe_get tags s = line then s
  else find_from tags line (s + 1) stop

(* Returns the way slot index of the line in its set, or -1. *)
let find t line =
  let base = (line land (t.sets - 1)) * t.ways in
  find_from t.tags line base (base + t.ways)

let touch t slot =
  t.tick <- t.tick + 1;
  Bigarray.Array1.unsafe_set t.stamp slot t.tick

(* LRU victim scan, tail-recursive at top level (alloc-free): empty way
   first, else the oldest stamp. *)
let rec pick_victim (tags : arr) (stamp : arr) s stop victim =
  if s = stop then victim
  else
    let ts = Bigarray.Array1.unsafe_get tags s
    and tv = Bigarray.Array1.unsafe_get tags victim in
    let victim =
      if ts = -1 && tv <> -1 then s
      else if
        ts <> -1 && tv <> -1
        && Bigarray.Array1.unsafe_get stamp s < Bigarray.Array1.unsafe_get stamp victim
      then s
      else victim
    in
    pick_victim tags stamp (s + 1) stop victim

(* Packed classification: [-1] miss, [0] ready hit, [ready_at > 0] an
   in-flight fill completing at that cycle. In-flight implies
   [ready_at > now >= 0], so the codes cannot collide. Refreshes LRU
   and hit/miss counters exactly like [lookup]. *)
let lookup_code t ~now addr =
  let line = line_of t addr in
  let slot = find t line in
  if slot < 0 then begin
    t.miss_count <- t.miss_count + 1;
    -1
  end
  else begin
    t.hit_count <- t.hit_count + 1;
    touch t slot;
    let ra = Bigarray.Array1.unsafe_get t.ready slot in
    if ra <= now then 0 else ra
  end

let lookup t ~now addr =
  let c = lookup_code t ~now addr in
  if c < 0 then Miss else if c = 0 then Hit else In_flight c

let insert t ~now ~ready_at addr =
  ignore now;
  let line = line_of t addr in
  let slot = find t line in
  if slot >= 0 then begin
    (* Refill of a present line: keep the earlier availability. *)
    if ready_at < Bigarray.Array1.unsafe_get t.ready slot then
      Bigarray.Array1.unsafe_set t.ready slot ready_at;
    touch t slot
  end
  else begin
    let base = (line land (t.sets - 1)) * t.ways in
    let victim = pick_victim t.tags t.stamp (base + 1) (base + t.ways) base in
    Bigarray.Array1.unsafe_set t.tags victim line;
    Bigarray.Array1.unsafe_set t.ready victim ready_at;
    touch t victim
  end

let resident t ~now addr =
  let line = line_of t addr in
  let slot = find t line in
  slot >= 0 && Bigarray.Array1.unsafe_get t.ready slot <= now

let invalidate t addr =
  let line = line_of t addr in
  let slot = find t line in
  if slot < 0 then false
  else begin
    t.tags.{slot} <- -1;
    t.ready.{slot} <- 0;
    t.stamp.{slot} <- 0;
    true
  end

let hits t = t.hit_count

let misses t = t.miss_count

let reset_stats t =
  t.hit_count <- 0;
  t.miss_count <- 0
