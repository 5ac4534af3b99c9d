(* What a result needs to be compared across hosts: CPU count, OCaml
   version, and the time of a fixed pure-OCaml control kernel, which the
   benchmark also uses to scale its host times (see [control]). *)

let nproc () = Domain.recommended_domain_count ()

(* The control: fixed work with the host-memory behaviour of the
   simulator's serving loop, timed right before every serve so that host
   times can be scaled by how fast the host runs such work at that
   moment. Lookups in a chained hash table of 200,000 entries kept in
   Bigarrays (about 8 MB outside the OCaml heap, so the collector never
   scans it), a quarter at uniformly random keys and the rest among
   1,024 hot ones; each entry found is updated. It allocates nothing
   and runs no simulator code, so a change to the simulator cannot move
   it; only the host can. *)
let cells = 200_000

let slots = 1 lsl 18

let key i = i * 2654435761 land 0xFFFFFFF

let slot k = (k * 0x1E3779B97F4A7C15) lsr 20 land (slots - 1)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_ints n : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

(* entry [i] has key [keys.{i}] and the next entry of its chain
   [next.{i}]; [head.{s}] starts slot [s]'s chain; -1 ends a chain *)
type table = { head : ints; next : ints; keys : ints; stamp : ints; hits : ints }

let table =
  lazy
    (let t =
       {
         head = make_ints slots;
         next = make_ints cells;
         keys = make_ints cells;
         stamp = make_ints cells;
         hits = make_ints cells;
       }
     in
     Bigarray.Array1.fill t.head (-1);
     Bigarray.Array1.fill t.stamp 0;
     Bigarray.Array1.fill t.hits 0;
     for i = 0 to cells - 1 do
       let k = key i in
       t.keys.{i} <- k;
       t.next.{i} <- t.head.{slot k};
       t.head.{slot k} <- i
     done;
     t)

let control () =
  let t = Lazy.force table in
  let x = ref 88172645463325252 and sum = ref 0 in
  for n = 1 to 40_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = (!x land 0xFFFFF) mod cells in
    let k = key (if !x land 3 = 0 then i else i land 0x3FF) in
    let j = ref t.head.{slot k} in
    while !j >= 0 && t.keys.{!j} <> k do
      j := t.next.{!j}
    done;
    if !j >= 0 then begin
      t.stamp.{!j} <- n;
      t.hits.{!j} <- t.hits.{!j} + 1;
      sum := !sum + !j
    end
  done;
  !sum

(* Builds the control's table (kept out of the first rep, whose memory
   is the workload's peak). *)
let prepare_control () = ignore (Lazy.force table)

(* CPU seconds of one control run. *)
let control_s () =
  let t0 = Span.cpu_ns () in
  ignore (Sys.opaque_identity (control ()));
  float_of_int (Span.cpu_ns () - t0) *. 1e-9

(* About the control's CPU time on the host the benchmark was sized on
   (AMD EPYC, 2 vCPUs) in its quieter spells. Host times are reported as
   measured x [nominal_control_s] / the control's time next to them. *)
let nominal_control_s = 0.003

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

let fingerprint_json ~control_s =
  let open Stallhide_util.Json in
  Obj
    [
      ("nproc", Int (nproc ()));
      ("ocaml_version", String Sys.ocaml_version);
      ("control_ms", Float (control_s *. 1e3));
      ("nominal_control_ms", Float (nominal_control_s *. 1e3));
    ]
