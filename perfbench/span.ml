(* Host-time spans around calls into the simulator's public functions.

   Recording is off unless [enabled] is set (the traced run). A span is
   one call: its layer name, start and end on the monotonic clock, the
   span that was open when it began, and the rep and trial (workload
   instance) it belongs to. Spans stay in memory until the run writes them out.
   Calls made millions of times ([Machine.Live.step]) are not spans but
   aggregates: a count plus a total. *)

type t = { id : int; name : string; parent : int; rep : int; trial : int; start_ns : int; end_ns : int }

let enabled = ref false

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* CPU time of this process (user + system, from getrusage), in ns.
   Host times that carry a bound are CPU times (scaled by [Host]'s
   control): time the process spends waiting for a CPU, because other
   processes or other guests of the host hold it, is not counted. *)
let cpu_ns () = int_of_float (Sys.time () *. 1e9)

let recorded : t list ref = ref []

let next_id = ref 0

let open_stack : int list ref = ref []

let current_rep = ref 0

let current_trial = ref 0

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let start_ns = now_ns () in
    let close () =
      let end_ns = now_ns () in
      open_stack := List.tl !open_stack;
      recorded := { id; name; parent; rep = !current_rep; trial = !current_trial; start_ns; end_ns } :: !recorded
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

type agg = { mutable count : int; mutable total_ns : int }

let aggs : (string, agg) Hashtbl.t = Hashtbl.create 8

let agg name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
      let a = { count = 0; total_ns = 0 } in
      Hashtbl.replace aggs name a;
      a

let reset () =
  recorded := [];
  open_stack := [];
  Hashtbl.reset aggs

let spans () = List.rev !recorded

(* Self time: a span's duration minus the part its children cover
   (children of one parent never overlap: the benchmark is
   single-threaded). Summed per layer name, in seconds, for one rep. *)
let self_seconds ~rep =
  let mine = List.filter (fun s -> s.rep = rep) (spans ()) in
  let child_ns = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent) in
        Hashtbl.replace child_ns s.parent (prev + (s.end_ns - s.start_ns)))
    mine;
  let per_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = s.end_ns - s.start_ns - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt per_layer s.name) in
      Hashtbl.replace per_layer s.name (prev + own))
    mine;
  Hashtbl.fold (fun name ns acc -> (name, float_of_int ns *. 1e-9) :: acc) per_layer []
  |> List.sort compare

let to_json () =
  let open Stallhide_util.Json in
  Obj
    [
      ( "spans",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("id", Int s.id);
                   ("name", String s.name);
                   ("parent", Int s.parent);
                   ("rep", Int s.rep);
                   ("trial", Int s.trial);
                   ("start_ns", Int s.start_ns);
                   ("end_ns", Int s.end_ns);
                 ])
             (spans ())) );
      ( "aggregates",
        List
          (Hashtbl.fold
             (fun name a acc ->
               Obj [ ("name", String name); ("count", Int a.count); ("total_ns", Int a.total_ns) ]
               :: acc)
             aggs []) );
    ]
