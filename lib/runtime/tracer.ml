module Stream = Stallhide_obs.Stream
module Event = Stallhide_obs.Event

type span = { ctx : int; start : int; stop : int }

type t = Stream.t

let create ?(max_spans = 65536) () = Stream.create ~capacity:max_spans ()

let of_stream s = s

let stream t = t

let record t ~ctx ~start ~stop =
  if stop > start then Stream.record t (Event.Dispatch { ctx; start; stop })

let spans t = List.map (fun (ctx, start, stop) -> { ctx; start; stop }) (Stream.spans t)

let span_count t =
  let n = ref 0 in
  Stream.iter (function Event.Dispatch _ -> incr n | _ -> ()) t;
  !n

let dropped t = Stream.dropped t

let busy_of t ctx =
  let acc = ref 0 in
  Stream.iter
    (function
      | Event.Dispatch { ctx = c; start; stop } when c = ctx -> acc := !acc + (stop - start)
      | _ -> ())
    t;
  !acc

let render ?(width = 72) t =
  let spans = spans t in
  if spans = [] then ""
  else begin
    let t_end = ref 0 in
    let ids = Hashtbl.create 8 in
    List.iter
      (fun s ->
        t_end := max !t_end s.stop;
        Hashtbl.replace ids s.ctx ())
      spans;
    let ids = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) ids []) in
    let scale = max 1 ((!t_end + width - 1) / width) in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "timeline: %d cycles, %d cycles/col\n" !t_end scale);
    List.iter
      (fun ctx ->
        let row = Bytes.make width '.' in
        List.iter
          (fun s ->
            if s.ctx = ctx then
              for col = s.start / scale to min (width - 1) ((s.stop - 1) / scale) do
                Bytes.set row col '#'
              done)
          spans;
        Buffer.add_string buf (Printf.sprintf "ctx %3d  %s\n" ctx (Bytes.to_string row)))
      ids;
    if Stream.dropped t > 0 then
      Buffer.add_string buf (Printf.sprintf "(+%d dropped)\n" (Stream.dropped t));
    Buffer.contents buf
  end
