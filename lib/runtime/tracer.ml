module Stream = Stallhide_obs.Stream

let render ?(width = 72) s =
  let spans = Stream.spans s in
  if spans = [] then ""
  else begin
    let t_end = List.fold_left (fun acc (_, _, stop) -> max acc stop) 0 spans in
    let ids = List.sort_uniq compare (List.map (fun (ctx, _, _) -> ctx) spans) in
    let scale = max 1 ((t_end + width - 1) / width) in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "timeline: %d cycles, %d cycles/col\n" t_end scale);
    List.iter
      (fun ctx ->
        let row = Bytes.make width '.' in
        List.iter
          (fun (c, start, stop) ->
            if c = ctx then
              for col = start / scale to min (width - 1) ((stop - 1) / scale) do
                Bytes.set row col '#'
              done)
          spans;
        Buffer.add_string buf (Printf.sprintf "ctx %3d  %s\n" ctx (Bytes.to_string row)))
      ids;
    if Stream.dropped s > 0 then
      Buffer.add_string buf (Printf.sprintf "(+%d dropped)\n" (Stream.dropped s));
    Buffer.contents buf
  end
