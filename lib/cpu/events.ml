open Stallhide_isa
open Stallhide_mem

type load_info = {
  ctx : int;
  pc : int;
  addr : int;
  level : Hierarchy.level;
  stall : int;
  queue : int;
  cycle : int;
}

type t = {
  on_retire : ctx:int -> pc:int -> instr:Instr.t -> cycle:int -> unit;
  on_load : load_info -> unit;
  on_branch : ctx:int -> pc:int -> target:int -> taken:bool -> cycle:int -> unit;
  on_stall : ctx:int -> pc:int -> cycles:int -> cycle:int -> unit;
  on_frontend_stall : ctx:int -> pc:int -> cycles:int -> cycle:int -> unit;
  on_opmark : ctx:int -> pc:int -> cycle:int -> unit;
  on_yield : ctx:int -> pc:int -> kind:Instr.yield_kind -> fired:bool -> cycle:int -> unit;
  logs : Event_log.t list;
}

let nop =
  {
    on_retire = (fun ~ctx:_ ~pc:_ ~instr:_ ~cycle:_ -> ());
    on_load = (fun _ -> ());
    on_branch = (fun ~ctx:_ ~pc:_ ~target:_ ~taken:_ ~cycle:_ -> ());
    on_stall = (fun ~ctx:_ ~pc:_ ~cycles:_ ~cycle:_ -> ());
    on_frontend_stall = (fun ~ctx:_ ~pc:_ ~cycles:_ ~cycle:_ -> ());
    on_opmark = (fun ~ctx:_ ~pc:_ ~cycle:_ -> ());
    on_yield = (fun ~ctx:_ ~pc:_ ~kind:_ ~fired:_ ~cycle:_ -> ());
    logs = [];
  }

let of_log log = { nop with logs = [ log ] }

let closure_free h =
  h.on_retire == nop.on_retire
  && h.on_load == nop.on_load
  && h.on_branch == nop.on_branch
  && h.on_stall == nop.on_stall
  && h.on_frontend_stall == nop.on_frontend_stall
  && h.on_opmark == nop.on_opmark
  && h.on_yield == nop.on_yield

let compose hs =
  let logs = List.concat_map (fun h -> h.logs) hs in
  match List.filter (fun h -> not (closure_free h)) hs with
  | [] -> { nop with logs }
  | [ h ] -> { h with logs }
  | hs ->
      {
        on_retire =
          (fun ~ctx ~pc ~instr ~cycle ->
            List.iter (fun h -> h.on_retire ~ctx ~pc ~instr ~cycle) hs);
        on_load = (fun info -> List.iter (fun h -> h.on_load info) hs);
        on_branch =
          (fun ~ctx ~pc ~target ~taken ~cycle ->
            List.iter (fun h -> h.on_branch ~ctx ~pc ~target ~taken ~cycle) hs);
        on_stall =
          (fun ~ctx ~pc ~cycles ~cycle ->
            List.iter (fun h -> h.on_stall ~ctx ~pc ~cycles ~cycle) hs);
        on_frontend_stall =
          (fun ~ctx ~pc ~cycles ~cycle ->
            List.iter (fun h -> h.on_frontend_stall ~ctx ~pc ~cycles ~cycle) hs);
        on_opmark = (fun ~ctx ~pc ~cycle -> List.iter (fun h -> h.on_opmark ~ctx ~pc ~cycle) hs);
        on_yield =
          (fun ~ctx ~pc ~kind ~fired ~cycle ->
            List.iter (fun h -> h.on_yield ~ctx ~pc ~kind ~fired ~cycle) hs);
        logs;
      }
