open Stallhide_cpu
open Stallhide_mem

type t = {
  mutable instructions : int;
  mutable loads : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable l3_hits : int;
  mutable dram_loads : int;
  mutable stall_cycles : int;
  mutable frontend_stall_cycles : int;
  mutable branches : int;
  mutable taken_branches : int;
  mutable ops : int;
  mutable yields_fired : int;
  mutable yields_skipped : int;
}

let create () =
  {
    instructions = 0;
    loads = 0;
    l1_hits = 0;
    l2_hits = 0;
    l3_hits = 0;
    dram_loads = 0;
    stall_cycles = 0;
    frontend_stall_cycles = 0;
    branches = 0;
    taken_branches = 0;
    ops = 0;
    yields_fired = 0;
    yields_skipped = 0;
  }

let hooks t =
  {
    Events.on_retire = (fun ~ctx:_ ~pc:_ ~instr:_ ~cycle:_ -> t.instructions <- t.instructions + 1);
    on_load =
      (fun info ->
        t.loads <- t.loads + 1;
        match info.Events.level with
        | Hierarchy.L1 -> t.l1_hits <- t.l1_hits + 1
        | Hierarchy.L2 -> t.l2_hits <- t.l2_hits + 1
        | Hierarchy.L3 -> t.l3_hits <- t.l3_hits + 1
        | Hierarchy.Dram -> t.dram_loads <- t.dram_loads + 1);
    on_branch =
      (fun ~ctx:_ ~pc:_ ~target:_ ~taken ~cycle:_ ->
        t.branches <- t.branches + 1;
        if taken then t.taken_branches <- t.taken_branches + 1);
    on_stall = (fun ~ctx:_ ~pc:_ ~cycles ~cycle:_ -> t.stall_cycles <- t.stall_cycles + cycles);
    on_frontend_stall =
      (fun ~ctx:_ ~pc:_ ~cycles ~cycle:_ ->
        t.frontend_stall_cycles <- t.frontend_stall_cycles + cycles);
    on_opmark = (fun ~ctx:_ ~pc:_ ~cycle:_ -> t.ops <- t.ops + 1);
    on_yield =
      (fun ~ctx:_ ~pc:_ ~kind:_ ~fired ~cycle:_ ->
        if fired then t.yields_fired <- t.yields_fired + 1
        else t.yields_skipped <- t.yields_skipped + 1);
    logs = [];
  }

let reset t =
  t.instructions <- 0;
  t.loads <- 0;
  t.l1_hits <- 0;
  t.l2_hits <- 0;
  t.l3_hits <- 0;
  t.dram_loads <- 0;
  t.stall_cycles <- 0;
  t.frontend_stall_cycles <- 0;
  t.branches <- 0;
  t.taken_branches <- 0;
  t.ops <- 0;
  t.yields_fired <- 0;
  t.yields_skipped <- 0

let pp fmt t =
  Format.fprintf fmt
    "instr=%d loads=%d l1=%d l2=%d l3=%d dram=%d stall=%d fe_stall=%d branches=%d taken=%d \
     ops=%d yields=%d/%d"
    t.instructions t.loads t.l1_hits t.l2_hits t.l3_hits t.dram_loads t.stall_cycles
    t.frontend_stall_cycles t.branches t.taken_branches t.ops t.yields_fired t.yields_skipped
