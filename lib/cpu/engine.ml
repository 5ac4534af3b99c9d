open Stallhide_isa
open Stallhide_mem

type config = {
  hooks : Events.t;
  cond_check_cost : int;
  ooo_window : int;
  load_block_threshold : int option;
  stall_shape : (pc:int -> stall:int -> int) option;
  fast : bool;
}

let default_config =
  {
    hooks = Events.nop;
    cond_check_cost = 1;
    ooo_window = 0;
    load_block_threshold = None;
    stall_shape = None;
    fast = true;
  }

let shape_stall cfg ~pc stall =
  match cfg.stall_shape with Some f -> max 0 (f ~pc ~stall) | None -> stall

type stop =
  | Halted
  | Yielded of Instr.yield_kind * int
  | Out_of_budget
  | Fault of string

type step_result = Normal | Blocked_until of int | Stop of stop

(* The accelerator's deterministic transform: tests and workload
   oracles recompute it host-side. *)
let accel_transform v = (v * 2654435761) lxor (v asr 7)

let max_call_depth = 4096

let fault (ctx : Context.t) fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.status <- Context.Faulted msg;
      Stop (Fault msg))
    fmt

let operand_value (ctx : Context.t) = function
  | Instr.Reg r -> ctx.regs.{r}
  | Instr.Imm i -> i

(* Write one event record into every log the hooks carry. *)
let rec log_event logs kind ctx cycle pc a b c d =
  match logs with
  | [] -> ()
  | l :: rest ->
      Event_log.push l kind ctx cycle pc a b c d;
      log_event rest kind ctx cycle pc a b c d

(* [log_event] behind an inline test: most hooks carry no log. *)
let[@inline] log cfg kind ctx cycle pc a b c d =
  match cfg.hooks.logs with [] -> () | logs -> log_event logs kind ctx cycle pc a b c d

(* The reference interpreter's event sites: the callback, then the logs. *)
let[@inline] emit_load cfg id pc addr level stall queue cycle =
  cfg.hooks.on_load { ctx = id; pc; addr; level; stall; queue; cycle };
  log cfg Event_log.k_cache_access id cycle pc addr (Hierarchy.level_code level) stall queue

let[@inline] emit_stall cfg id pc cycles cycle =
  cfg.hooks.on_stall ~ctx:id ~pc ~cycles ~cycle;
  log cfg Event_log.k_stall id cycle pc cycles 0 0 0

let[@inline] emit_yield cfg id pc kind fired cycle =
  cfg.hooks.on_yield ~ctx:id ~pc ~kind ~fired ~cycle;
  log cfg Event_log.k_yield id cycle pc (Event_log.yield_code kind) (Bool.to_int fired) 0 0

let eval_binop op a b =
  match op with
  | Instr.Add -> Some (a + b)
  | Instr.Sub -> Some (a - b)
  | Instr.Mul -> Some (a * b)
  | Instr.Div -> if b = 0 then None else Some (a / b)
  | Instr.Rem -> if b = 0 then None else Some (a mod b)
  | Instr.And -> Some (a land b)
  | Instr.Or -> Some (a lor b)
  | Instr.Xor -> Some (a lxor b)
  | Instr.Shl -> Some (a lsl (b land 63))
  | Instr.Shr -> Some (a asr (b land 63))

let eval_cond c a b =
  match c with
  | Instr.Eq -> a = b
  | Instr.Ne -> a <> b
  | Instr.Lt -> a < b
  | Instr.Le -> a <= b
  | Instr.Gt -> a > b
  | Instr.Ge -> a >= b

let step cfg hier mem ~clock (ctx : Context.t) =
  let program = ctx.program in
  if ctx.pc < 0 || ctx.pc >= Program.length program then
    fault ctx "pc %d out of range" ctx.pc
  else begin
    if ctx.started_at < 0 then ctx.started_at <- !clock;
    let pc = ctx.pc in
    let i = Program.instr program pc in
    ctx.instructions <- ctx.instructions + 1;
    let id = ctx.id in
    (* front-end: instruction fetch may stall on an icache miss *)
    let fstall = Hierarchy.fetch hier ~now:!clock pc in
    if fstall > 0 then begin
      clock := !clock + fstall;
      ctx.stall_cycles <- ctx.stall_cycles + fstall;
      cfg.hooks.on_frontend_stall ~ctx:id ~pc ~cycles:fstall ~cycle:!clock;
      log cfg Event_log.k_frontend_stall id !clock pc fstall 0 0 0
    end;
    let advance cost = clock := !clock + cost in
    let retire () = cfg.hooks.on_retire ~ctx:id ~pc ~instr:i ~cycle:!clock in
    let next () = ctx.pc <- pc + 1 in
    (* Demand load: returns the paid cost and remaining stall after the
       OoO window, firing load/stall hooks. *)
    let demand_load addr =
      let r = Hierarchy.access hier ~now:!clock addr in
      (* The stall shape rewrites the miss penalty charged at this pc —
         counterfactual zeroing or ground-truth inflation — without
         touching cache state or control flow. *)
      let stall = shape_stall cfg ~pc r.stall in
      let latency = r.latency + (stall - r.stall) in
      let hidden = min cfg.ooo_window stall in
      let paid_stall = stall - hidden in
      let cost = Cost.base i + latency - hidden in
      (cost, paid_stall, r.level, min r.queued paid_stall)
    in
    match i with
    | Instr.Binop (op, rd, rs, o) -> (
        match eval_binop op ctx.regs.{rs} (operand_value ctx o) with
        | None -> fault ctx "division by zero at pc %d" pc
        | Some v ->
            ctx.regs.{rd} <- v;
            advance (Cost.base i);
            next ();
            retire ();
            Normal)
    | Instr.Mov (rd, o) ->
        ctx.regs.{rd} <- operand_value ctx o;
        advance (Cost.base i);
        next ();
        retire ();
        Normal
    | Instr.Load (rd, rs, disp) ->
        let addr = ctx.regs.{rs} + disp in
        if not (Address_space.valid_addr mem addr) then
          fault ctx "load from invalid address %d at pc %d" addr pc
        else begin
          let cost, paid_stall, level, queue = demand_load addr in
          ctx.regs.{rd} <- Address_space.load mem addr;
          next ();
          match cfg.load_block_threshold with
          | Some thr when paid_stall > thr ->
              (* SMT: charge issue + L1 latency, block until data arrives. *)
              let issue_cost = cost - paid_stall in
              let data_at = !clock + cost in
              advance issue_cost;
              emit_load cfg id pc addr level paid_stall queue !clock;
              retire ();
              Blocked_until data_at
          | Some _ | None ->
              advance cost;
              ctx.stall_cycles <- ctx.stall_cycles + paid_stall;
              emit_load cfg id pc addr level paid_stall queue !clock;
              if paid_stall > 0 then emit_stall cfg id pc paid_stall !clock;
              retire ();
              Normal
        end
    | Instr.Store (rs, disp, rv) ->
        let addr = ctx.regs.{rs} + disp in
        if not (Address_space.valid_addr mem addr) then
          fault ctx "store to invalid address %d at pc %d" addr pc
        else begin
          Address_space.store mem addr ctx.regs.{rv};
          Hierarchy.write hier ~now:!clock addr;
          advance (Cost.base i);
          next ();
          retire ();
          Normal
        end
    | Instr.Prefetch (rs, disp) ->
        let addr = ctx.regs.{rs} + disp in
        (* Like hardware, prefetch of a bad address is a silent no-op. *)
        if Address_space.valid_addr mem addr then Hierarchy.prefetch hier ~now:!clock addr;
        advance (Hierarchy.config hier).prefetch_issue_cost;
        next ();
        retire ();
        Normal
    | Instr.Branch (c, rs, o, _) ->
        let taken = eval_cond c ctx.regs.{rs} (operand_value ctx o) in
        let target = Program.resolved_target program pc in
        advance (Cost.base i);
        ctx.pc <- (if taken then target else pc + 1);
        cfg.hooks.on_branch ~ctx:id ~pc ~target:ctx.pc ~taken ~cycle:!clock;
        retire ();
        Normal
    | Instr.Jump _ ->
        let target = Program.resolved_target program pc in
        advance (Cost.base i);
        ctx.pc <- target;
        cfg.hooks.on_branch ~ctx:id ~pc ~target ~taken:true ~cycle:!clock;
        retire ();
        Normal
    | Instr.Call _ ->
        if Context.call_depth ctx >= max_call_depth then
          fault ctx "call stack overflow at pc %d" pc
        else begin
          Context.push_call ctx (pc + 1);
          let target = Program.resolved_target program pc in
          advance (Cost.base i);
          ctx.pc <- target;
          cfg.hooks.on_branch ~ctx:id ~pc ~target ~taken:true ~cycle:!clock;
          retire ();
          Normal
        end
    | Instr.Ret ->
        if Context.call_depth ctx = 0 then fault ctx "ret with empty call stack at pc %d" pc
        else begin
          let ret_pc = Context.pop_call ctx in
          advance (Cost.base i);
          ctx.pc <- ret_pc;
          cfg.hooks.on_branch ~ctx:id ~pc ~target:ret_pc ~taken:true ~cycle:!clock;
          retire ();
          Normal
        end
    | Instr.Yield Instr.Primary ->
        ctx.yields <- ctx.yields + 1;
        next ();
        emit_yield cfg id pc Instr.Primary true !clock;
        retire ();
        Stop (Yielded (Instr.Primary, pc))
    | Instr.Yield Instr.Scavenger ->
        if ctx.mode = Context.Scavenger then begin
          ctx.yields <- ctx.yields + 1;
          next ();
          emit_yield cfg id pc Instr.Scavenger true !clock;
          retire ();
          Stop (Yielded (Instr.Scavenger, pc))
        end
        else begin
          (* Conditional yield switched off: pay the check and move on. *)
          ctx.cond_checks <- ctx.cond_checks + 1;
          advance cfg.cond_check_cost;
          next ();
          emit_yield cfg id pc Instr.Scavenger false !clock;
          retire ();
          Normal
        end
    | Instr.Yield_cond (rs, disp) ->
        let addr = ctx.regs.{rs} + disp in
        ctx.cond_checks <- ctx.cond_checks + 1;
        advance cfg.cond_check_cost;
        let resident =
          (not (Address_space.valid_addr mem addr))
          ||
          match Hierarchy.resident hier ~now:!clock addr with
          | Some (Hierarchy.L1 | Hierarchy.L2) -> true
          | Some (Hierarchy.L3 | Hierarchy.Dram) | None -> false
        in
        next ();
        if resident then begin
          emit_yield cfg id pc Instr.Primary false !clock;
          retire ();
          Normal
        end
        else begin
          Hierarchy.prefetch hier ~now:!clock addr;
          advance (Hierarchy.config hier).prefetch_issue_cost;
          ctx.yields <- ctx.yields + 1;
          emit_yield cfg id pc Instr.Primary true !clock;
          retire ();
          Stop (Yielded (Instr.Primary, pc))
        end
    | Instr.Accel_issue (rs, disp) ->
        if ctx.accel_done_at >= 0 then fault ctx "accelerator busy at pc %d" pc
        else
          let addr = ctx.regs.{rs} + disp in
          if not (Address_space.valid_addr mem addr) then
            fault ctx "accelerator operand at invalid address %d (pc %d)" addr pc
          else begin
            advance (Cost.base i);
            ctx.accel_result <- accel_transform (Address_space.load mem addr);
            ctx.accel_done_at <- !clock + (Hierarchy.config hier).accel_latency;
            next ();
            retire ();
            Normal
          end
    | Instr.Accel_wait rd ->
        if ctx.accel_done_at < 0 then fault ctx "accelerator wait with no operation at pc %d" pc
        else begin
          let remaining = shape_stall cfg ~pc (max 0 (ctx.accel_done_at - !clock)) in
          let hidden = min cfg.ooo_window remaining in
          let paid = remaining - hidden in
          ctx.regs.{rd} <- ctx.accel_result;
          ctx.accel_done_at <- -1;
          next ();
          match cfg.load_block_threshold with
          | Some thr when paid > thr ->
              let data_at = !clock + Cost.base i + paid in
              advance (Cost.base i);
              retire ();
              Blocked_until data_at
          | Some _ | None ->
              advance (Cost.base i + paid);
              ctx.stall_cycles <- ctx.stall_cycles + paid;
              if paid > 0 then emit_stall cfg id pc paid !clock;
              retire ();
              Normal
        end
    | Instr.Guard (rs, disp) ->
        let addr = ctx.regs.{rs} + disp in
        advance (Cost.base i);
        let ok =
          match ctx.domain with Some (lo, hi) -> addr >= lo && addr < hi | None -> true
        in
        if ok then begin
          next ();
          retire ();
          Normal
        end
        else fault ctx "sfi violation: address %d outside domain at pc %d" addr pc
    | Instr.Opmark ->
        next ();
        Context.opmark ctx ~cycle:!clock;
        cfg.hooks.on_opmark ~ctx:id ~pc ~cycle:!clock;
        log cfg Event_log.k_op_retired id !clock pc 0 0 0 0;
        retire ();
        Normal
    | Instr.Nop ->
        advance (Cost.base i);
        next ();
        retire ();
        Normal
    | Instr.Halt ->
        ctx.status <- Context.Done;
        ctx.finished_at <- !clock;
        retire ();
        Stop Halted
  end

let run_reference cfg hier mem ~clock ~deadline (ctx : Context.t) =
  let rec loop () =
    match ctx.status with
    | Context.Done -> Halted
    | Context.Faulted msg -> Fault msg
    | Context.Ready ->
        if !clock >= deadline then Out_of_budget
        else begin
          match step cfg hier mem ~clock ctx with
          | Normal -> loop ()
          | Blocked_until w ->
              (* Single-context fallback: nothing else to run, wait it out. *)
              if w > !clock then begin
                ctx.stall_cycles <- ctx.stall_cycles + (w - !clock);
                clock := w
              end;
              loop ()
          | Stop s -> s
        end
  in
  loop ()

(* The fast loop's load and accelerator-wait records, kept out of line
   (as is everything the loop reads only to log). Level and queueing
   delay are those of the access just made. A load or wait blocked by
   [load_block_threshold] pays no [Stall], and a blocked load is logged
   at its issue cycle, exactly as [step] reports them. *)
let blocked cfg paid = match cfg.load_block_threshold with Some t -> paid > t | None -> false

let log_load cfg hier id pc addr ~at paid =
  let logs = cfg.hooks.logs in
  let queued = Hierarchy.last_queued hier in
  let queue = if queued < paid then queued else paid in
  let level = Hierarchy.last_level hier in
  if blocked cfg paid then
    log_event logs Event_log.k_cache_access id (at - paid) pc addr level paid queue
  else begin
    log_event logs Event_log.k_cache_access id at pc addr level paid queue;
    if paid > 0 then log_event logs Event_log.k_stall id at pc paid 0 0 0
  end

let log_accel_wait cfg id pc ~at paid =
  if paid > 0 && not (blocked cfg paid) then
    log_event cfg.hooks.logs Event_log.k_stall id at pc paid 0 0 0

(* The fast path: one monolithic loop over the decoded micro-op arrays,
   no per-cycle heap allocation (no closures, no tuples, no hook
   records). Engaged by [run] only when the hooks are closure-free
   ({!Events.closure_free}: nop callbacks, logs allowed) and no stall
   shape is armed, so nothing observable differs from [run_reference]:
   the cycle accounting below mirrors the reference
   instruction-for-instruction, op accounting ([Context.opmark]) runs
   on both paths, every event the reference writes into the hooks'
   logs is written here with the same fields and cycle, and
   [test_engine_diff] holds the two bit-identical.

   [load_block_threshold] only changes where a blocked load or
   accelerator wait is logged: at run level a [Blocked_until] is waited
   out immediately, which lands the same clock and stall_cycles as the
   unblocked branch (issue cost + wait = full cost, paid stall
   accounted either way) — the split only matters to an SMT scheduler
   driving [step] itself. *)
let run_fast cfg hier mem ~clock ~deadline (ctx : Context.t) =
  let u = Uop.of_program ctx.program in
  let ops = u.Uop.op
  and ra = u.Uop.a
  and rb = u.Uop.b
  and rc = u.Uop.c
  and ucost = u.Uop.cost
  and utarget = u.Uop.target in
  let plen = u.Uop.len in
  let regs = ctx.regs in
  let mcfg = Hierarchy.config hier in
  let l1_latency = mcfg.Memconfig.l1.latency in
  let pf_cost = mcfg.Memconfig.prefetch_issue_cost in
  let accel_latency = mcfg.Memconfig.accel_latency in
  let cond_cost = cfg.cond_check_cost in
  let ooo = cfg.ooo_window in
  (* Records as [step] writes them (yields: [a] = 0 primary / 1
     scavenger, [b] = 1 fired), behind one test per event site. *)
  let logging = match cfg.hooks.logs with [] -> false | _ :: _ -> true in
  (* With the icache disabled (the default) [Hierarchy.fetch] always
     returns 0; hoisting the test saves a call per instruction. *)
  let fetch_on = match mcfg.Memconfig.icache with Some _ -> true | None -> false in
  (* [now] and [pc] ride in registers through the tail-recursive loop
     instead of bouncing off the [clock] ref and [ctx.pc] field on
     every instruction; every exit point below syncs them back. *)
  let stop_fault now pc msg =
    clock := now;
    ctx.pc <- pc;
    ctx.status <- Context.Faulted msg;
    Fault msg
  in
  let rec exec now pc =
    if now >= deadline then begin
      clock := now;
      ctx.pc <- pc;
      Out_of_budget
    end
    else if pc < 0 || pc >= plen then stop_fault now pc (Printf.sprintf "pc %d out of range" pc)
    else begin
      if ctx.started_at < 0 then ctx.started_at <- now;
      ctx.instructions <- ctx.instructions + 1;
      let now =
        if fetch_on then begin
          let fstall = Hierarchy.fetch hier ~now pc in
          if fstall > 0 then begin
            ctx.stall_cycles <- ctx.stall_cycles + fstall;
            if logging then
              log_event cfg.hooks.logs Event_log.k_frontend_stall ctx.id (now + fstall) pc fstall
                0 0 0
          end;
          now + fstall
        end
        else now
      in
      let op = Array.unsafe_get ops pc in
      if op < Uop.op_mov_r then begin
        (* binop, register or immediate form *)
        let lhs = Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc) in
        let c = Array.unsafe_get rc pc in
        let rhs = if op >= Uop.op_binop_imm then c else Bigarray.Array1.unsafe_get regs c in
        let bi = if op >= Uop.op_binop_imm then op - Uop.op_binop_imm else op in
        if bi >= 3 && bi <= 4 && rhs = 0 then
          stop_fault now pc (Printf.sprintf "division by zero at pc %d" pc)
        else begin
          let v =
            match bi with
            | 0 -> lhs + rhs
            | 1 -> lhs - rhs
            | 2 -> lhs * rhs
            | 3 -> lhs / rhs
            | 4 -> lhs mod rhs
            | 5 -> lhs land rhs
            | 6 -> lhs lor rhs
            | 7 -> lhs lxor rhs
            | 8 -> lhs lsl (rhs land 63)
            | _ -> lhs asr (rhs land 63)
          in
          Bigarray.Array1.unsafe_set regs (Array.unsafe_get ra pc) v;
          exec (now + Array.unsafe_get ucost pc) (pc + 1)
        end
      end
      else if op >= Uop.op_branch_reg && op < Uop.op_jump then begin
        let lhs = Bigarray.Array1.unsafe_get regs (Array.unsafe_get ra pc) in
        let c = Array.unsafe_get rc pc in
        let rhs = if op >= Uop.op_branch_imm then c else Bigarray.Array1.unsafe_get regs c in
        let ci =
          if op >= Uop.op_branch_imm then op - Uop.op_branch_imm else op - Uop.op_branch_reg
        in
        let taken =
          match ci with
          | 0 -> lhs = rhs
          | 1 -> lhs <> rhs
          | 2 -> lhs < rhs
          | 3 -> lhs <= rhs
          | 4 -> lhs > rhs
          | _ -> lhs >= rhs
        in
        exec
          (now + Array.unsafe_get ucost pc)
          (if taken then Array.unsafe_get utarget pc else pc + 1)
      end
      else if op = Uop.op_mov_r then begin
        Bigarray.Array1.unsafe_set regs (Array.unsafe_get ra pc)
          (Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc));
        exec (now + Array.unsafe_get ucost pc) (pc + 1)
      end
      else if op = Uop.op_mov_i then begin
        Bigarray.Array1.unsafe_set regs (Array.unsafe_get ra pc) (Array.unsafe_get rc pc);
        exec (now + Array.unsafe_get ucost pc) (pc + 1)
      end
      else if op = Uop.op_load then begin
        let addr = Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc) + Array.unsafe_get rc pc in
        if not (Address_space.valid_addr mem addr) then
          stop_fault now pc (Printf.sprintf "load from invalid address %d at pc %d" addr pc)
        else begin
          let latency = Hierarchy.access_latency hier ~now addr in
          let stall = latency - l1_latency in
          let stall = if stall > 0 then stall else 0 in
          let hidden = if ooo < stall then ooo else stall in
          let paid = stall - hidden in
          Bigarray.Array1.unsafe_set regs (Array.unsafe_get ra pc)
            (Address_space.unsafe_load mem addr);
          ctx.stall_cycles <- ctx.stall_cycles + paid;
          let now = now + Array.unsafe_get ucost pc + latency - hidden in
          if logging then log_load cfg hier ctx.id pc addr ~at:now paid;
          exec now (pc + 1)
        end
      end
      else if op = Uop.op_store then begin
        let addr = Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc) + Array.unsafe_get rc pc in
        if not (Address_space.valid_addr mem addr) then
          stop_fault now pc (Printf.sprintf "store to invalid address %d at pc %d" addr pc)
        else begin
          Address_space.unsafe_store mem addr
            (Bigarray.Array1.unsafe_get regs (Array.unsafe_get ra pc));
          Hierarchy.write hier ~now addr;
          exec (now + Array.unsafe_get ucost pc) (pc + 1)
        end
      end
      else if op = Uop.op_prefetch then begin
        let addr = Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc) + Array.unsafe_get rc pc in
        if Address_space.valid_addr mem addr then Hierarchy.prefetch hier ~now addr;
        exec (now + pf_cost) (pc + 1)
      end
      else if op = Uop.op_jump then
        exec (now + Array.unsafe_get ucost pc) (Array.unsafe_get utarget pc)
      else if op = Uop.op_call then begin
        if Context.call_depth ctx >= max_call_depth then
          stop_fault now pc (Printf.sprintf "call stack overflow at pc %d" pc)
        else begin
          Context.push_call ctx (pc + 1);
          exec (now + Array.unsafe_get ucost pc) (Array.unsafe_get utarget pc)
        end
      end
      else if op = Uop.op_ret then begin
        if Context.call_depth ctx = 0 then
          stop_fault now pc (Printf.sprintf "ret with empty call stack at pc %d" pc)
        else exec (now + Array.unsafe_get ucost pc) (Context.pop_call ctx)
      end
      else if op = Uop.op_yield_primary then begin
        if logging then log_event cfg.hooks.logs Event_log.k_yield ctx.id now pc 0 1 0 0;
        ctx.yields <- ctx.yields + 1;
        clock := now;
        ctx.pc <- pc + 1;
        Yielded (Instr.Primary, pc)
      end
      else if op = Uop.op_yield_scavenger then begin
        if ctx.mode = Context.Scavenger then begin
          if logging then log_event cfg.hooks.logs Event_log.k_yield ctx.id now pc 1 1 0 0;
          ctx.yields <- ctx.yields + 1;
          clock := now;
          ctx.pc <- pc + 1;
          Yielded (Instr.Scavenger, pc)
        end
        else begin
          ctx.cond_checks <- ctx.cond_checks + 1;
          let now = now + cond_cost in
          if logging then log_event cfg.hooks.logs Event_log.k_yield ctx.id now pc 1 0 0 0;
          exec now (pc + 1)
        end
      end
      else if op = Uop.op_yield_cond then begin
        let addr = Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc) + Array.unsafe_get rc pc in
        ctx.cond_checks <- ctx.cond_checks + 1;
        let now = now + cond_cost in
        let resident =
          (not (Address_space.valid_addr mem addr))
          ||
          let rcode = Hierarchy.resident_code hier ~now addr in
          rcode >= 0 && rcode <= 1
        in
        if resident then begin
          if logging then log_event cfg.hooks.logs Event_log.k_yield ctx.id now pc 0 0 0 0;
          exec now (pc + 1)
        end
        else begin
          Hierarchy.prefetch hier ~now addr;
          ctx.yields <- ctx.yields + 1;
          if logging then
            log_event cfg.hooks.logs Event_log.k_yield ctx.id (now + pf_cost) pc 0 1 0 0;
          clock := now + pf_cost;
          ctx.pc <- pc + 1;
          Yielded (Instr.Primary, pc)
        end
      end
      else if op = Uop.op_guard then begin
        let addr = Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc) + Array.unsafe_get rc pc in
        let now = now + Array.unsafe_get ucost pc in
        let ok =
          match ctx.domain with Some (lo, hi) -> addr >= lo && addr < hi | None -> true
        in
        if ok then exec now (pc + 1)
        else
          stop_fault now pc
            (Printf.sprintf "sfi violation: address %d outside domain at pc %d" addr pc)
      end
      else if op = Uop.op_accel_issue then begin
        if ctx.accel_done_at >= 0 then
          stop_fault now pc (Printf.sprintf "accelerator busy at pc %d" pc)
        else
          let addr = Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc) + Array.unsafe_get rc pc in
          if not (Address_space.valid_addr mem addr) then
            stop_fault now pc
              (Printf.sprintf "accelerator operand at invalid address %d (pc %d)" addr pc)
          else begin
            let now = now + Array.unsafe_get ucost pc in
            ctx.accel_result <- accel_transform (Address_space.unsafe_load mem addr);
            ctx.accel_done_at <- now + accel_latency;
            exec now (pc + 1)
          end
      end
      else if op = Uop.op_accel_wait then begin
        if ctx.accel_done_at < 0 then
          stop_fault now pc (Printf.sprintf "accelerator wait with no operation at pc %d" pc)
        else begin
          let remaining = ctx.accel_done_at - now in
          let remaining = if remaining > 0 then remaining else 0 in
          let hidden = if ooo < remaining then ooo else remaining in
          let paid = remaining - hidden in
          Bigarray.Array1.unsafe_set regs (Array.unsafe_get ra pc) ctx.accel_result;
          ctx.accel_done_at <- -1;
          ctx.stall_cycles <- ctx.stall_cycles + paid;
          let now = now + Array.unsafe_get ucost pc + paid in
          if logging then log_accel_wait cfg ctx.id pc ~at:now paid;
          exec now (pc + 1)
        end
      end
      else if op = Uop.op_opmark then begin
        Context.opmark ctx ~cycle:now;
        if logging then log_event cfg.hooks.logs Event_log.k_op_retired ctx.id now pc 0 0 0 0;
        exec now (pc + 1)
      end
      else if op = Uop.op_nop then exec (now + Array.unsafe_get ucost pc) (pc + 1)
      else begin
        (* halt *)
        ctx.status <- Context.Done;
        ctx.finished_at <- now;
        clock := now;
        ctx.pc <- pc;
        Halted
      end
    end
  in
  match ctx.status with
  | Context.Done -> Halted
  | Context.Faulted msg -> Fault msg
  | Context.Ready -> exec !clock ctx.pc

let fast_engaged cfg =
  cfg.fast
  && (cfg.hooks == Events.nop || Events.closure_free cfg.hooks)
  && (match cfg.stall_shape with None -> true | Some _ -> false)

let run cfg hier mem ~clock ?(deadline = max_int) (ctx : Context.t) =
  if fast_engaged cfg then run_fast cfg hier mem ~clock ~deadline ctx
  else run_reference cfg hier mem ~clock ~deadline ctx

let run_reference cfg hier mem ~clock ?(deadline = max_int) (ctx : Context.t) =
  run_reference cfg hier mem ~clock ~deadline ctx

let pp_stop fmt = function
  | Halted -> Format.pp_print_string fmt "halted"
  | Yielded (Instr.Primary, pc) -> Format.fprintf fmt "yielded(primary@%d)" pc
  | Yielded (Instr.Scavenger, pc) -> Format.fprintf fmt "yielded(scavenger@%d)" pc
  | Out_of_budget -> Format.pp_print_string fmt "out-of-budget"
  | Fault m -> Format.fprintf fmt "fault(%s)" m
