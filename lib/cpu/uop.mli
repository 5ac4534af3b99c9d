(** Pre-decoded micro-op cache.

    [decode] lowers an assembled {!Stallhide_isa.Program} once into a
    struct-of-int-arrays form indexed by pc, so the fast-path step loop
    ({!Engine.run} with [fast = true]) dispatches on a dense integer
    opcode and reads operands from flat arrays instead of re-matching
    boxed {!Stallhide_isa.Instr.t} variants every simulated cycle.
    Binop/Branch register- vs immediate-operand forms get distinct
    opcodes; [cost] is the precomputed {!Cost.base}; [target] is the
    resolved control-flow target (-1 when none). {!of_program} caches
    one decode per program, shared by every context that runs it. *)

open Stallhide_isa

(** Opcode constants. Binop opcodes are [op_binop_reg + binop_index]
    (Add..Shr = 0..9) or [op_binop_imm + ...]; branch opcodes are
    [op_branch_reg + cond_index] (Eq..Ge = 0..5) or
    [op_branch_imm + ...]. *)

val op_binop_reg : int

val op_binop_imm : int

val op_mov_r : int

val op_mov_i : int

val op_load : int

val op_store : int

val op_prefetch : int

val op_branch_reg : int

val op_branch_imm : int

val op_jump : int

val op_call : int

val op_ret : int

val op_yield_primary : int

val op_yield_scavenger : int

val op_yield_cond : int

val op_guard : int

val op_accel_issue : int

val op_accel_wait : int

val op_opmark : int

val op_nop : int

val op_halt : int

type t = {
  len : int;
  op : int array;
  a : int array;  (** destination register (or stored-value register) *)
  b : int array;  (** base / source register *)
  c : int array;  (** immediate / displacement / second source register *)
  cost : int array;  (** precomputed {!Cost.base} *)
  target : int array;  (** resolved control-flow target, -1 if none *)
}

val binop_index : Instr.binop -> int

val cond_index : Instr.cond -> int

(** A fresh decode of the program.
    @raise Invalid_argument on a register operand out of range. *)
val decode : Program.t -> t

(** The program's decode, built by the first call and cached on the
    program ({!Program.decoded}) for every later one. Safe to call from
    several domains. *)
val of_program : Program.t -> t
