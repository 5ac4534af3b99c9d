(* What one simulated workload instance produced. Every field is a
   simulated quantity, so it repeats exactly for a given seed; host
   times are measured around [run] by the caller. *)

type t = {
  fingerprint : Stallhide_util.Json.t;
      (** compared for equality between reps, between the traced and
          untraced runs, and against the one-shot harness call *)
  attempted : int;
  completed : int;
  dropped : int;  (** faulted, shed, expired or unanswered *)
  instructions : int;  (** retired by every context of the instance *)
  cycles : int;  (** simulated cycles the completed operations took *)
  latency : Stallhide_runtime.Latency.summary;
      (** per-operation latency, failed operations counted at the deadline *)
  counts : (string * float) list;  (** per-layer simulated counters *)
}

(* The outcome with its fingerprint reduced to a digest, so that reps
   after the first do not hold the whole fingerprint in memory. *)
let digested o =
  match o.fingerprint with
  | Stallhide_util.Json.String _ -> o
  | fp -> { o with fingerprint = Stallhide_util.Json.String (Digest.to_hex (Digest.string (Stallhide_util.Json.to_string fp))) }

let ops_per_kcyc o = if o.cycles = 0 then 0.0 else 1000.0 *. float_of_int o.completed /. float_of_int o.cycles

(* Trials of one rep as one outcome: totals summed, latency summaries
   merged count-weighted ([Latency.merge]), per-layer counts taken from
   the first trial. *)
let combine = function
  | [ o ] -> o
  | o :: _ as os ->
      let sum f = List.fold_left (fun a x -> a + f x) 0 os in
      {
        fingerprint = Stallhide_util.Json.Null (* reps compare their trials one by one *);
        attempted = sum (fun x -> x.attempted);
        completed = sum (fun x -> x.completed);
        dropped = sum (fun x -> x.dropped);
        instructions = sum (fun x -> x.instructions);
        cycles = sum (fun x -> x.cycles);
        latency = Stallhide_runtime.Latency.merge (List.map (fun x -> x.latency) os);
        counts = o.counts;
      }
  | [] -> invalid_arg "Outcome.combine: no trials"

(* Everything a single-layer run needs, captured from one instance. *)
type capture = {
  programs : Stallhide_isa.Program.t list;  (** every program the instance runs *)
  image : Stallhide_mem.Address_space.t;
  memcfg : Stallhide_mem.Memconfig.t;
  requests : unit -> Stallhide_cpu.Context.t list;
      (** fresh primary contexts; the head is the representative one *)
  scavengers : unit -> Stallhide_cpu.Context.t list;  (** fresh scavenger contexts *)
  live_replay : (unit -> int * int * int) option;
      (** replays one machine's served requests through a fresh
          [Machine.Live]; returns (steps, host ns in steps, requests) —
          for workloads whose [Live.step] calls are not the benchmark's
          own *)
}

(* Fractions of the modelled memory hierarchy's demand accesses, summed
   over every hierarchy the instance built. *)
let mem_counts (stats : Stallhide_mem.Mem_stats.t list) =
  let open Stallhide_mem.Mem_stats in
  let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
  let demand = sum (fun s -> s.demand_accesses) in
  let frac n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d in
  [
    ("mem.l1_hit_frac", frac (sum (fun s -> s.l1_hits)) demand);
    ("mem.l2_hit_frac", frac (sum (fun s -> s.l2_hits)) demand);
    ("mem.l3_hit_frac", frac (sum (fun s -> s.l3_hits)) demand);
    ("mem.dram_frac", frac (sum (fun s -> s.dram_accesses)) demand);
    ("mem.useless_prefetch_frac", frac (sum (fun s -> s.useless_prefetches)) (sum (fun s -> s.prefetches)));
  ]
