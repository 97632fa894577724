(* What a workload hands the main loop, plus helpers shared by the four
   workloads. *)

open Darm_ir
module Sim = Darm_sim.Simulator
module Metrics = Darm_sim.Metrics
module Memory = Darm_sim.Memory
module Kernel = Darm_kernels.Kernel

type outcome = {
  ok : bool;
  detail : string;  (** why the operation failed; "" when it passed *)
  det : string;
      (** deterministic counters of the operation; must repeat exactly in
          every round and in the traced phase *)
  cycles : int;  (** simulated cycles the benchmark's own calls retired *)
  speedups : (string * int * int) list;
      (** (machine model, base cycles, melded cycles) *)
}

type op = { label : string; run : unit -> outcome }

type instance = {
  ops : op array;  (** one round, in canonical order *)
  probe : unit -> Ssa.func list;
      (** fresh copies of the input kernels, for the standalone
          analysis timings of the traced run *)
}

type t = {
  name : string;
  simulates : bool;
      (** the operations call [Simulator.run] themselves in both phases,
          so every round must retire the same nonzero cycle total *)
  setup : unit -> instance;
  details : rounds:int -> unit;
      (** prints workload-specific rows after a phase *)
}

let passed ?(cycles = 0) ?(speedups = []) det =
  { ok = true; detail = ""; det; cycles; speedups }

let failed detail = { ok = false; detail; det = ""; cycles = 0; speedups = [] }

let fcount name v = Span.count name (float_of_int v)

let instrs (f : Ssa.func) =
  List.fold_left (fun n b -> n + List.length b.Ssa.instrs) 0 f.Ssa.blocks_list

let blocks (f : Ssa.func) = List.length f.Ssa.blocks_list

let count_ir ~side (f : Ssa.func) =
  fcount ("ir.blocks_" ^ side) (blocks f);
  fcount ("ir.instrs_" ^ side) (instrs f)

(* The three machine models of the paper-eval sweep. *)
let models =
  [
    ("flat-stack", Sim.default_config);
    ( "hier-stack",
      { Sim.default_config with Sim.mem_model = Sim.Hier Sim.default_hier_params }
    );
    ( "flat-its",
      {
        Sim.default_config with
        Sim.reconvergence = Sim.Its Sim.default_its_params;
      } );
  ]

let model_names = List.map fst models

(** Simulate [f] under [model] inside a [gpu_sim.<model>] span and count
    its cycles; [role] is ["base"] or ["opt"]. *)
let simulate ~model ~role (f : Ssa.func) ~args ~global launch : Metrics.t =
  let config = List.assoc model models in
  let span = "gpu_sim." ^ model in
  let m = Span.call span (fun () -> Sim.run ~config f ~args ~global launch) in
  fcount (span ^ ".cycles_" ^ role) m.Metrics.cycles;
  if role = "opt" then
    fcount (span ^ ".lost_lane_cycles_opt") m.Metrics.lost_lane_cycles;
  fcount (span ^ ".l1_hits") m.Metrics.l1_hits;
  fcount (span ^ ".l1_misses") m.Metrics.l1_misses;
  m

let pass_stats (st : Darm_core.Pass.stats) =
  let module P = Darm_core.Pass in
  fcount "core.iterations" st.P.iterations;
  fcount "core.melds_applied" st.P.melds_applied;
  fcount "core.pairs_scored" st.P.pairs_scored;
  fcount "core.candidates_prefiltered" st.P.candidates_prefiltered;
  fcount "core.analysis_recomputes_avoided" st.P.analysis_recomputes_avoided;
  Printf.sprintf "melds=%d pairs=%d prefiltered=%d iterations=%d"
    st.P.melds_applied st.P.pairs_scored st.P.candidates_prefiltered
    st.P.iterations

let checker_errors (r : Darm_checks.Checker.report) =
  fcount "checks.errors" (List.length (Darm_checks.Checker.errors r))

(** Global memory holding the two [n]-cell arrays of a generated kernel,
    filled as [Darm_fuzz.Gen.instance] and the fuzz oracle fill them. *)
let generated_memory ~input_seed ~n =
  let a = Kernel.random_int_array ~seed:(input_seed + 1) ~n ~bound:1000 in
  let b = Kernel.random_int_array ~seed:(input_seed + 2) ~n ~bound:1000 in
  let global = Memory.create ~space:Memory.Sp_global (2 * n) in
  let pa = Memory.alloc_of_int_array global a in
  let pb = Memory.alloc_of_int_array global b in
  let image () =
    Array.append
      (Memory.read_int_array global pa n)
      (Memory.read_int_array global pb n)
  in
  (global, [| pa; pb |], image)

let parse text =
  match Span.call "ir.parse" (fun () -> Parser.parse_func text) with
  | Ok f -> f
  | Error e -> failwith ("parse: " ^ e)
