(* Reconvergence-model invariants.

   Stack is the contract: making reconvergence pluggable must not move
   a single stack-model cycle, so the registry kernels are pinned
   against golden cycle counts recorded immediately before the
   independent-thread-scheduling model landed (and the explicit
   [~reconvergence:Stack] spelling must agree with the default).  ITS
   is accounting plus liveness: the per-branch lost-lane attribution
   must close exactly against the global counter under both models,
   non-divergent kernels must cost identical cycles under both,
   barriers reached through divergent control flow must not deadlock,
   MinPC scheduling must be deterministic (byte-identical reports for
   any domain-pool size), the runaway-loop guard must be per-lane, and
   generated kernels must produce the same final memory under both
   models (qcheck). *)

module E = Darm_harness.Experiment
module Report = Darm_harness.Report
module Profile = Darm_harness.Profile
module Export = Darm_obs.Export
module Registry = Darm_kernels.Registry
module Kernel = Darm_kernels.Kernel
module Memory = Darm_sim.Memory
module M = Darm_sim.Metrics
module Sim = Darm_sim.Simulator
module Gen = Darm_fuzz.Gen
module Parser = Darm_ir.Parser
module J = Darm_obs.Json

let qcheck t = QCheck_alcotest.to_alcotest t
let its = Sim.Its Sim.default_its_params
let hier = Sim.Hier Sim.default_hier_params

(* ------------------------------------------------------------------ *)
(* Stack byte-identity *)

(* The explicit [~reconvergence:Stack] spelling against the stack
   column of the shared golden table ({!Testlib.golden_cycles}),
   recorded before reconvergence became pluggable.  suite_mem_model.ml
   pins the default configuration to the same column, so together the
   two tests prove explicit Stack = default. *)
let test_stack_golden_cycles () =
  Testlib.check_golden_stack ~what:"stack" (fun k ~block_size ->
      E.run ~reconvergence:Sim.Stack k ~block_size)

(* The ITS columns of the same table: base/DARM cycles plus the
   divergence counters of both runs, so a change to MinPC scheduling,
   split recording or reconvergence accounting shows up even where the
   cycles happen to agree with the stack model. *)
let test_its_golden () =
  List.iter
    (fun (tag, block_size, _, its_base, its_opt) ->
      match Registry.find tag with
      | None -> Alcotest.failf "golden kernel %s not registered" tag
      | Some k ->
          let r = E.run ~reconvergence:its k ~block_size in
          Alcotest.(check bool) (tag ^ " its correct") true r.E.correct;
          List.iter
            (fun (side, (m : M.t), (cycles, splits, reconv, lost)) ->
              let name what =
                Printf.sprintf "its %s/bs%d %s %s" tag block_size side what
              in
              Alcotest.(check int) (name "cycles") cycles m.M.cycles;
              Alcotest.(check int)
                (name "divergent_branches")
                splits m.M.divergent_branches;
              Alcotest.(check int) (name "reconvergences") reconv
                m.M.reconvergences;
              Alcotest.(check int) (name "lost_lane_cycles") lost
                m.M.lost_lane_cycles)
            [ ("base", r.E.base, its_base); ("DARM", r.E.opt, its_opt) ])
    Testlib.golden_cycles

(* ------------------------------------------------------------------ *)
(* Attribution identities (both models) *)

(* The per-branch divergence attribution must close exactly against
   the global counters: splits sum to [divergent_branches], lost-lane
   cycles sum to [lost_lane_cycles], reconvergence joins never exceed
   the global count, nothing goes negative. *)
let check_attr_identities ~what (m : M.t) =
  let stats = M.branch_stats m in
  let sum f = List.fold_left (fun a (_, s) -> a + f s) 0 stats in
  List.iter
    (fun (id, (s : M.branch_stat)) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s counters non-negative" what id)
        true
        (s.M.br_divergences >= 0 && s.M.br_cycles >= 0
        && s.M.br_lost_lane_cycles >= 0
        && s.M.br_reconvergences >= 0))
    stats;
  Alcotest.(check int)
    (what ^ " per-branch splits sum")
    m.M.divergent_branches
    (sum (fun s -> s.M.br_divergences));
  Alcotest.(check int)
    (what ^ " per-branch lost-lane cycles sum exactly")
    m.M.lost_lane_cycles
    (sum (fun s -> s.M.br_lost_lane_cycles));
  Alcotest.(check bool)
    (what ^ " per-branch reconvergences bounded")
    true
    (sum (fun s -> s.M.br_reconvergences) <= m.M.reconvergences)

let test_attr_identities_both_models () =
  List.iter
    (fun (k : Kernel.t) ->
      let block_size = List.hd k.Kernel.block_sizes in
      let n = min k.Kernel.default_n 512 in
      List.iter
        (fun (model, rc) ->
          let r = E.run ~n ~reconvergence:rc k ~block_size in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s correct" k.Kernel.tag model)
            true r.E.correct;
          check_attr_identities
            ~what:(Printf.sprintf "%s %s base" k.Kernel.tag model)
            r.E.base;
          check_attr_identities
            ~what:(Printf.sprintf "%s %s opt" k.Kernel.tag model)
            r.E.opt)
        [ ("stack", Sim.Stack); ("its", its) ])
    Registry.all

(* ------------------------------------------------------------------ *)
(* Direct-execution helper for hand-written kernels *)

let parse text =
  match Parser.parse_func text with
  | Ok f -> f
  | Error e -> Alcotest.failf "parse: %s" e

(* Gen.launch's two-array workload under this suite's own simulator
   configuration. *)
let exec ?(reconvergence = Sim.Stack) ?(max_cycles = 1_000_000)
    ?(block_size = 64) ?(n = 128) text : M.t * Memory.rv array =
  let inst = Gen.launch ~n ~block_size ~input_seed:10 (parse text) in
  let config =
    { Sim.default_config with max_cycles_per_warp = max_cycles; reconvergence }
  in
  let m = E.run_instance ~config inst in
  (m, inst.Kernel.read_result ())

(* ------------------------------------------------------------------ *)
(* Non-divergent kernels: the models must agree cycle-for-cycle *)

let uniform_kernel =
  {|
kernel @uniform(%a: ptr(global), %b: ptr(global)) {
entry:
  %0 = thread.idx
  %1 = block.dim
  %2 = block.idx
  %3 = mul %2, %1
  %4 = add %3, %0
  %5 = gep %a, %4
  %6 = load i32, %5
  %7 = add %6, 7
  %8 = gep %b, %4
  store %7, %8
  ret
}
|}

let test_uniform_identical_cycles () =
  let ms, out_s = exec ~reconvergence:Sim.Stack uniform_kernel in
  let mi, out_i = exec ~reconvergence:its uniform_kernel in
  Alcotest.(check int) "cycles identical" ms.M.cycles mi.M.cycles;
  Alcotest.(check int) "instructions identical" ms.M.instructions
    mi.M.instructions;
  Alcotest.(check int) "no divergence (stack)" 0 ms.M.divergent_branches;
  Alcotest.(check int) "no divergence (its)" 0 mi.M.divergent_branches;
  Alcotest.(check bool) "memory identical" true
    (Kernel.rv_array_equal out_s out_i)

(* ------------------------------------------------------------------ *)
(* Barrier reached through divergent control flow *)

(* Lanes take divergent-trip loops, then all meet a block-uniform
   barrier and read a neighbour's shared-tile cell.  Under ITS the
   lanes arrive at the barrier at different points of the schedule;
   the convergence optimizer must still release them (no deadlock) and
   the final memory must match the stack model. *)
let barrier_kernel =
  {|
kernel @its_smoke(%a: ptr(global), %b: ptr(global)) {
entry:
  %0 = alloc.shared 128
  %1 = thread.idx
  %2 = block.dim
  %3 = block.idx
  %4 = mul %3, %2
  %5 = add %4, %1
  %6 = gep %b, %5
  %7 = gep %a, %5
  %8 = load i32, %7
  %9 = and %1, 3
  %10 = gep %0, %1
  store %8, %10
  syncthreads
  br while.head
while.head:
  %11 = phi i32 [%14, while.body], [0, entry]
  %12 = phi i32 [%15, while.body], [%8, entry]
  %13 = icmp slt %11, %9
  condbr %13, while.body, while.end
while.body:
  %14 = add %11, 1
  %15 = add %12, %11
  br while.head
while.end:
  syncthreads
  %16 = and %1, 1
  %17 = icmp slt 0, %16
  condbr %17, if.then, if.else
if.then:
  %18 = sub %1, 1
  %19 = gep %0, %18
  %20 = load i32, %19
  br if.end
if.else:
  br if.end
if.end:
  %21 = phi i32 [%20, if.then], [%12, if.else]
  %22 = add %21, %12
  store %22, %6
  ret
}
|}

let test_barrier_under_divergence () =
  let ms, out_s = exec ~reconvergence:Sim.Stack barrier_kernel in
  let mi, out_i = exec ~reconvergence:its barrier_kernel in
  Alcotest.(check bool) "stack run retired cycles" true (ms.M.cycles > 0);
  Alcotest.(check bool) "its run retired cycles" true (mi.M.cycles > 0);
  Alcotest.(check bool) "final memory identical" true
    (Kernel.rv_array_equal out_s out_i);
  check_attr_identities ~what:"barrier-kernel its" mi

(* ------------------------------------------------------------------ *)
(* Per-lane runaway-loop guard *)

(* Odd and even lanes run disjoint 200-trip loops.  The stack model
   serializes the two arms on one warp-wide budget (~1600+ issues);
   under ITS each lane only spends budget on issues it participates in
   (~800).  A 1200-issue budget therefore separates the two models:
   ITS completes, the stack model must trip its guard — proof the ITS
   guard is per-lane, not per-warp-total. *)
let perlane_kernel =
  {|
kernel @perlane(%a: ptr(global), %b: ptr(global)) {
entry:
  %0 = thread.idx
  %1 = and %0, 1
  %2 = icmp slt 0, %1
  condbr %2, odd.head, even.head
odd.head:
  %3 = phi i32 [%5, odd.body], [0, entry]
  %4 = icmp slt %3, 200
  condbr %4, odd.body, odd.end
odd.body:
  %5 = add %3, 1
  br odd.head
odd.end:
  ret
even.head:
  %6 = phi i32 [%8, even.body], [0, entry]
  %7 = icmp slt %6, 200
  condbr %7, even.body, even.end
even.body:
  %8 = add %6, 1
  br even.head
even.end:
  ret
}
|}

(* Odd lanes spin forever; the guard must turn the hang into a
   deterministic [Sim_error] under both models. *)
let runaway_kernel =
  {|
kernel @runaway(%a: ptr(global), %b: ptr(global)) {
entry:
  %0 = thread.idx
  %1 = and %0, 1
  %2 = icmp slt 0, %1
  condbr %2, spin, exit
spin:
  br spin
exit:
  ret
}
|}

let test_per_lane_budget () =
  (match exec ~reconvergence:its ~max_cycles:1200 perlane_kernel with
  | m, _ -> Alcotest.(check bool) "its completes" true (m.M.cycles > 0)
  | exception Sim.Sim_error e ->
      Alcotest.failf "its tripped a per-lane budget it should fit: %s" e);
  (match exec ~reconvergence:Sim.Stack ~max_cycles:1200 perlane_kernel with
  | _ -> Alcotest.fail "stack budget should exhaust on the serialized arms"
  | exception Sim.Sim_error _ -> ())

(* Three issues per warp, once straight-line and once through a
   barrier: the guard is checked before every issue and every issue
   charges it, barriers included, so a budget of exactly three
   completes and a budget of two trips under both models. *)
let three_issue_kernels =
  [
    ( "uniform",
      {|
kernel @three(%a: ptr(global), %b: ptr(global)) {
entry:
  %0 = thread.idx
  %1 = add %0, 1
  ret
}
|} );
    ( "barrier",
      {|
kernel @three_sync(%a: ptr(global), %b: ptr(global)) {
entry:
  %0 = thread.idx
  syncthreads
  ret
}
|} );
  ]

let test_runaway_guard_both_models () =
  List.iter
    (fun (model, rc) ->
      (match exec ~reconvergence:rc ~max_cycles:10_000 runaway_kernel with
      | _ -> Alcotest.failf "%s: runaway loop must trip the guard" model
      | exception Sim.Sim_error _ -> ());
      List.iter
        (fun (shape, text) ->
          (match exec ~reconvergence:rc ~max_cycles:3 text with
          | _ -> ()
          | exception Sim.Sim_error e ->
              Alcotest.failf "%s %s: budget = issue count must complete: %s"
                model shape e);
          match exec ~reconvergence:rc ~max_cycles:2 text with
          | _ ->
              Alcotest.failf "%s %s: budget = issue count - 1 must trip" model
                shape
          | exception Sim.Sim_error _ -> ())
        three_issue_kernels)
    [ ("stack", Sim.Stack); ("its", its) ]

(* ------------------------------------------------------------------ *)
(* MinPC determinism: byte-identical reports for any pool size *)

let test_its_report_byte_identical_across_jobs () =
  let points =
    List.map (fun k -> (k, List.hd k.Kernel.block_sizes)) Registry.all
  in
  let render jobs =
    let rs = Report.compute_many ~jobs ~n:256 ~reconvergence:its points in
    List.iter
      (fun r ->
        Alcotest.(check string)
          (r.Report.rp_kernel ^ " model tag")
          "its" r.Report.rp_reconvergence)
      rs;
    ( String.concat "\n" (List.map Report.to_text rs),
      J.to_string (Report.many_to_json rs) )
  in
  let t1, j1 = render 1 in
  let t2, j2 = render 2 in
  let t4, j4 = render 4 in
  Alcotest.(check string) "its text jobs 1 = 2" t1 t2;
  Alcotest.(check string) "its text jobs 1 = 4" t1 t4;
  Alcotest.(check string) "its json jobs 1 = 2" j1 j2;
  Alcotest.(check string) "its json jobs 1 = 4" j1 j4

(* ------------------------------------------------------------------ *)
(* Timeline bytes *)

(* MD5 of the JSONL timeline that [darm_opt simulate -k K
   --reconvergence R [--mem-model hier] --trace-out F --format jsonl]
   writes (block size 128, the DARM pass).  The BIT digests were
   recorded before the two reconvergence models shared one issue core,
   the PCM and SB1-R ones before the ITS scheduler's converged fast
   path, when those two allocated the most per simulated cycle under
   ITS of all evaluation kernels (253 and 188 minor words, BIT 155).
   Pins every warp.diverge / warp.reconverge / warp.barrier /
   mem.inflight emission: its order, timestamp and attributes. *)
let test_timeline_digests () =
  List.iter
    (fun (tag, what, mem_model, reconvergence, digest) ->
      let k =
        match Registry.find tag with
        | Some k -> k
        | None -> Alcotest.fail (tag ^ " not registered")
      in
      let tr, _ =
        Profile.run_point ~seed:2022 ~mem_model ~reconvergence
          ~transform:(fun tr -> Profile.darm_obs_transform tr)
          k ~block_size:128
      in
      Alcotest.(check string)
        (tag ^ " " ^ what ^ " timeline md5")
        digest
        (Digest.to_hex (Digest.string (Export.to_jsonl tr))))
    [
      ("BIT", "stack", Sim.Flat, Sim.Stack, "93e5b5a838ccbb8e9b8cafe00eca347c");
      ("BIT", "its", Sim.Flat, its, "424bdca35dd0725557adc40589ed13ff");
      ("BIT", "hier x its", hier, its, "5760d371901a7221540fca5d36afaed2");
      ("PCM", "its", Sim.Flat, its, "6f2cc224b80733e155b0cd71adab41fe");
      ("SB1-R", "its", Sim.Flat, its, "c9e4ec6d05895073c05025ef5679391d");
    ]

(* ------------------------------------------------------------------ *)
(* Allocation *)

(* Minor words one [Simulator.run] allocates per simulated cycle: a
   deterministic function of the kernel and the model, since the run
   allocates only on this domain. *)
let words_per_cycle (k : Kernel.t) reconvergence =
  let inst = k.Kernel.make ~seed:2022 ~block_size:64 ~n:k.Kernel.default_n in
  let config = { E.sim_config with Sim.reconvergence } in
  let before = Gc.minor_words () in
  let m =
    Sim.run ~config inst.Kernel.func ~args:inst.Kernel.args
      ~global:inst.Kernel.global inst.Kernel.launch
  in
  (Gc.minor_words () -. before) /. float_of_int m.M.cycles

(* ITS keeps its lane state in int arrays, so scheduling adds little to
   what executing the instructions allocates: at most twice the stack
   model's words per cycle on the kernels with the heaviest ITS
   scheduling. *)
let test_its_allocation () =
  List.iter
    (fun tag ->
      let k =
        match Registry.find tag with
        | Some k -> k
        | None -> Alcotest.fail (tag ^ " not registered")
      in
      let stack = words_per_cycle k Sim.Stack in
      let its = words_per_cycle k its in
      if its > 2. *. stack then
        Alcotest.failf
          "%s: its allocates %.1f minor words per cycle, stack %.1f (> 2x)"
          tag its stack)
    [ "BIT"; "PCM" ]

(* ------------------------------------------------------------------ *)
(* Cross-model differential on generated kernels *)

let test_xmodel_generated =
  qcheck
    (QCheck2.Test.make ~count:25
       ~name:"stack and its agree on final memory (generated kernels)"
       QCheck2.Gen.(1 -- 10_000)
       (fun seed ->
         let run rc =
           (* a fresh instance per run: the kernel writes its buffers *)
           let inst = Gen.instance ~cfg:Gen.smoke_cfg ~seed ~block_size:64 () in
           let config = { E.sim_config with Sim.reconvergence = rc } in
           let m = E.run_instance ~config inst in
           (m, inst.Kernel.read_result ())
         in
         let _, out_s = run Sim.Stack in
         let mi, out_i = run its in
         check_attr_identities
           ~what:(Printf.sprintf "gen seed %d its" seed)
           mi;
         Kernel.rv_array_equal out_s out_i))

(* ------------------------------------------------------------------ *)
(* Composition: Hier x Its *)

let test_hier_its_composition () =
  List.iter
    (fun (k : Kernel.t) ->
      let block_size = List.hd k.Kernel.block_sizes in
      let n = min k.Kernel.default_n 512 in
      let r = E.run ~n ~mem_model:hier ~reconvergence:its k ~block_size in
      Alcotest.(check bool) (k.Kernel.tag ^ " correct") true r.E.correct;
      List.iter
        (fun (side, (m : M.t)) ->
          Alcotest.(check int)
            (Printf.sprintf "%s %s l1 classification covers every access"
               k.Kernel.tag side)
            m.M.global_accesses
            (m.M.l1_hits + m.M.l1_misses);
          check_attr_identities
            ~what:(Printf.sprintf "%s hier+its %s" k.Kernel.tag side)
            m)
        [ ("base", r.E.base); ("opt", r.E.opt) ])
    Registry.all

let suites =
  [
    ( "reconvergence",
      [
        Alcotest.test_case "stack: golden cycles pinned" `Slow
          test_stack_golden_cycles;
        Alcotest.test_case "its: golden cycles and counters pinned" `Slow
          test_its_golden;
        Alcotest.test_case "attribution identities under both models" `Quick
          test_attr_identities_both_models;
        Alcotest.test_case "non-divergent kernels cost identical cycles"
          `Quick test_uniform_identical_cycles;
        Alcotest.test_case "its: barrier under divergence is deadlock-free"
          `Quick test_barrier_under_divergence;
        Alcotest.test_case "its: runaway guard is per-lane" `Quick
          test_per_lane_budget;
        Alcotest.test_case "runaway loop trips the guard under both models"
          `Quick test_runaway_guard_both_models;
        Alcotest.test_case "its: report byte-identical across jobs" `Slow
          test_its_report_byte_identical_across_jobs;
        Alcotest.test_case "timeline bytes pinned (stack, its, hier x its)"
          `Quick test_timeline_digests;
        Alcotest.test_case "its: at most 2x stack minor words per cycle"
          `Quick test_its_allocation;
        test_xmodel_generated;
        Alcotest.test_case "hier x its: composition invariants" `Quick
          test_hier_its_composition;
      ] );
  ]
