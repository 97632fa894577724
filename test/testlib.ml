(* Shared helpers for the test suites. *)

open Darm_ir
module Kernel = Darm_kernels.Kernel
module Simulator = Darm_sim.Simulator
module Memory = Darm_sim.Memory
module Metrics = Darm_sim.Metrics
module Pass = Darm_core.Pass

let small_sim_config =
  { Simulator.default_config with max_cycles_per_warp = 50_000_000 }

let run_instance (inst : Kernel.instance) : Metrics.t =
  Simulator.run ~config:small_sim_config inst.Kernel.func
    ~args:inst.Kernel.args ~global:inst.Kernel.global inst.Kernel.launch

let show_mismatch tagline a b =
  match Kernel.first_mismatch a b with
  | None -> ()
  | Some k ->
      Alcotest.failf "%s: first mismatch at %d: %s vs %s" tagline k
        (if k < Array.length a then Kernel.rv_to_string a.(k) else "<none>")
        (if k < Array.length b then Kernel.rv_to_string b.(k) else "<none>")

(** The central correctness oracle: simulate [kernel] untransformed and
    after [transform]; both must match each other and the host
    reference. Returns (baseline metrics, transformed metrics). *)
let check_equivalence ?(transform = fun f -> ignore (Pass.run ~verify_each:true f))
    (kernel : Kernel.t) ~(block_size : int) ~(n : int) ~(seed : int) :
    Metrics.t * Metrics.t =
  let base = kernel.Kernel.make ~seed ~block_size ~n in
  let melded = kernel.Kernel.make ~seed ~block_size ~n in
  transform melded.Kernel.func;
  Verify.run_exn melded.Kernel.func;
  let m_base = run_instance base in
  let m_meld = run_instance melded in
  let out_base = base.Kernel.read_result () in
  let out_meld = melded.Kernel.read_result () in
  let expected = base.Kernel.reference () in
  show_mismatch
    (Printf.sprintf "%s bs=%d: baseline vs reference" kernel.Kernel.tag
       block_size)
    out_base expected;
  show_mismatch
    (Printf.sprintf "%s bs=%d: transformed vs baseline" kernel.Kernel.tag
       block_size)
    out_meld out_base;
  (m_base, m_meld)

(* A hand-built diamond kernel used by several suites:
   out[i] = in[i] < 0 ? (-in[i]) * 2 : in[i] * 3 *)
let diamond_func () : Ssa.func =
  let module D = Dsl in
  D.build_kernel ~name:"diamond"
    ~params:[ ("inp", Types.Ptr Types.Global); ("out", Types.Ptr Types.Global) ]
    (fun ctx params ->
      let inp, out =
        match params with [ i; o ] -> (i, o) | _ -> assert false
      in
      let tid = D.tid ctx in
      let gid = D.add ctx (D.mul ctx (D.bid ctx) (D.bdim ctx)) tid in
      let v = D.load ctx (D.gep ctx inp gid) in
      let r = D.local ctx ~name:"r" Types.I32 in
      D.if_ ctx
        (D.slt ctx v (D.i32 0))
        (fun () -> D.set ctx r (D.mul ctx (D.sub ctx (D.i32 0) v) (D.i32 2)))
        (fun () -> D.set ctx r (D.mul ctx v (D.i32 3)));
      D.store ctx (D.get ctx r) (D.gep ctx out gid))

(* A ladder of [n] diamonds with empty (forwarding) arms on a divergent
   condition: each join picks 1 or 2 by arm in a phi and adds it to the
   previous join's sum, so uses cross blocks all the way down.  The
   phis keep one arm of every diamond alive through SimplifyCFG. *)
let diamond_ladder (n : int) : Ssa.func =
  let f = Ssa.mk_func "ladder" [] in
  let block name =
    let b = Ssa.mk_block name in
    Ssa.append_block f b;
    b
  in
  let emit b op operands blocks ty =
    let i = Ssa.mk_instr op operands blocks ty in
    Ssa.append_instr b i;
    i
  in
  let entry = block "entry" in
  let tid = emit entry Op.Thread_idx [||] [||] Types.I32 in
  let c =
    emit entry (Op.Icmp Op.Islt) [| Ssa.Instr tid; Ssa.Int 4 |] [||] Types.I1
  in
  let rec rung k head sum =
    if k = n then ignore (emit head Op.Ret [||] [||] Types.Void)
    else begin
      let t = block (Printf.sprintf "t%d" k) in
      let e = block (Printf.sprintf "e%d" k) in
      let j = block (Printf.sprintf "j%d" k) in
      ignore (emit head Op.Condbr [| Ssa.Instr c |] [| t; e |] Types.Void);
      ignore (emit t Op.Br [||] [| j |] Types.Void);
      ignore (emit e Op.Br [||] [| j |] Types.Void);
      let phi = emit j Op.Phi [| Ssa.Int 1; Ssa.Int 2 |] [| t; e |] Types.I32 in
      let sum =
        emit j (Op.Ibin Op.Add) [| Ssa.Instr phi; sum |] [||] Types.I32
      in
      rung (k + 1) j (Ssa.Instr sum)
    end
  in
  rung 0 entry (Ssa.Instr tid);
  f

(** Words [g ()] allocates on the minor heap.  Exact and repeatable, so
    scaling tests compare it instead of timing. *)
let minor_words (g : unit -> unit) : float =
  let w0 = Gc.minor_words () in
  g ();
  Gc.minor_words () -. w0

(* ------------------------------------------------------------------ *)
(* Seed ranges and transform thunks shared by the fuzz-style suites    *)

module Gen = Darm_fuzz.Gen
module Tf = Darm_transforms

(** [seeds lo hi] is the inclusive range [lo..hi]. *)
let seeds lo hi =
  let rec go k acc = if k < lo then acc else go (k - 1) (k :: acc) in
  go hi []

let darm f = ignore (Pass.run ~verify_each:true f)

let darm_no_unpred f =
  ignore
    (Pass.run
       ~config:{ Pass.default_config with unpredicate = false }
       ~verify_each:true f)

let fusion f = ignore (Pass.run_branch_fusion ~verify_each:true f)

let tail_merge f =
  ignore (Tf.Tail_merge.run f);
  Verify.run_exn f

let cleanups f =
  ignore (Tf.Simplify_cfg.run f);
  ignore (Tf.Constfold.run f);
  ignore (Tf.Dce.run f);
  Verify.run_exn f

let everything f =
  cleanups f;
  darm f;
  tail_merge f;
  ignore (Tf.Simplify_cfg.if_convert f);
  cleanups f

(** Diamonds, uniform loops and a shared scratch tile read after one
    barrier: the plain shape the differential suites fuzz. *)
let gen_small_cfg =
  {
    Gen.default_cfg with
    max_depth = 2;
    stmts_per_block = 3;
    features =
      { Gen.no_features with loops_uniform = true; shared_tile = true };
  }

(** Run [transform] over generated kernels for every seed; each
    transformed kernel must reproduce the untransformed run's output on
    the same input.  Collects all failures before reporting so one bad
    seed doesn't mask the others. *)
let run_gen_seeds ?(cfg = gen_small_cfg) ?(block_size = 64) ~name ~transform
    ~seeds:seed_list () =
  let check seed =
    let exec f =
      snd
        (Darm_fuzz.Oracle.exec ~n:cfg.Gen.array_size ~block_size
           ~input_seed:seed ~warp_size:64 f)
    in
    let fail fmt =
      Printf.ksprintf Option.some ("seed %d bs %d: " ^^ fmt) seed block_size
    in
    match
      let f = Gen.generate ~cfg ~seed () in
      transform f;
      Verify.run_exn f;
      (exec (Gen.generate ~cfg ~seed ()), exec f)
    with
    | exception e -> fail "%s" (Printexc.to_string e)
    | base, opt ->
        Option.bind (Kernel.first_mismatch base opt) (fun k ->
            fail "outputs differ at index %d (%s vs %s)" k
              (Kernel.rv_to_string base.(k))
              (Kernel.rv_to_string opt.(k)))
  in
  match List.filter_map check seed_list with
  | [] -> ()
  | fs ->
      Alcotest.failf "%s: %d failure(s):\n%s" name (List.length fs)
        (String.concat "\n" fs)

(* ------------------------------------------------------------------ *)
(* Golden cycle pins shared by the memory- and reconvergence-model     *)
(* suites                                                              *)

(** One registry point under [Experiment.run] defaults (seed 2022, the
    kernel's default n): [(tag, block size, stack, its_base, its_opt)].
    [stack] is (base, DARM) cycles under flat memory with the SIMT
    stack, recorded before the hierarchical memory model and ITS
    existed.  [its_base]/[its_opt] pin (cycles, divergent_branches,
    reconvergences, lost_lane_cycles) of the base and DARM runs under
    flat memory with ITS, recorded before the two reconvergence models
    shared one issue core.  ITS cycles equal the stack's everywhere but
    BIT's DARM run, whose melded barriers are accounted per arriving
    lane group. *)
let golden_cycles =
  [
    ( "SB1", 64, (114816, 72064),
      (114816, 512, 512, 2654208), (72064, 0, 0, 0) );
    ( "SB2", 64, (96998, 63538),
      (96998, 646, 646, 2267659), (63538, 70, 70, 204097) );
    ( "SB3", 64, (210662, 121906),
      (210662, 652, 652, 5905387), (121906, 76, 76, 204589) );
    ( "SB1-R", 64, (115328, 79744),
      (115328, 512, 512, 2670592), (79744, 1024, 1024, 147456) );
    ( "SB2-R", 64, (133142, 105384),
      (133142, 1086, 1086, 4366409), (105384, 644, 644, 2616329) );
    ( "SB3-R", 64, (209190, 129070),
      (209190, 652, 652, 5859311), (129070, 1228, 1228, 461673) );
    ( "LUD", 16, (544000, 272640),
      (544000, 128, 128, 4346880), (272640, 128, 128, 3072) );
    ( "BIT", 64, (215776, 145408),
      (215776, 2304, 2304, 9111846), (168592, 2304, 1632, 4776302) );
    ( "DCT", 64, (24576, 22656),
      (24576, 64, 64, 163842), (22656, 192, 192, 16392) );
    ( "MS", 64, (215585, 198612),
      (215585, 819, 819, 12723408), (198612, 819, 819, 11633008) );
  ]

(** Run every golden point with [run] and check its base/DARM cycles
    against the [stack] column. *)
let check_golden_stack ~what
    (run : Kernel.t -> block_size:int -> Darm_harness.Experiment.result) =
  let module E = Darm_harness.Experiment in
  List.iter
    (fun (tag, block_size, (base, opt), _, _) ->
      match Darm_kernels.Registry.find tag with
      | None -> Alcotest.failf "golden kernel %s not registered" tag
      | Some k ->
          let r = run k ~block_size in
          let name field =
            Printf.sprintf "%s %s/bs%d %s" what tag block_size field
          in
          Alcotest.(check bool) (name "correct") true r.E.correct;
          Alcotest.(check int) (name "base cycles") base
            r.E.base.Metrics.cycles;
          Alcotest.(check int) (name "DARM cycles") opt r.E.opt.Metrics.cycles)
    golden_cycles
