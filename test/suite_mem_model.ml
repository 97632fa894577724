(* Memory-model invariants.

   Flat is the contract: introducing the hierarchical model must not
   move a single Flat cycle, so the registry kernels are pinned against
   golden cycle counts recorded immediately before the hierarchy
   landed.  Hier is accounting: the L1 classification and the per-site
   attribution must close exactly against the global counters — on
   every registry kernel and on generated kernels (qcheck) — and the
   memory section of [darm_opt report] must stay byte-identical for
   any domain-pool size. *)

module E = Darm_harness.Experiment
module Report = Darm_harness.Report
module Registry = Darm_kernels.Registry
module Kernel = Darm_kernels.Kernel
module M = Darm_sim.Metrics
module Sim = Darm_sim.Simulator
module Gen = Darm_fuzz.Gen
module J = Darm_obs.Json

let qcheck t = QCheck_alcotest.to_alcotest t

let hier = Sim.Hier Sim.default_hier_params

(* ------------------------------------------------------------------ *)
(* Flat byte-identity *)

(* The default configuration (flat memory, SIMT stack) against the
   stack column of the shared golden table ({!Testlib.golden_cycles}),
   recorded before the hierarchical model was introduced.  The Flat
   path shares all its accounting code with Hier, so any drift here
   means the "pure addition" claim broke. *)
let test_flat_golden_cycles () =
  Testlib.check_golden_stack ~what:"default" (fun k ~block_size ->
      E.run k ~block_size)

(* Under Flat the hierarchy's counters must stay silent: nothing is
   classified, nothing stalls, and mem_cycles never exceeds the total. *)
let test_flat_hier_counters_silent () =
  List.iter
    (fun (k : Kernel.t) ->
      let block_size = List.hd k.Kernel.block_sizes in
      let n = min k.Kernel.default_n 512 in
      let r = E.run ~n k ~block_size in
      List.iter
        (fun (side, (m : M.t)) ->
          let name what = Printf.sprintf "%s %s %s" k.Kernel.tag side what in
          Alcotest.(check int) (name "l1_hits") 0 m.M.l1_hits;
          Alcotest.(check int) (name "l1_misses") 0 m.M.l1_misses;
          Alcotest.(check int) (name "mem_stall_cycles") 0 m.M.mem_stall_cycles;
          Alcotest.(check int)
            (name "bank_conflict_cycles")
            0 m.M.bank_conflict_cycles;
          Alcotest.(check bool)
            (name "mem_cycles bounded")
            true
            (m.M.mem_cycles >= 0 && m.M.mem_cycles <= m.M.cycles))
        [ ("base", r.E.base); ("opt", r.E.opt) ])
    Registry.all

(* ------------------------------------------------------------------ *)
(* Hier accounting identities *)

(* Every identity the hierarchical model promises, checked on one
   metrics snapshot. *)
let check_hier_identities ~what (m : M.t) =
  let name field = Printf.sprintf "%s %s" what field in
  Alcotest.(check int)
    (name "l1 classification covers every access")
    m.M.global_accesses
    (m.M.l1_hits + m.M.l1_misses);
  let sites = List.map snd (M.site_stats m) in
  let sum f = List.fold_left (fun a s -> a + f s) 0 sites in
  Alcotest.(check int)
    (name "site accesses sum")
    m.M.global_accesses
    (sum (fun s -> s.M.ms_accesses));
  Alcotest.(check int)
    (name "site transactions sum")
    m.M.global_transactions
    (sum (fun s -> s.M.ms_transactions));
  Alcotest.(check int)
    (name "site l1 hits sum")
    m.M.l1_hits
    (sum (fun s -> s.M.ms_l1_hits));
  Alcotest.(check int)
    (name "site l1 misses sum")
    m.M.l1_misses
    (sum (fun s -> s.M.ms_l1_misses));
  Alcotest.(check int)
    (name "site stall cycles sum")
    m.M.mem_stall_cycles
    (sum (fun s -> s.M.ms_stall_cycles));
  Alcotest.(check int)
    (name "site conflict cycles sum")
    m.M.bank_conflict_cycles
    (sum (fun s -> s.M.ms_bank_conflict_cycles));
  Alcotest.(check int)
    (name "site mem cycles sum")
    m.M.mem_cycles
    (sum (fun s -> s.M.ms_cycles));
  List.iter
    (fun (id, (s : M.mem_site_stat)) ->
      Alcotest.(check int)
        (name (id ^ " per-site l1 classification"))
        s.M.ms_accesses
        (s.M.ms_l1_hits + s.M.ms_l1_misses);
      Alcotest.(check bool)
        (name (id ^ " per-site counters sane"))
        true
        (s.M.ms_issues >= 0 && s.M.ms_cycles >= 0 && s.M.ms_stall_cycles >= 0))
    (M.site_stats m)

let test_hier_identities_all_kernels () =
  List.iter
    (fun (k : Kernel.t) ->
      let block_size = List.hd k.Kernel.block_sizes in
      let n = min k.Kernel.default_n 512 in
      let r = E.run ~n ~mem_model:hier k ~block_size in
      Alcotest.(check bool) (k.Kernel.tag ^ " correct") true r.E.correct;
      check_hier_identities ~what:(k.Kernel.tag ^ " base") r.E.base;
      check_hier_identities ~what:(k.Kernel.tag ^ " opt") r.E.opt)
    Registry.all

(* The same identities must hold on arbitrary generated kernels — the
   registry exercises a handful of access shapes; the generator covers
   the long tail (divergent loops, shared tiles, switch ladders). *)
let test_hier_identities_generated =
  qcheck
    (QCheck2.Test.make ~count:25
       ~name:"hier accounting identities on generated kernels"
       QCheck2.Gen.(1 -- 10_000)
       (fun seed ->
         let inst =
           Gen.instance ~cfg:Gen.smoke_cfg ~seed ~block_size:64 ()
         in
         let config = { E.sim_config with Sim.mem_model = hier } in
         let m = E.run_instance ~config inst in
         check_hier_identities
           ~what:(Printf.sprintf "gen seed %d" seed)
           m;
         true))

(* Switching the model rescales memory latency (an L1 hit costs less
   than the flat global latency, a miss or a stall costs more) but must
   never touch anything else: non-memory cycles — total minus
   memory-charged — are identical across models, and both models agree
   on every count-shaped counter. *)
let test_hier_changes_only_memory_cycles () =
  List.iter
    (fun (k : Kernel.t) ->
      let block_size = List.hd k.Kernel.block_sizes in
      let n = min k.Kernel.default_n 512 in
      let flat = E.run ~n k ~block_size in
      let h = E.run ~n ~mem_model:hier k ~block_size in
      List.iter
        (fun (side, (f : M.t), (hm : M.t)) ->
          let name what = Printf.sprintf "%s %s %s" k.Kernel.tag side what in
          Alcotest.(check int)
            (name "non-memory cycles identical")
            (f.M.cycles - f.M.mem_cycles)
            (hm.M.cycles - hm.M.mem_cycles);
          Alcotest.(check int)
            (name "instructions") f.M.instructions hm.M.instructions;
          Alcotest.(check int)
            (name "global accesses")
            f.M.global_accesses hm.M.global_accesses;
          Alcotest.(check int)
            (name "global transactions")
            f.M.global_transactions hm.M.global_transactions;
          Alcotest.(check int)
            (name "divergent branches")
            f.M.divergent_branches hm.M.divergent_branches)
        [ ("base", flat.E.base, h.E.base); ("opt", flat.E.opt, h.E.opt) ])
    Registry.all

(* ------------------------------------------------------------------ *)
(* Report: exact sums and pool-size independence under Hier *)

let test_hier_report_exact_sums () =
  List.iter
    (fun (k : Kernel.t) ->
      let block_size = List.hd k.Kernel.block_sizes in
      let n = min k.Kernel.default_n 512 in
      let r = Report.compute ~n ~mem_model:hier k ~block_size in
      Alcotest.(check string)
        (k.Kernel.tag ^ " model tag")
        "hier" r.Report.rp_mem_model;
      let site_saved =
        List.fold_left
          (fun a mj -> a + Report.mem_site_saved mj)
          0 r.Report.rp_mem_sites
      in
      Alcotest.(check int)
        (k.Kernel.tag ^ " site deltas close the memory delta")
        (Report.mem_delta r) site_saved;
      Alcotest.(check int)
        (k.Kernel.tag ^ " memory identity closes the total delta")
        (Report.delta r)
        (Report.mem_delta r + Report.mem_residual r))
    Registry.all

let test_hier_report_byte_identical_across_jobs () =
  let points =
    List.map (fun k -> (k, List.hd k.Kernel.block_sizes)) Registry.all
  in
  let render jobs =
    let rs = Report.compute_many ~jobs ~n:256 ~mem_model:hier points in
    ( String.concat "\n" (List.map Report.to_text rs),
      J.to_string (Report.many_to_json rs) )
  in
  let t1, j1 = render 1 in
  let t2, j2 = render 2 in
  let t4, j4 = render 4 in
  Alcotest.(check string) "hier text jobs 1 = 2" t1 t2;
  Alcotest.(check string) "hier text jobs 1 = 4" t1 t4;
  Alcotest.(check string) "hier json jobs 1 = 2" j1 j2;
  Alcotest.(check string) "hier json jobs 1 = 4" j1 j4

let suites =
  [
    ( "mem-model",
      [
        Alcotest.test_case "flat: golden cycles pinned" `Slow
          test_flat_golden_cycles;
        Alcotest.test_case "flat: hier counters stay silent" `Quick
          test_flat_hier_counters_silent;
        Alcotest.test_case "hier: accounting identities (registry)" `Quick
          test_hier_identities_all_kernels;
        test_hier_identities_generated;
        Alcotest.test_case "hier: changes only memory cycles" `Quick
          test_hier_changes_only_memory_cycles;
        Alcotest.test_case "hier: report exact sums" `Quick
          test_hier_report_exact_sums;
        Alcotest.test_case "hier: report byte-identical across jobs" `Slow
          test_hier_report_byte_identical_across_jobs;
      ] );
  ]
