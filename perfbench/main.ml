(* The DARM benchmark: runs one workload and reports its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--cross-check]

   Load: one process, one domain, closed loop — the next operation
   starts when the previous one has finished.  A round is the
   workload's fixed set of operations in an order shuffled by --seed; a
   phase runs whole rounds until --seconds have passed (at least one
   round).  --trace 0 runs one untraced phase and reports the end-to-end
   metrics.  --trace 1 runs an untraced phase and then a traced one,
   prints the per-layer table and reports the per-layer metrics and the
   tracing overhead.  The last line of standard output is one JSON
   object: correct, attempted, failed, metrics.  Set-up and operation
   times are CPU time at reference speed (see calib.ml). *)

module W = Workload

let workloads =
  [
    Paper_eval.workload;
    Big_cfg.workload;
    Fuzz_smoke.workload;
    Shrink_runaway.workload;
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* Harrell-Davis estimate: a mean of the sorted samples weighted by the
   Beta(q (n + 1), (1 - q) (n + 1)) density over their ranks, q = p / 100.
   One order statistic moves with the noise of the one operation that
   lands on it; the weighted mean varies less between runs.  The density
   is integrated by the midpoint rule, 64 cells per rank. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n <= 1 then (if n = 0 then 0. else a.(0))
  else
    let q = p /. 100. and cells = 64 in
    let alpha = q *. float_of_int (n + 1) and beta = (1. -. q) *. float_of_int (n + 1) in
    let log_density k =
      let t = (float_of_int k +. 0.5) /. float_of_int (cells * n) in
      ((alpha -. 1.) *. log t) +. ((beta -. 1.) *. log (1. -. t))
    in
    let top = ref neg_infinity in
    for k = 0 to (cells * n) - 1 do top := max !top (log_density k) done;
    let w = Array.make n 0. in
    for k = 0 to (cells * n) - 1 do
      w.(k / cells) <- w.(k / cells) +. exp (log_density k -. !top)
    done;
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.iteri (fun i x -> acc := !acc +. (w.(i) *. x)) a;
    !acc /. total

(* the highest listed percentile with at least ten of one round's
   [per_round] samples beyond it; the maximum when a round has fewer
   than twenty operations.  Choosing by the round, not by all samples,
   keeps the percentile the same whatever number of rounds a phase
   completes. *)
let tail ~per_round xs =
  let n = float_of_int per_round in
  match
    List.find_opt
      (fun p -> n *. (1. -. (p /. 100.)) >= 10.)
      [ 99.9; 99.; 95.; 90.; 75.; 50. ]
  with
  | Some p -> (percentile xs p, Printf.sprintf "p%g" p)
  | None -> (List.fold_left max 0. xs, "max")

let median xs = percentile xs 50.

let geomean = function
  | [] -> 0.
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. xs
        /. float_of_int (List.length xs))

let div a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)

type phase = {
  rounds : int;
  attempted : int;
  failed : int;
  elapsed_s : float;
  op_s : float list;  (** per operation: CPU time at reference speed *)
  cpu_op_s : float list;  (** per operation: CPU time as measured *)
  cycles : int;  (** simulated cycles retired per round *)
  minor_words : float;
  major_collections : int;
}

(* deterministic counters and speedups of each operation, keyed by its
   index in the round: the first execution is the reference *)
let dets : (int, string) Hashtbl.t = Hashtbl.create 256
let speedups : (int, (string * int * int) list) Hashtbl.t = Hashtbl.create 256
let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let run_phase (w : W.t) (inst : W.instance) order ~seconds ~traced =
  Span.reset ~traced;
  let gc0 = Gc.quick_stat () in
  let words0 = Gc.minor_words () in
  let t_start = Span.now () in
  let rounds = ref 0 and attempted = ref 0 and failed = ref 0 in
  (* [Calib.timed] intervals of the operations, newest first; the
     machine-speed sampler runs in the untraced phase only, so the
     traced phase's spans and allocation counts stay the program's *)
  let op_s = ref [] and round_cycles = ref [] in
  if not traced then Calib.start ();
  let rec loop () =
    let cycles = ref 0 in
    Array.iter
      (fun i ->
        let op = inst.W.ops.(i) in
        let o, interval =
          Calib.timed (fun () ->
              try Span.operation i op.W.run
              with e -> W.failed ("exception: " ^ Printexc.to_string e))
        in
        op_s := interval :: !op_s;
        incr attempted;
        cycles := !cycles + o.W.cycles;
        let bad =
          if not o.W.ok then Some o.W.detail
          else
            match Hashtbl.find_opt dets i with
            | None ->
                Hashtbl.add dets i o.W.det;
                Hashtbl.replace speedups i o.W.speedups;
                None
            | Some d when d = o.W.det -> None
            | Some d ->
                Some (Printf.sprintf "not deterministic: %s, then %s" d o.W.det)
        in
        Option.iter
          (fun why ->
            incr failed;
            Printf.printf "FAILED %s: %s\n%!" op.W.label why)
          bad)
      order;
    incr rounds;
    round_cycles := !cycles :: !round_cycles;
    if Span.now () -. t_start < seconds then loop ()
  in
  loop ();
  let elapsed_s = Span.now () -. t_start in
  let samples = if traced then [] else Calib.stop () in
  let ops = List.rev !op_s in
  let gc1 = Gc.quick_stat () in
  let cycles = List.hd !round_cycles in
  if List.exists (( <> ) cycles) !round_cycles then
    problem "rounds retired different simulated cycle totals: %s"
      (String.concat " " (List.rev_map string_of_int !round_cycles));
  if w.W.simulates && cycles = 0 then problem "a round retired no simulated cycles";
  {
    rounds = !rounds;
    attempted = !attempted;
    failed = !failed;
    elapsed_s;
    op_s = List.map (Calib.at_ref samples) ops;
    cpu_op_s = List.map (fun (_, _, d) -> d) ops;
    cycles;
    minor_words = Gc.minor_words () -. words0;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

let sum = List.fold_left ( +. ) 0.

(* operations per second of operation time at reference speed; the
   benchmark's own bookkeeping and calibration are left out *)
let ops_per_s p = float_of_int p.attempted /. sum p.op_s

let cpu_ops_per_s p = float_of_int p.attempted /. sum p.cpu_op_s

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let ms s = s *. 1e3

(* mean milliseconds per call of the spans whose names start with
   [prefix] *)
let ms_per_call prefix =
  div (ms (Span.total_s prefix)) (float_of_int (Span.calls prefix))

let per_round p name = Span.counter name /. float_of_int p.rounds

(* simulated Mcycles per host second over the benchmark's own calls to
   the simulator *)
let sim_mcycles_per_s p =
  div (float_of_int (p.cycles * p.rounds)) (Span.total_s "gpu_sim") /. 1e6

let compile_ms_p50 () = ms (median (Span.samples_s "core.pass"))

(* geomean of base/melded cycles per model, over operations in their
   canonical order (the order Experiment sweeps the same points) *)
let speedup_geomean ?model () =
  Hashtbl.fold (fun i l acc -> (i, l) :: acc) speedups []
  |> List.sort compare
  |> List.concat_map snd
  |> List.filter (fun (m, _, _) -> Option.fold ~none:true ~some:(( = ) m) model)
  |> List.map (fun (_, b, o) -> float_of_int b /. float_of_int o)
  |> geomean

let e2e_units =
  [
    ("setup_s", "s");
    ("ops_per_s", "ops/s");
    ("op_ms_p50", "ms");
    ("op_ms_tail", "ms");
    ("peak_heap_mb", "MB");
  ]

let end_to_end ~setup_s ~per_round p =
  let tail_ms, tail_p = tail ~per_round (List.map ms p.op_s) in
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let vs =
    [
      ("setup_s", setup_s);
      ("ops_per_s", ops_per_s p);
      ("op_ms_p50", median (List.map ms p.op_s));
      ("op_ms_tail", tail_ms);
      ("peak_heap_mb", peak_mb);
    ]
  in
  Printf.printf "end-to-end (untraced; %d operations in %d round(s), %.2f s):\n"
    p.attempted p.rounds p.elapsed_s;
  List.iter
    (fun (name, v) ->
      let note =
        if name = "op_ms_tail" then
          Printf.sprintf "   (%s of %d samples)" tail_p (List.length p.op_s)
        else ""
      in
      Printf.printf "  %-20s %14.4f %s%s\n" name v (List.assoc name e2e_units) note)
    vs;
  let extra name v unit =
    Printf.printf "  %-20s %14s %s\n" name
      (if v > 0. then Printf.sprintf "%.4f" v else "n/a") unit
  in
  Printf.printf
    "  as measured: %.4f ops/s of CPU time, %.4f ops/s of wall-clock time; \
     the machine ran at %.3fx reference speed\n"
    (cpu_ops_per_s p)
    (float_of_int p.attempted /. p.elapsed_s)
    (sum p.op_s /. sum p.cpu_op_s);
  extra "compile_ms_p50" (compile_ms_p50 ()) "ms";
  extra "sim_mcycles_per_s" (sim_mcycles_per_s p) "simulated-Mcycles/s";
  extra "speedup_geomean" (speedup_geomean ()) "x (simulated)";
  Printf.printf "  %-20s %14.4f failed/attempted (%d/%d)\n" "fail_ratio"
    (div (float_of_int p.failed) (float_of_int p.attempted)) p.failed p.attempted;
  vs

let layers = [ "bench"; "ir"; "kernels"; "fuzz"; "core"; "transforms"; "checks"; "gpu_sim" ]

let print_layer_table p table =
  let total_s = List.fold_left (fun a (_, (s, _)) -> a +. s) 0. table in
  let total_w = List.fold_left (fun a (_, (_, w)) -> a +. w) 0. table in
  let r = float_of_int p.rounds in
  Printf.printf "layer table (traced; self time and allocation per round):\n";
  Printf.printf "  %-12s %12s %8s %14s %8s\n" "layer" "self ms" "share" "alloc Mwords" "share";
  List.iter
    (fun (l, (s, w)) ->
      Printf.printf "  %-12s %12.1f %7.1f%% %14.2f %7.1f%%\n" l (ms s /. r)
        (100. *. div s total_s) (w /. r /. 1e6) (100. *. div w total_w))
    table;
  Printf.printf "  (%d spans; 'bench' is the benchmark's own code between calls)\n"
    (Span.spans_recorded ())

(* every per-layer metric, 0 where the workload does not exercise it *)
let per_layer (w : W.t) p ~untraced ~setup_aggs ~failed ~attempted table =
  let r = float_of_int p.rounds in
  let ops = float_of_int p.attempted in
  let c = per_round p in
  let setup_ms name =
    match List.assoc_opt name setup_aggs with
    | Some (a : Span.agg) -> div (ms a.Span.total_s) (float_of_int a.Span.calls)
    | None -> 0.
  in
  let core_scored = Span.counter "core.pairs_scored" in
  let core_pref = Span.counter "core.candidates_prefiltered" in
  let gpu m =
    let span = "gpu_sim." ^ m in
    let cyc = Span.counter (span ^ ".cycles_base") +. Span.counter (span ^ ".cycles_opt") in
    [
      (span ^ ".sim_ms", "ms", ms_per_call span);
      (span ^ ".mcycles_per_s", "sim-Mcycles/s", div cyc (Span.total_s span) /. 1e6);
      (span ^ ".minor_words_per_cycle", "words/cycle", div (Span.total_words span) cyc);
      (span ^ ".cycles_base", "sim-cycles", c (span ^ ".cycles_base"));
      (span ^ ".cycles_opt", "sim-cycles", c (span ^ ".cycles_opt"));
      (span ^ ".speedup_geomean", "x", speedup_geomean ~model:m ());
      (span ^ ".lost_lane_cycles_opt", "sim-cycles", c (span ^ ".lost_lane_cycles_opt"));
    ]
  in
  let hits = Span.counter "gpu_sim.hier-stack.l1_hits" in
  let misses = Span.counter "gpu_sim.hier-stack.l1_misses" in
  let fuzz = w.W.name = "fuzz-smoke" in
  let per_subject name = if fuzz then div (ms (Span.total_s name)) ops else 0. in
  let calls = Span.samples_s "fuzz.shrink.call" in
  let n_calls = float_of_int (List.length calls) in
  let table_total_s = List.fold_left (fun a (_, (s, _)) -> a +. s) 0. table in
  [
    ("ir.parse_ms", "ms", ms_per_call "ir.parse");
    ("ir.verify_ms", "ms", ms_per_call "ir.verify");
    ("ir.print_ms", "ms", setup_ms "ir.print");
    ("ir.blocks_in", "count", c "ir.blocks_in");
    ("ir.instrs_in", "count", c "ir.instrs_in");
    ("ir.blocks_out", "count", c "ir.blocks_out");
    ("ir.instrs_out", "count", c "ir.instrs_out");
    ("kernels.make_ms", "ms", ms_per_call "kernels.make");
    ("fuzz.gen_ms", "ms", setup_ms "fuzz.gen");
    ("core.pass_ms", "ms", ms_per_call "core.pass");
    ("core.iterations", "count", c "core.iterations");
    ("core.ms_per_iteration", "ms",
     div (ms (Span.total_s "core.pass")) (Span.counter "core.iterations"));
    ("core.melds_applied", "count", c "core.melds_applied");
    ("core.pairs_scored", "count", c "core.pairs_scored");
    ("core.candidates_prefiltered", "count", c "core.candidates_prefiltered");
    ("core.prefilter_skip_ratio", "ratio", div core_pref (core_pref +. core_scored));
    ("core.analysis_recomputes_avoided", "count", c "core.analysis_recomputes_avoided");
    ("core.alloc_mwords", "Mwords", Span.total_words "core.pass" /. r /. 1e6);
    ("checks.check_ms", "ms", ms_per_call "checks.check");
    ("checks.errors", "count", c "checks.errors");
    ("checks.alloc_mwords", "Mwords", Span.total_words "checks.check" /. r /. 1e6);
  ]
  @ List.concat_map gpu W.model_names
  @ [
      ("gpu_sim.hier-stack.l1_hit_rate", "ratio", div hits (hits +. misses));
      ("fuzz.oracle.subject_ms", "ms", if fuzz then ms_per_call "bench.op" else 0.);
      ("fuzz.oracle.failures", "count", if fuzz then float_of_int p.failed /. r else 0.);
      ("fuzz.oracle.verify_ms", "ms", per_subject "ir.verify");
      ("fuzz.oracle.checks_ms", "ms", per_subject "checks.check");
    ]
  @ List.map
      (fun (st : Darm_fuzz.Oracle.stage) ->
        ( "fuzz.oracle.stage_ms." ^ st.Darm_fuzz.Oracle.st_name,
          "ms",
          per_subject (Fuzz_smoke.stage_span st) ))
      Darm_fuzz.Oracle.default_stages
  @ List.concat_map
      (fun m ->
        List.map
          (fun ws ->
            ( Printf.sprintf "fuzz.oracle.sim_ms.%s.w%d" m ws,
              "ms",
              per_subject (Printf.sprintf "gpu_sim.oracle.%s.w%d" m ws) ))
          Darm_fuzz.Oracle.warp_sizes)
      [ "stack"; "its" ]
  @ [
      ("fuzz.shrink.oracle_calls", "count", n_calls /. r);
      ("fuzz.shrink.steps", "count", c "fuzz.shrink.steps");
      ("fuzz.shrink.useful_ratio", "ratio", div (Span.counter "fuzz.shrink.steps") n_calls);
      ("fuzz.shrink.call_ms_p50", "ms", ms (median calls));
      ("fuzz.shrink.call_ms_max", "ms", ms (List.fold_left max 0. calls));
      ("fuzz.shrink.blocks_out", "count", c "fuzz.shrink.blocks_out");
      ("gc.minor_words", "words", p.minor_words /. ops);
      ("gc.major_collections", "count", float_of_int p.major_collections /. r);
      ("trace.overhead_ratio", "ratio", div (cpu_ops_per_s untraced) (cpu_ops_per_s p));
      ("compile_ms_p50", "ms", compile_ms_p50 ());
      ("sim_mcycles_per_s", "sim-Mcycles/s", sim_mcycles_per_s p);
      ("speedup_geomean", "x", speedup_geomean ());
      ("fail_ratio", "ratio", div (float_of_int failed) (float_of_int attempted));
    ]
  @ List.concat_map
      (fun l ->
        let s, wd = Option.value ~default:(0., 0.) (List.assoc_opt l table) in
        [
          ("layer." ^ l ^ ".self_share", "ratio", div s table_total_s);
          ("layer." ^ l ^ ".alloc_mwords", "Mwords", wd /. r /. 1e6);
        ])
      layers

(* standalone analyses on fresh copies of the input kernels *)
let analysis_probe (inst : W.instance) =
  let module A = Darm_analysis in
  Span.reset ~traced:true;
  let fs = inst.W.probe () in
  List.iter
    (fun f ->
      ignore (Span.call "analysis.domtree" (fun () -> A.Domtree.compute f));
      let pdt = Span.call "analysis.postdom" (fun () -> A.Domtree.compute_post f) in
      ignore (Span.call "analysis.divergence" (fun () -> A.Divergence.compute ~pdt f)))
    fs;
  [
    ("analysis.domtree_ms", "ms", ms_per_call "analysis.domtree");
    ("analysis.postdom_ms", "ms", ms_per_call "analysis.postdom");
    ("analysis.divergence_ms", "ms", ms_per_call "analysis.divergence");
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " m)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let shuffle ~seed n =
  let a = Array.init n Fun.id in
  let rng = Random.State.make [| seed |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Set up until it has run ten times and for a second, or for five
   seconds; the median time at reference speed is setup_s.  Returns the
   last instance and the aggregates of its set-up. *)
let set_up (w : W.t) =
  let rec go times =
    Span.reset ~traced:false;
    let inst, interval = Calib.timed w.W.setup in
    let times = interval :: times in
    let total = List.fold_left (fun a (_, _, d) -> a +. d) 0. times in
    if (List.length times >= 10 && total >= 1.) || total >= 5. then (inst, times)
    else go times
  in
  Calib.start ();
  let inst, times = go [] in
  let samples = Calib.stop () in
  let aggs = Hashtbl.fold (fun k a acc -> (k, a) :: acc) Span.aggs [] in
  let times = List.map (Calib.at_ref samples) times in
  (inst, median times, List.length times, aggs)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let cross_check = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed (shuffles the operation order)");
      ("--seconds", Arg.Set_float seconds, "S minimum measuring time per phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced only, or untraced then traced");
      ("--cross-check", Arg.Set cross_check,
       " paper-eval: compare the per-model geomeans with Experiment's");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %s" a) "main.exe [options]";
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then
        die "refusing to run: %s is set (it changes what the program does)" v)
    [ "DARM_NO_PREFILTER"; "DARM_ANALYSIS_DEBUG"; "DARM_JOBS" ];
  let w =
    match List.find_opt (fun (w : W.t) -> w.W.name = !workload) workloads with
    | Some w -> w
    | None ->
        die "--workload must be one of: %s"
          (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) workloads))
  in
  if !seed < 0 then die "--seed must be a non-negative integer";
  if !seconds <= 0. then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !cross_check && w.W.name <> "paper-eval" then
    die "--cross-check applies to paper-eval only";
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" w.W.name !seed
    !seconds !trace;
  let inst, setup_s, reps, setup_aggs = set_up w in
  Printf.printf "set-up: %d run(s), median %.4f s; %d operations per round\n%!"
    reps setup_s (Array.length inst.W.ops);
  Gc.compact ();
  let order = shuffle ~seed:!seed (Array.length inst.W.ops) in
  let untraced = run_phase w inst order ~seconds:!seconds ~traced:false in
  let e2e = end_to_end ~setup_s ~per_round:(Array.length inst.W.ops) untraced in
  w.W.details ~rounds:untraced.rounds;
  let phases, metrics =
    if !trace = 0 then ([ untraced ], List.map (fun (n, v) -> (n, List.assoc n e2e_units, v)) e2e)
    else begin
      let traced = run_phase w inst order ~seconds:!seconds ~traced:true in
      if w.W.simulates && traced.cycles <> untraced.cycles then
        problem "traced and untraced rounds retired different cycle totals";
      Printf.printf "traced phase: %d operations in %d round(s), %.2f s (%.4f ops/s)\n"
        traced.attempted traced.rounds traced.elapsed_s (ops_per_s traced);
      let table = Span.layer_table () in
      let spans_file =
        Printf.sprintf "_perfbench/spans-%s-seed%d.jsonl" w.W.name !seed
      in
      if not (Sys.file_exists "_perfbench") then Sys.mkdir "_perfbench" 0o755;
      Span.write spans_file;
      Printf.printf "spans written to %s\n" spans_file;
      print_layer_table traced table;
      w.W.details ~rounds:traced.rounds;
      let layer =
        per_layer w traced ~untraced ~setup_aggs
          ~failed:(untraced.failed + traced.failed)
          ~attempted:(untraced.attempted + traced.attempted) table
      in
      let analysis = analysis_probe inst in
      let all = layer @ analysis in
      Printf.printf "per-layer metrics:\n";
      List.iter (fun (n, u, v) -> Printf.printf "  %-42s %16.4f %s\n" n v u) all;
      ([ untraced; traced ], all)
    end
  in
  Printf.printf "simulated cycles per round: %d (identical in every round%s)\n"
    untraced.cycles (if !trace = 1 then " of both phases" else "");
  let digest =
    Hashtbl.fold (fun i d acc -> (i, d) :: acc) dets []
    |> List.sort compare |> List.map snd |> String.concat "\n" |> Digest.string
    |> Digest.to_hex
  in
  Printf.printf "deterministic counters digest: %s\n" digest;
  if !cross_check then begin
    List.iter
      (fun (model, expected) ->
        let mine = speedup_geomean ~model () in
        Printf.printf "cross-check %-10s benchmark %.3fx  Experiment %.3fx  %s\n"
          model mine expected (if mine = expected then "equal" else "DIFFERENT");
        if mine <> expected then problem "cross-check failed for %s" model)
      (Paper_eval.experiment_geomeans ())
  end;
  List.iter (fun s -> Printf.printf "SELF-CHECK FAILED: %s\n" s) (List.rev !problems);
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 phases in
  let failed =
    min attempted
      (List.fold_left (fun a p -> a + p.failed) 0 phases + List.length !problems)
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  exit 0
