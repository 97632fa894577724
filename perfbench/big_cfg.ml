(* big-cfg: large generated kernels through the compute path of
   [darm_opt batch]: parse and verify, check and meld, check again, then
   simulate base and melded under flat-stack and compare the memory
   images.  STRESS1K (generator depth 5, seed 8: 1093 blocks) dominates
   the round; the depth-4 kernels (150-260 blocks each) give the latency
   percentiles their samples.  Generation and printing are set-up. *)

module W = Workload
module G = Darm_fuzz.Gen
module Checker = Darm_checks.Checker
module Pass = Darm_core.Pass
module Metrics = Darm_sim.Metrics

(* (label, generator depth, generator seed); the depth-4 seeds are those
   of 1..80 whose kernels have 150 to 260 blocks *)
let kernels =
  ("STRESS1K", 5, 8)
  :: List.map
       (fun s -> (Printf.sprintf "D4-%d" s, 4, s))
       [ 8; 10; 15; 18; 19; 41; 48; 50; 54; 55; 56; 64; 65; 70 ]

let block_size = 64
let n = G.default_cfg.G.array_size

let generate (_, depth, seed) =
  let cfg = { G.default_cfg with G.max_depth = depth } in
  let f = Span.call "fuzz.gen" (fun () -> G.generate ~cfg ~seed ()) in
  Span.call "ir.print" (fun () -> Darm_ir.Printer.func_to_string f)

let launch =
  { Darm_sim.Simulator.grid_dim = max 1 (n / block_size); block_dim = block_size }

let op (label, _, seed) text : W.op =
  let run () =
    let f = W.parse text in
    W.count_ir ~side:"in" f;
    match Span.call "ir.verify" (fun () -> Darm_ir.Verify.run f) with
    | _ :: _ -> W.failed "input does not verify"
    | [] -> (
        let before = Span.call "checks.check" (fun () -> Checker.check_func f) in
        W.checker_errors before;
        let st = Span.call "core.pass" (fun () -> Pass.run f) in
        Span.count ("big." ^ label ^ ".pass_s") !Span.last_s;
        let det = W.pass_stats st in
        W.count_ir ~side:"out" f;
        let after = Span.call "checks.check" (fun () -> Checker.check_func f) in
        W.checker_errors after;
        match Checker.new_errors ~before ~after with
        | d :: _ ->
            W.failed ("new checker error: " ^ Darm_checks.Diag.to_string d)
        | [] ->
            (* Simulator.run verifies the melded kernel before running it *)
            let sim fn role =
              let global, args, image = W.generated_memory ~input_seed:seed ~n in
              let m =
                W.simulate ~model:"flat-stack" ~role fn ~args ~global launch
              in
              (m.Metrics.cycles, image ())
            in
            let cb, img_b = sim (W.parse text) "base" in
            let co, img_o = sim f "opt" in
            if cb = 0 || co = 0 then W.failed "a simulation retired zero cycles"
            else if img_b <> img_o then
              W.failed "melded memory image differs from the base image"
            else
              W.passed ~cycles:(cb + co)
                ~speedups:[ ("flat-stack", cb, co) ]
                (Printf.sprintf "base=%d opt=%d %s" cb co det))
  in
  { W.label; run }

let setup () : W.instance =
  let texts = List.map generate kernels in
  {
    W.ops = Array.of_list (List.map2 op kernels texts);
    probe = (fun () -> List.map W.parse texts);
  }

let details ~rounds =
  Printf.printf "pass time per kernel (ms):";
  List.iter
    (fun (label, _, _) ->
      let s = Span.counter ("big." ^ label ^ ".pass_s") in
      if s > 0. then Printf.printf " %s=%.1f" label (s *. 1e3 /. float_of_int rounds))
    kernels;
  print_newline ()

let workload = { W.name = "big-cfg"; simulates = true; setup; details }
