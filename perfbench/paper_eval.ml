(* paper-eval: the 53 (kernel, block size) points of the Fig. 7 and
   Fig. 8 sweeps under each of three machine models, 159 operations per
   round.  Each operation builds fresh base and melded instances, runs
   the pass, simulates both and checks both outputs against the host
   reference.  The inputs are those of Experiment.run (seed 2022, the
   kernel's default size), so the per-model geomeans must equal the
   ones the harness computes for the same points. *)

module W = Workload
module Kernel = Darm_kernels.Kernel
module Registry = Darm_kernels.Registry
module Pass = Darm_core.Pass
module Metrics = Darm_sim.Metrics

let input_seed = 2022

let points () =
  List.concat_map
    (fun (k : Kernel.t) -> List.map (fun bs -> (k, bs)) k.Kernel.block_sizes)
    (Registry.synthetic @ Registry.real_world)

let make (k : Kernel.t) bs =
  Span.call "kernels.make" (fun () ->
      k.Kernel.make ~seed:input_seed ~block_size:bs ~n:k.Kernel.default_n)

let op model ((k : Kernel.t), bs) expected : W.op =
  let run () =
    let base = make k bs and opt = make k bs in
    W.count_ir ~side:"in" opt.Kernel.func;
    let st = Span.call "core.pass" (fun () -> Pass.run opt.Kernel.func) in
    let det = W.pass_stats st in
    W.count_ir ~side:"out" opt.Kernel.func;
    match Span.call "ir.verify" (fun () -> Darm_ir.Verify.run opt.Kernel.func) with
    | _ :: _ -> W.failed "melded kernel does not verify"
    | [] ->
        let sim (inst : Kernel.instance) role =
          let m =
            W.simulate ~model ~role inst.Kernel.func ~args:inst.Kernel.args
              ~global:inst.Kernel.global inst.Kernel.launch
          in
          (* per (kernel, model) simulator time, minor words and cycles,
             for the ROADMAP's Mcycles/s and words-per-cycle rows *)
          let key what = Printf.sprintf "paper.%s.%s.%s" k.Kernel.tag model what in
          Span.count (key "s") !Span.last_s;
          Span.count (key "words") !Span.last_words;
          Span.count (key "cycles") (float_of_int m.Metrics.cycles);
          m
        in
        let mb = sim base "base" in
        let mo = sim opt "opt" in
        let cb = mb.Metrics.cycles and co = mo.Metrics.cycles in
        if cb = 0 || co = 0 then W.failed "a simulation retired zero cycles"
        else if not (Kernel.rv_array_equal (base.Kernel.read_result ()) expected)
        then W.failed "base output differs from the host reference"
        else if not (Kernel.rv_array_equal (opt.Kernel.read_result ()) expected)
        then W.failed "melded output differs from the host reference"
        else
          W.passed ~cycles:(cb + co)
            ~speedups:[ (model, cb, co) ]
            (Printf.sprintf "base=%d opt=%d %s" cb co det)
  in
  { W.label = Printf.sprintf "%s/%d/%s" k.Kernel.tag bs model; run }

let setup () : W.instance =
  let pts = points () in
  (* the host reference of every point, computed once *)
  let expected =
    List.map
      (fun (k, bs) ->
        let inst = make k bs in
        inst.Kernel.reference ())
      pts
  in
  let ops =
    List.concat_map
      (fun model -> List.map2 (op model) pts expected)
      W.model_names
  in
  {
    W.ops = Array.of_list ops;
    probe = (fun () -> List.map (fun (k, bs) -> (make k bs).Kernel.func) pts);
  }

let details ~rounds:_ =
  let tags = List.sort_uniq compare
      (List.map (fun ((k : Kernel.t), _) -> k.Kernel.tag) (points ()))
  in
  if Span.counter (Printf.sprintf "paper.%s.flat-stack.words" (List.hd tags)) > 0.
  then begin
    Printf.printf "simulator speed per kernel (Mcycles/s | minor words per cycle):\n";
    Printf.printf "  %-8s" "kernel";
    List.iter (fun m -> Printf.printf " %24s" m) W.model_names;
    print_newline ();
    List.iter
      (fun tag ->
        Printf.printf "  %-8s" tag;
        List.iter
          (fun m ->
            let c w = Span.counter (Printf.sprintf "paper.%s.%s.%s" tag m w) in
            let cyc = c "cycles" in
            Printf.printf " %12.2f | %9.2f" (cyc /. c "s" /. 1e6) (c "words" /. cyc))
          W.model_names;
        print_newline ())
      tags
  end

let workload =
  { W.name = "paper-eval"; simulates = true; setup; details }

(** Per-model geomeans computed by the harness's [Experiment] over the
    same points (default seed 2022, one domain), for the cross-check. *)
let experiment_geomeans () =
  let module E = Darm_harness.Experiment in
  let module Sim = Darm_sim.Simulator in
  List.map
    (fun (model, (config : Sim.config)) ->
      let rs =
        E.sweep_many ~jobs:1 ~mem_model:config.Sim.mem_model
          ~reconvergence:config.Sim.reconvergence
          (Registry.synthetic @ Registry.real_world)
      in
      if not (E.all_correct rs) then failwith "Experiment reported a failure";
      (model, E.geomean (List.map E.speedup rs)))
    W.models
