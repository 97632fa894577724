(* fuzz-smoke: one operation is the fuzz oracle on one Gen.smoke_cfg
   kernel at block size 64, from a fixed list of seeds that all pass.

   The untraced phase calls Oracle.run_subject.  The traced phase runs a
   replica built from the same public calls in the same order, so each
   leg gets its own span: generation of the subject, verification,
   checkers, the untransformed kernel at warps 64/16/4 under the stack
   model and under independent thread scheduling, and each of the five
   default stages followed by its own verification, checker diff and
   six simulations.  The replica leaves out the oracle's
   metrics-invariant leg (Darm_harness.Report on each melding stage),
   which is internal to the oracle. *)

module W = Workload
module O = Darm_fuzz.Oracle
module G = Darm_fuzz.Gen
module Sim = Darm_sim.Simulator
module Checker = Darm_checks.Checker

let seeds = List.init 40 (fun i -> i + 1)
let block_size = 64
let cfg = G.smoke_cfg

let subject seed = O.subject_of_seed ~cfg ~block_size ~seed ()

let models = [ ("stack", Sim.Stack); ("its", Sim.Its Sim.default_its_params) ]

(* the oracle's execution of one kernel (same memory, launch and
   runaway guard as Oracle.run_subject) *)
let exec (s : O.subject) f ~rc ~warp_size =
  let model, reconvergence = rc in
  let global, args, image =
    W.generated_memory ~input_seed:s.O.sb_input_seed ~n:s.O.sb_n
  in
  let config =
    { Sim.default_config with warp_size; max_cycles_per_warp = 10_000_000;
      reconvergence }
  in
  let launch =
    { Sim.grid_dim = max 1 (s.O.sb_n / s.O.sb_block_size);
      block_dim = s.O.sb_block_size }
  in
  let m =
    Span.call (Printf.sprintf "gpu_sim.oracle.%s.w%d" model warp_size)
      (fun () -> Sim.run ~config f ~args ~global launch)
  in
  (m.Darm_sim.Metrics.cycles, image ())

exception Verdict of string

(* the melding stages run Pass.run (core), the others are transforms *)
let stage_span (st : O.stage) =
  match st.O.st_name with
  | "cleanups" | "tail-merge" -> "transforms." ^ st.O.st_name
  | name -> "core.pass." ^ name

let replica (s : O.subject) =
  let fresh () = Span.call "fuzz.oracle.fresh" s.O.sb_fresh in
  let verify f =
    match Span.call "ir.verify" (fun () -> Darm_ir.Verify.run f) with
    | [] -> ()
    | _ -> raise (Verdict "verifier")
  in
  let check f =
    let r = Span.call "checks.check" (fun () -> Checker.check_func f) in
    W.checker_errors r;
    r
  in
  let cycles = ref 0 in
  (* every (model, warp size) leg except those in [skip] must
     reproduce the base memory image *)
  let run_all ?(skip = []) f base_img =
    List.iter
      (fun rc ->
        List.iter
          (fun ws ->
            if not (List.mem (fst rc, ws) skip) then begin
              let c, img = exec s f ~rc ~warp_size:ws in
              cycles := !cycles + c;
              if img <> base_img then raise (Verdict "mismatch")
            end)
          O.warp_sizes)
      models
  in
  let f0 = fresh () in
  W.count_ir ~side:"in" f0;
  verify f0;
  let before = check f0 in
  if Checker.has_errors before then raise (Verdict "checker");
  let c0, base_img = exec s f0 ~rc:(List.hd models) ~warp_size:64 in
  cycles := c0;
  run_all ~skip:[ ("stack", 64) ] f0 base_img;
  List.iter
    (fun (st : O.stage) ->
      let ft = fresh () in
      let stats =
        try Span.call (stage_span st) (fun () -> st.O.st_apply ft)
        with Darm_core.Pass.Validation_failed _ -> raise (Verdict "tv")
      in
      Option.iter (fun stats -> ignore (W.pass_stats stats)) stats;
      W.count_ir ~side:"out" ft;
      verify ft;
      if Checker.new_errors ~before ~after:(check ft) <> [] then
        raise (Verdict "checker-regression");
      run_all ft base_img)
    O.default_stages;
  !cycles

let op seed : W.op =
  let s = subject seed in
  let run () =
    if !Span.tracing then
      match replica s with
      | cycles -> W.passed ~cycles "verdict=pass"
      | exception Verdict kind -> W.failed ("replica verdict: " ^ kind)
    else
      match Span.call "fuzz.oracle.subject" (fun () -> O.run_subject s) with
      | [] -> W.passed "verdict=pass"
      | fl :: _ -> W.failed (O.failure_to_string fl)
  in
  { W.label = Printf.sprintf "smoke-%d" seed; run }

let setup () : W.instance =
  (* generate every subject once: the inputs' sizes, and the set-up cost *)
  List.iter
    (fun seed -> ignore (Span.call "fuzz.gen" (fun () -> G.generate ~cfg ~seed ())))
    seeds;
  {
    W.ops = Array.of_list (List.map op seeds);
    probe = (fun () -> List.map (fun seed -> G.generate ~cfg ~seed ()) seeds);
  }

let workload =
  { W.name = "fuzz-smoke"; simulates = false; setup; details = (fun ~rounds:_ -> ()) }
