(* shrink-runaway: one operation is one Shrink.minimize of the
   XRACE-injected smoke kernel of test/suite_shrink.ml (Gen.smoke_cfg,
   seed 3) under that suite's base-only predicate.  One of the roughly
   twenty predicate calls meets a candidate that loops until the
   oracle's 10M-cycle guard trips; that call is nearly all of the
   operation.  A round is this one operation, so the seed has nothing
   to reorder. *)

module W = Workload
module G = Darm_fuzz.Gen
module O = Darm_fuzz.Oracle
module S = Darm_fuzz.Shrink

let cfg = G.smoke_cfg
let kernel_seed = 3
let key = "base/checker:shared-race-ww"

let still_failing text =
  let subj =
    O.subject_of_text ~name:"shrink" ~block_size:64 ~n:cfg.G.array_size
      ~input_seed:kernel_seed text
  in
  List.exists
    (fun fl -> O.failure_key fl = key)
    (O.run_subject ~stages:[] ~warps:[ 64 ] subj)

let injected () =
  let f = Span.call "fuzz.gen" (fun () -> G.generate ~cfg ~seed:kernel_seed ()) in
  (match Darm_fuzz.Mutate.inject Darm_fuzz.Mutate.Xrace f with
  | Ok () -> ()
  | Error e -> failwith ("inject: " ^ e));
  Span.call "ir.print" (fun () -> Darm_ir.Printer.func_to_string f)

let op text : W.op =
  let run () =
    let r =
      Span.call "fuzz.shrink.minimize" (fun () ->
          S.minimize
            ~still_failing:(fun t ->
              Span.call "fuzz.shrink.call" (fun () -> still_failing t))
            text)
    in
    W.fcount "fuzz.shrink.steps" r.S.sh_steps;
    W.fcount "fuzz.shrink.blocks_out" r.S.sh_blocks;
    if not (still_failing r.S.sh_text) then
      W.failed "the minimized kernel no longer fails the predicate"
    else
      W.passed
        (Printf.sprintf "steps=%d blocks=%d digest=%s" r.S.sh_steps
           r.S.sh_blocks (Digest.to_hex (Digest.string r.S.sh_text)))
  in
  { W.label = "minimize"; run }

let setup () : W.instance =
  let text = injected () in
  if not (still_failing text) then failwith "the injected kernel passes";
  {
    W.ops = [| op text |];
    probe = (fun () -> [ W.parse text ]);
  }

let details ~rounds:_ =
  match Span.samples_s "fuzz.shrink.call" with
  | [] -> ()
  | calls ->
      let slowest = List.fold_left max 0. calls in
      Printf.printf
        "shrink: %d predicate calls, slowest %.2f s (%.1f%% of the minimization)\n"
        (List.length calls) slowest
        (100. *. slowest /. Span.total_s "fuzz.shrink.minimize")

let workload =
  { W.name = "shrink-runaway"; simulates = false; setup; details }
