(* The machine-speed reference.

   The benchmark runs on shared machines whose speed drifts by up to
   1.6x over a few seconds: a fixed loop slows down in wall time and in
   CPU time alike, and other processes take turns on its cores.  [timed]
   therefore measures the process's CPU time, which leaves out the
   turns of others.  While [start]ed, a timer interrupts the program
   every [period_s] and times [work], a fixed computation of the
   benchmark's own that calls nothing in the DARM libraries, so a change
   to the program cannot change it.  [at_ref] then rescales a measured
   interval by the speed sampled around it: a time "at reference speed"
   is the CPU time the interval would have taken on a machine on which
   [work] takes exactly [ref_s].  [work] mixes what the simulator and
   the pass spend their time on: short-lived allocation, hash tables,
   pointer-chasing through maps and array sorting. *)

module IntMap = Map.Make (Int)

(* keeps [work]'s results alive *)
let sink = ref 0

let work () =
  let rng = Random.State.make [| 2022 |] in
  let a = Array.init 3000 (fun _ -> Random.State.int rng 1_000_000) in
  let h = Hashtbl.create 512 in
  Array.iteri
    (fun i x ->
      let k = x land 511 in
      Hashtbl.replace h k (i :: Option.value ~default:[] (Hashtbl.find_opt h k)))
    a;
  let m = Array.fold_left (fun m x -> IntMap.add x (x lsr 3) m) IntMap.empty a in
  let sum = IntMap.fold (fun _ v acc -> acc + v) m 0 in
  Array.sort compare a;
  sink := !sink + sum + a.(0) + Hashtbl.length h

(* the time [work] takes at reference speed *)
let ref_s = 2e-3

let period_s = 0.1

(* (wall-clock end, CPU time) of every sample since [start], newest
   first *)
let samples : (float * float) list ref = ref []

(* CPU time spent in samples since [start]; [timed] subtracts it *)
let stolen_s = ref 0.

let sample () =
  let c0 = Sys.time () in
  work ();
  let d = Sys.time () -. c0 in
  samples := (Span.now (), d) :: !samples;
  stolen_s := !stolen_s +. d

(* [timed f] is [f ()] and its interval: wall-clock start and end, and
   the CPU time spent in it less the samples taken meanwhile *)
let timed f =
  let t0 = Span.now () and c0 = Sys.time () and stolen0 = !stolen_s in
  let r = f () in
  let c1 = Sys.time () and t1 = Span.now () in
  (r, (t0, t1, c1 -. c0 -. (!stolen_s -. stolen0)))

let timer v = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })

let start () =
  samples := [];
  stolen_s := 0.;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()));
  sample ();
  timer period_s

(* stops the timer and returns the samples, oldest first *)
let stop () =
  timer 0.;
  Sys.set_signal Sys.sigalrm Sys.Signal_default;
  sample ();
  List.rev !samples

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* [at_ref samples (t0, t1, d)]: [d] seconds measured between [t0] and
   [t1], brought to reference speed by the median of the samples taken
   between them or within half a second of them *)
let at_ref samples (t0, t1, d) =
  match
    List.filter_map
      (fun (t, s) -> if t >= t0 -. 0.5 && t <= t1 +. 0.5 then Some s else None)
      samples
  with
  | [] -> d
  | near -> d *. ref_s /. median near
