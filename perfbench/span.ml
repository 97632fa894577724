(* Spans and per-name aggregates recorded around the benchmark's calls
   into the library.

   Every call site goes through [call].  With tracing off it only adds
   the call's wall time to a per-name aggregate (two clock reads), which
   the end-to-end metrics need anyway (compile time, simulator speed).
   With tracing on it also reads the minor-word counter and keeps a span
   record (name, start, end, parent, operation id) in memory; the spans
   are folded into the per-layer table when the run ends. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  name : string;
  layer : string;
  op : int;  (** operation id; -1 outside operations *)
  parent : int;  (** index into the span buffer; -1 for a root *)
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable w1 : float;
}

type agg = {
  mutable calls : int;
  mutable total_s : float;
  mutable words : float;
  mutable samples_s : float list;  (** one duration per call *)
}

let tracing = ref false
let buffer : span array ref = ref [||]
let used = ref 0
let open_stack : int list ref = ref []
let current_op = ref (-1)
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 64
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

(* duration and minor words of the most recently closed call *)
let last_s = ref 0.
let last_words = ref 0.

let reset ~traced =
  tracing := traced;
  buffer := [||];
  used := 0;
  open_stack := [];
  current_op := -1;
  Hashtbl.reset aggs;
  Hashtbl.reset counters

let agg name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
      let a = { calls = 0; total_s = 0.; words = 0.; samples_s = [] } in
      Hashtbl.add aggs name a;
      a

let record name ~dur ~words =
  let a = agg name in
  a.calls <- a.calls + 1;
  a.total_s <- a.total_s +. dur;
  a.words <- a.words +. words;
  a.samples_s <- dur :: a.samples_s;
  last_s := dur;
  last_words := words

let push s =
  if !used = Array.length !buffer then begin
    let bigger = Array.make (max 1024 (2 * !used)) s in
    Array.blit !buffer 0 bigger 0 !used;
    buffer := bigger
  end;
  !buffer.(!used) <- s;
  incr used;
  !used - 1

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(** [call name f] runs [f] inside a span called [name]; the span's
    layer is the part of [name] before its first dot. *)
let call name f =
  if not !tracing then begin
    let t0 = now () in
    let close () = record name ~dur:(now () -. t0) ~words:0. in
    Fun.protect ~finally:close f
  end
  else begin
    let layer = layer_of name in
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let i =
      push { name; layer; op = !current_op; parent; t0; t1 = t0; w0; w1 = w0 }
    in
    open_stack := i :: !open_stack;
    let close () =
      let s = !buffer.(i) in
      s.t1 <- now ();
      s.w1 <- Gc.minor_words ();
      open_stack := List.tl !open_stack;
      record name ~dur:(s.t1 -. s.t0) ~words:(s.w1 -. s.w0)
    in
    Fun.protect ~finally:close f
  end

(** Run operation [op] under a root span named [bench.op]. *)
let operation op f =
  current_op := op;
  Fun.protect ~finally:(fun () -> current_op := -1) (fun () -> call "bench.op" f)

let count name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

(* aggregates whose name starts with [prefix] *)
let matching prefix =
  Hashtbl.fold
    (fun name a acc ->
      if String.starts_with ~prefix name then a :: acc else acc)
    aggs []

let total_s prefix = List.fold_left (fun s a -> s +. a.total_s) 0. (matching prefix)
let total_words prefix = List.fold_left (fun s a -> s +. a.words) 0. (matching prefix)
let calls prefix = List.fold_left (fun s a -> s + a.calls) 0 (matching prefix)
let samples_s prefix = List.concat_map (fun a -> a.samples_s) (matching prefix)

(** Self time and self allocation per layer over the spans of
    operations: a span's duration (minor words) minus what its direct
    children cover.  Children of one span run one after another on one
    domain, so the part they cover is the sum of their durations. *)
let layer_table () =
  let n = !used in
  let child_s = Array.make n 0. and child_w = Array.make n 0. in
  for i = 0 to n - 1 do
    let s = !buffer.(i) in
    if s.parent >= 0 then begin
      child_s.(s.parent) <- child_s.(s.parent) +. (s.t1 -. s.t0);
      child_w.(s.parent) <- child_w.(s.parent) +. (s.w1 -. s.w0)
    end
  done;
  let by_layer = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let s = !buffer.(i) in
    if s.op >= 0 then begin
      let self_s, self_w =
        Option.value ~default:(0., 0.) (Hashtbl.find_opt by_layer s.layer)
      in
      Hashtbl.replace by_layer s.layer
        ( self_s +. (s.t1 -. s.t0) -. child_s.(i),
          self_w +. (s.w1 -. s.w0) -. child_w.(i) )
    end
  done;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) by_layer []
  |> List.sort compare

let spans_recorded () = !used

(** Write the recorded spans to [path], one JSON object per line; times
    are nanoseconds from the first span's start. *)
let write path =
  let origin = if !used > 0 then !buffer.(0).t0 else 0. in
  let ns t = Printf.sprintf "%.0f" ((t -. origin) *. 1e9) in
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to !used - 1 do
        let s = !buffer.(i) in
        Printf.fprintf oc
          "{\"id\": %d, \"name\": %S, \"layer\": %S, \"op\": %d, \"parent\": %d, \
           \"start_ns\": %s, \"end_ns\": %s, \"minor_words\": %.0f}\n"
          i s.name s.layer s.op s.parent (ns s.t0) (ns s.t1) (s.w1 -. s.w0)
      done)
