(** Dominator trees over an abstract graph: Cooper–Harvey–Kennedy idoms
    plus preorder interval numbering (see the interface). *)

type t = {
  idom : int array;
  children : int list array;
  tin : int array;
  tout : int array;
}

let compute ~(preds : int list array) ~(succs : int list array) : t =
  let n = Array.length preds in
  (* Reverse postorder from the root. *)
  let visited = Array.make n false in
  let post = ref [] in
  let rec dfs v =
    if not visited.(v) then begin
      visited.(v) <- true;
      List.iter dfs succs.(v);
      post := v :: !post
    end
  in
  if n > 0 then dfs 0;
  let rpo = !post in
  let rpo_num = Array.make n (-1) in
  List.iteri (fun k v -> rpo_num.(v) <- k) rpo;
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if rpo_num.(a) > rpo_num.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> 0 then begin
          (* meet over the predecessors that already have an idom *)
          let new_idom =
            List.fold_left
              (fun acc p ->
                if idom.(p) < 0 then acc
                else if acc < 0 then p
                else intersect p acc)
              (-1) preds.(b)
          in
          if new_idom >= 0 && idom.(b) <> new_idom then begin
            idom.(b) <- new_idom;
            changed := true
          end
        end)
      rpo
  done;
  let children = Array.make n [] in
  Array.iteri
    (fun v p -> if v <> 0 && p >= 0 then children.(p) <- v :: children.(p))
    idom;
  let tin = Array.make n 0 and tout = Array.make n 0 in
  let clock = ref 0 in
  let rec number v =
    incr clock;
    tin.(v) <- !clock;
    List.iter number children.(v);
    incr clock;
    tout.(v) <- !clock
  in
  if n > 0 then number 0;
  { idom; children; tin; tout }

let in_tree (t : t) (v : int) : bool = t.idom.(v) >= 0

let dominates (t : t) (a : int) (b : int) : bool =
  in_tree t a && in_tree t b
  && t.tin.(a) <= t.tin.(b)
  && t.tout.(b) <= t.tout.(a)
