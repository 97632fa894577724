(** Dominator and post-dominator trees over a function's CFG.

    The tree itself comes from {!Darm_ir.Dominance} (Cooper–Harvey–Kennedy
    idoms, preorder intervals for O(1) queries); this module builds the
    graph.  Post-dominators are computed on the reversed CFG with a
    virtual exit node joining every [Ret] block, so functions with
    multiple exits (or none of the blocks post-dominating each other)
    are handled uniformly. *)

open Darm_ir.Ssa
module Dominance = Darm_ir.Dominance

type t = {
  index_of : (int, int) Hashtbl.t;  (** block id -> node index *)
  node_block : block option array;  (** node index -> block; [None] = virtual root *)
  tree : Dominance.t;
  is_post : bool;
}

let build ~(is_post : bool) (f : func) : t =
  (* Enumerate nodes: node 0 is the root (entry block, or the virtual
     exit for the post-dominator tree). *)
  let reach = Cfg.reachable_blocks f in
  let nblocks = List.length reach in
  let n, node_block =
    if is_post then
      (* virtual exit = node 0; blocks at nodes 1..n *)
      (nblocks + 1, Array.make (nblocks + 1) None)
    else (nblocks, Array.make (max nblocks 1) None)
  in
  let index_of = Hashtbl.create 32 in
  let base = if is_post then 1 else 0 in
  List.iteri
    (fun k b ->
      Hashtbl.replace index_of b.bid (k + base);
      node_block.(k + base) <- Some b)
    reach;
  (* Edges in the *dominance* direction: for dominators, preds = CFG
     preds; for post-dominators, preds = CFG succs, and every Ret block
     has the virtual exit as a successor (edge exit -> ret in the
     reversed graph). *)
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  let ptbl = predecessors f in
  List.iter
    (fun b ->
      let bi = Hashtbl.find index_of b.bid in
      let cfg_preds =
        List.filter_map
          (fun p -> Hashtbl.find_opt index_of p.bid)
          (preds_of ptbl b)
      in
      let cfg_succs =
        List.filter_map
          (fun s -> Hashtbl.find_opt index_of s.bid)
          (successors b)
      in
      if is_post then begin
        preds.(bi) <- cfg_succs;
        succs.(bi) <- cfg_preds;
        if has_terminator b && (terminator b).op = Darm_ir.Op.Ret then begin
          preds.(bi) <- 0 :: preds.(bi);
          succs.(0) <- bi :: succs.(0)
        end
      end
      else begin
        preds.(bi) <- cfg_preds;
        succs.(bi) <- cfg_succs
      end)
    reach;
  { index_of; node_block; tree = Dominance.compute ~preds ~succs; is_post }

let compute (f : func) : t = build ~is_post:false f

let compute_post (f : func) : t = build ~is_post:true f

let node (t : t) (b : block) : int option = Hashtbl.find_opt t.index_of b.bid

(** Immediate (post-)dominator of [b]; [None] for the root, for blocks
    whose immediate post-dominator is the virtual exit, and for
    unreachable blocks. *)
let idom (t : t) (b : block) : block option =
  match node t b with
  | None -> None
  | Some v ->
      if v = 0 then None
      else
        let p = t.tree.idom.(v) in
        if p < 0 then None else t.node_block.(p)

(** [dominates t a b]: does [a] (post-)dominate [b]?  Reflexive. *)
let dominates (t : t) (a : block) (b : block) : bool =
  match node t a, node t b with
  | Some va, Some vb -> Dominance.dominates t.tree va vb
  | _ -> false

let strictly_dominates (t : t) (a : block) (b : block) : bool =
  a.bid <> b.bid && dominates t a b

let children (t : t) (b : block) : block list =
  match node t b with
  | None -> []
  | Some v -> List.filter_map (fun c -> t.node_block.(c)) t.tree.children.(v)

(* A node's immediate-dominator fact as comparable data: [None] =
   dominated by the root (entry, or the virtual exit for post-dominator
   trees) or unreachable in the dominance direction; [Some bid] = the
   parent block.  The tin/tout numbering is derived from this relation,
   so comparing it per block compares the whole tree. *)
let idom_fact (t : t) (v : int) : int option =
  if v = 0 then None
  else
    let p = t.tree.idom.(v) in
    if p < 0 then None
    else match t.node_block.(p) with None -> None | Some b -> Some b.bid

(** Structural equality of two trees over the same function: same node
    set (block ids) and same immediate-dominator relation. *)
let equal (a : t) (b : t) : bool =
  a.is_post = b.is_post
  && Hashtbl.length a.index_of = Hashtbl.length b.index_of
  && Hashtbl.fold
       (fun bid va acc ->
         acc
         &&
         match Hashtbl.find_opt b.index_of bid with
         | None -> false
         | Some vb -> idom_fact a va = idom_fact b vb)
       a.index_of true

(** For an instruction-level dominance query: does the definition [def]
    dominate a use at instruction [use]?  Same-block positions are
    resolved by instruction order. *)
let instr_dominates (t : t) (def : Darm_ir.Ssa.instr)
    (use : Darm_ir.Ssa.instr) : bool =
  match def.parent, use.parent with
  | Some db, Some ub ->
      if db.bid = ub.bid then begin
        let rec scan = function
          | [] -> false
          | i :: tl ->
              if i.id = def.id then true
              else if i.id = use.id then false
              else scan tl
        in
        scan db.instrs
      end
      else dominates t db ub
  | _ -> false
