(** Dominator trees over an abstract graph.

    Implementation: the Cooper–Harvey–Kennedy iterative algorithm ("A
    Simple, Fast Dominance Algorithm") over a reverse postorder of the
    nodes the root reaches, then a preorder interval numbering of the
    tree, so that dominance queries are O(1).

    Nodes are [0 .. n-1] and node 0 is the root.  Edges are given in
    the dominance direction: CFG edges for dominators, reversed CFG
    edges for post-dominators.  This is the one dominator
    implementation: {!Verify} and [Darm_analysis.Domtree] both build
    their trees with it. *)

type t = {
  idom : int array;
      (** node -> immediate dominator; the root maps to itself, and a
          node the root does not reach maps to [-1] *)
  children : int list array;  (** tree children, in decreasing node order *)
  tin : int array;  (** preorder interval entry *)
  tout : int array;  (** preorder interval exit *)
}

(** [compute ~preds ~succs] builds the tree of the graph whose node [v]
    has predecessors [preds.(v)] and successors [succs.(v)]; the two
    arrays describe the same edges and have the same length. *)
val compute : preds:int list array -> succs:int list array -> t

(** Is the node in the tree, i.e. reached from the root? *)
val in_tree : t -> int -> bool

(** [dominates t a b]: does [a] dominate [b]?  Reflexive; [false] when
    either node is outside the tree. *)
val dominates : t -> int -> int -> bool
