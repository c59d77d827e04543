(** Conventional B+Tree over simulated memory.

    Sorted consecutive keys per node, chained leaves, split propagation, and
    lazy deletion (no eager rebalance).  The code is sequential: make it
    concurrent by wrapping operations, e.g. in one monolithic RTM region
    ({!Htm_bptree} — the DBX-style baseline) or under a lock.  All memory
    accesses go through {!Euno_sim.Api} and must run on a machine. *)

type t

exception Invariant of string

val create : fanout:int -> map:Euno_mem.Linemap.t -> unit -> t
(** Allocate an empty tree (root is an empty leaf).  Must run on the
    machine.  [map] is the machine's linemap; leaf key/value lines are
    re-tagged [Record] so conflict classification works. *)

val bulk_load :
  ?fill:float ->
  fanout:int ->
  map:Euno_mem.Linemap.t ->
  (int * int) list ->
  t
(** Build a tree from sorted, distinct records: leaves packed to [fill]
    (default 0.7, the natural steady-state fill) of the fanout, index built bottom-up.  The YCSB load
    phase; single-threaded. *)

val fanout : t -> int
val root : t -> int
val depth : t -> int

val get : t -> int -> int option
val put : t -> int -> int -> unit
val delete : t -> int -> bool

val scan : t -> from:int -> count:int -> (int * int) list
(** Up to [count] records with key >= [from], in key order. *)

val find_leaf : t -> int -> int
(** Leaf node covering a key (exposed for the HTM baseline's analysis and
    for tests). *)

val to_list : t -> (int * int) list
(** All records in key order (test helper; walks the whole tree). *)

val size : t -> int
(** Record count: {!to_list}'s walk and simulated reads, without the list. *)

(** Structural statistics (single-threaded inspection). *)
type tree_stats = {
  st_depth : int;
  st_internals : int;
  st_leaves : int;
  st_records : int;
  st_avg_leaf_fill : float;
}

val stats : t -> tree_stats

val check_invariants : t -> unit
(** Raise {!Invariant} if any structural invariant is violated: per-node
    sortedness, separator bounds, parent pointers, uniform leaf depth,
    fanout bounds, complete and ordered leaf chain.

    {b Cost:} three walks, each one pass: the index check, the tree order
    and the leaf chain.  None allocates per node or record.

    {b Determinism:} the {!Euno_sim.Api} calls are a fixed sequence for a
    given tree, and a failing check raises after a fixed prefix of it.
    Chaos checkpoints and crash recovery run this check inside measured
    machines, so its reads are simulated time. *)
