(** Internal-node index shared by the tree variants.

    Sorted-separator internal nodes above an opaque leaf layer.  Leaves only
    need the common header offsets ({!Layout.tag} = [Layout.tag_leaf] and
    {!Layout.parent}); the conventional B+Tree and the Euno-B+Tree both hang
    their leaves under this index. *)

type t = { layout : Layout.t; meta : int; map : Euno_mem.Linemap.t }

val create :
  fanout:int -> map:Euno_mem.Linemap.t -> root:int -> unit -> t
(** Fresh index whose root is the given (already allocated) leaf. *)

val root : t -> int
val depth : t -> int

val find_leaf : t -> int -> int
(** Root-to-leaf traversal for a key. *)

val lower_bound : t -> int -> int -> int -> int
(** [lower_bound t node n key]: first index with [keys.(i) >= key] among the
    [n] sorted keys of any node using this layout. *)

val insert_into_parent : t -> int -> int -> int -> unit
(** [insert_into_parent t node sep right] links the new [right] sibling of
    [node] under its parent, splitting internal nodes and growing the root
    as needed. *)

val child_for : t -> int -> int -> int
(** Child of an internal node covering a key. *)

val internal_insert_at : t -> int -> int -> int -> int -> int -> unit
(** [internal_insert_at t node n i sep right]: place separator [sep] and
    child [right] at position [i] of a non-full internal node with [n]
    keys.  Exposed for lock-coupled split protocols (Masstree). *)

val split_internal : ?on_alloc:(int -> unit) -> t -> int -> int * int
(** Split a full internal node; returns (promoted separator, right node).
    The caller must hold whatever synchronization its protocol requires;
    [on_alloc] runs on the fresh right node before it becomes reachable
    (lock-coupling protocols create it locked). *)

val grow_root : t -> int -> int -> int -> int
(** [grow_root t left sep right]: install a new root above two nodes and
    return it (lock-coupling callers announce it to the sanitizer). *)

val internal_remove_at : t -> int -> int -> unit
(** [internal_remove_at t node i]: drop separator [i] and child [i+1]
    (the leaf-merge path).  The node must keep at least one separator. *)

val child_index : t -> int -> int -> int
(** Position of a child pointer among a node's children, or -1. *)

val chunk_records : int -> 'a list -> 'a list list
(** [chunk_records per_leaf records] splits a sorted record list into
    consecutive chunks of [per_leaf] records, in order; the last chunk
    holds the remainder, which can be a single record ([per_leaf + 1]
    records give chunks of [per_leaf] and 1).  The leaves of every bulk
    load. *)

val build_levels : t -> (int * int) list -> unit
(** [build_levels t children] builds the internal levels bottom-up over an
    ordered, non-empty list of (min key, node) children — packing internal
    nodes to the fanout — and installs the root and depth.  Children link
    back through their parent pointers.  Single-threaded bulk loading. *)

val iter_leaves : t -> int -> (int -> unit) -> unit
(** Depth-first leaf iteration from a subtree root, left to right. *)

val count_internals : t -> int -> int
(** Internal nodes in a subtree (inspection). *)

exception Invariant of string

val check_structure : t -> leaf_keys:(int -> (int -> unit) -> unit) -> unit
(** Validate the shared structure (internal sortedness, separator bounds,
    parent pointers, uniform leaf depth); raises {!Invariant} on violation.
    [leaf_keys leaf visit] must call [visit] on the leaf's keys in
    ascending order; it may raise {!Invariant} itself.

    {b Cost:} one depth-first pass, allocating nothing per node or key.
    A bad leaf key is reported once [leaf_keys] returns, so the {!Api}
    calls a failing check makes are a fixed prefix of a passing one's:
    this pass runs inside measured simulations (chaos checkpoints, crash
    recovery), where every read is simulated time. *)
