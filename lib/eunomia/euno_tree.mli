(** Euno-B+Tree: the paper's contribution (Section 4).

    A concurrent B+Tree applying the four Eunomia design guidelines —
    split HTM regions with version-based consistency validation, scattered
    segmented leaves with a random write scheduler, a conflict control
    module of per-slot advisory locks and Bloom-style mark bits, and
    per-leaf adaptive concurrency control.  Each guideline is switchable
    through {!Config}, giving the Figure 13 ablation ladder.

    Thread-safe on the simulated machine; operations declare their target
    key for the paper's conflict-abort classification. *)

type t

(** Test-only mutation switches: reintroduce historical protocol bugs so
    the sanitizer suite can prove it detects them.  Never set these
    outside test code. *)
module Testonly : sig
  val leak_locks_on_exn : bool Euno_sim.Domain_ref.t
  (** PR 2 bug: skip the exception-path release of the advisory split
      lock and CCM slot bit when an exception escapes the lower region. *)
end

(** User-counter indices published by the tree (0-2 belong to
    {!Euno_htm.Htm.Counter}). *)
module Counter : sig
  val consistency_retries : int
  (** Lower-region executions that found a stale leaf seqno and restarted
      from the root. *)

  val mark_fastpath : int
  (** Absent-key requests answered by the mark bits without entering the
      lower region. *)

  val compactions : int
  val splits : int

  val merges : int
  (** Maintenance merges of underfull sibling leaves. *)

  val names : (int * string) list
  (** Telemetry labels for the user-counter indices this module owns. *)
end

val create :
  ?epoch:Euno_mem.Epoch.t -> cfg:Config.t -> map:Euno_mem.Linemap.t -> unit -> t
(** Allocate an empty tree.  Must run on the machine.  When [epoch] is
    given, operations pin it and leaves merged away by {!maintain} are
    retired through it instead of freed immediately (the DBX deferred-GC
    scheme of Section 4.2.4). *)

val bulk_load :
  ?epoch:Euno_mem.Epoch.t ->
  ?fill:float ->
  cfg:Config.t ->
  map:Euno_mem.Linemap.t ->
  (int * int) list ->
  t
(** Build a tree from sorted, distinct records (single-threaded load
    phase): leaves filled round-robin to [fill] (default 0.7) of capacity,
    mark bits exact, index built bottom-up. *)

val config : t -> Config.t

val get : t -> int -> int option
val put : t -> int -> int -> unit

val delete : t -> int -> bool
(** Removes the record (lazy rebalance: leaves may stay underfull, as in
    the paper's Section 4.2.4 deletion scheme). *)

val maintain : ?max_merges:int -> t -> int
(** Online maintenance (Section 4.2.4's deferred cleanup): walk the leaf
    chain merging adjacent same-parent siblings whose combined records fit
    comfortably in one leaf.  Returns the number of merges performed.

    Concurrent use (one maintenance thread alongside regular operations)
    requires the tree to have been created with an [epoch]: victims are
    then retired and freed only after every pinned operation drains, which
    is what prevents freelist reuse from forging a valid-looking seqno
    under an in-flight operation (ABA).  Without an epoch the victim is
    freed immediately — only safe at a quiescent point. *)

val needs_rebalance : t -> bool
(** True once deletions since the last rebalance pass the threshold
    (Section 4.2.4: "re-balance when the number of delete operations
    exceeds a threshold"). *)

val rebalance : t -> unit
(** Maintenance operation: rebuild the tree from its live records and
    return the old nodes to the allocator.  Must run with no concurrent
    operations in flight (a quiescent point, as the paper's deferred
    rebalance does). *)

val scan : t -> from:int -> count:int -> (int * int) list
(** Ordered range query: up to [count] records with key >= [from].
    Locks each visited leaf's advisory lock and sorts its segments through
    a transient reserved-keys buffer, as in Section 4.2.4. *)

val to_list : t -> (int * int) list
(** All records in key order (single-threaded inspection). *)

val size : t -> int
(** Record count: {!to_list}'s walk and simulated reads, without the list. *)

val find_leaf : t -> int -> int
(** Leaf covering a key, by a plain root-to-leaf walk (tests). *)

(** Structural statistics (single-threaded inspection). *)
type tree_stats = {
  st_depth : int;
  st_internals : int;
  st_leaves : int;
  st_records : int;
  st_avg_leaf_fill : float;
  st_engaged_leaves : int;
}

val stats : t -> tree_stats

val iter : t -> (int -> int -> unit) -> unit
(** Ordered iteration over all records (single-threaded inspection). *)

val fold : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

val min_binding : t -> (int * int) option
val max_binding : t -> (int * int) option

exception Invariant of string

val check_invariants : t -> unit
(** Structural validation: shared index invariants, per-segment sortedness
    and counts, no duplicate keys, mark-bit coverage of live keys, no
    split lock held, and leaf-chain/tree-order agreement.  Meant for a
    quiescent tree.

    {b Cost:} two passes, each gathering every leaf once: the index check,
    which also records the tree order into one flat array, and the leaf
    chain, followed by [next] pointers from the leftmost leaf and compared
    against it.  The chain walk stops after as many leaves as the index
    holds, so a cyclic chain fails rather than loops.  Plain reads only:
    no write, allocation, lock or transaction, and nothing allocated per
    record on the host.

    {b Determinism:} the {!Euno_sim.Api} calls are a fixed sequence for a
    given tree, and a failing check raises after a fixed prefix of it.
    Chaos checkpoints and crash recovery run this check inside measured
    machines, so its reads are simulated time. *)
