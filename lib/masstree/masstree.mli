(** Fine-grained concurrent B+Tree derived from Masstree's concurrency
    discipline (the paper's lock-based baseline).

    Per-node version words (lock bit, vinsert, vsplit); optimistic readers
    with before-and-after validation; writers take per-node spinlocks and
    split with hand-over-hand upward locking.  Pass [~elide:true] (used by
    {!Htm_masstree}) to turn lock acquisitions into version-word reads
    inside an enclosing RTM region. *)

(** Test-only mutation switches: reintroduce historical protocol bugs so
    EunoCheck can prove it detects them.  Never set these outside test
    code. *)
module Testonly : sig
  val widen_read_window : bool Euno_sim.Domain_ref.t
  (** OLC bug: in {!get}, validate the leaf version {e before} the record
      reads instead of after, reopening the TOCTOU window that
      before-and-after validation closes.  EunoCheck's mutation tests
      prove this surfaces as a non-linearizable history. *)
end

type t

val create : ?elide:bool -> fanout:int -> map:Euno_mem.Linemap.t -> unit -> t

val bulk_load :
  ?elide:bool ->
  ?fill:float ->
  fanout:int ->
  map:Euno_mem.Linemap.t ->
  (int * int) list ->
  t
(** Build a tree from sorted, distinct records (single-threaded load
    phase): packed leaves, bottom-up index. *)

val index : t -> Euno_bptree.Index.t

val get : t -> int -> int option
val put : t -> int -> int -> unit
val delete : t -> int -> bool
val scan : t -> from:int -> count:int -> (int * int) list

val to_list : t -> (int * int) list
(** All records in key order, by a walk of the index (tests). *)

val size : t -> int
(** Record count: {!to_list}'s walk and simulated reads, without the list. *)

exception Invariant of string

val check_invariants : t -> unit
(** Raise {!Invariant} on a violated structural invariant: the shared
    index checks, per-leaf fanout, no leaf left locked, and ascending
    tree order.

    {b Cost:} two walks, each one pass: the index check and the tree
    order.  Neither allocates per node or record.

    {b Determinism:} the {!Euno_sim.Api} calls are a fixed sequence for a
    given tree, and a failing check raises after a fixed prefix of it.
    Chaos checkpoints and crash recovery run this check inside measured
    machines, so its reads are simulated time. *)
