(** Index-tracked run queue: the scheduler's pick-min-(clock, tid) step as
    a binary min-heap of packed integer keys instead of an O(threads) scan.

    {b Complexity:} [push], [pop] and [exchange] are O(log ready-threads);
    peeking the minimum is O(1).  No allocation per operation (the backing
    array grows geometrically and is reused).  A scheduler turn (a thread
    re-queued, the next one picked) is one {!exchange}: a single sift, or
    none when the re-queued thread is still the minimum.

    {b Int-typed:} the heap is an [int array] and its sift functions are
    annotated so; left polymorphic they compare keys through the C
    primitive [caml_lessthan], which doubled the cost of a pop.
    [scripts/check_mono_hot_path.sh] fails the build's objects on any
    polymorphic comparison in this module.

    {b Determinism:} keys pack [clock] into the high bits and [tid] into
    the low {!tid_bits} bits, so integer comparison is exactly the
    lexicographic (clock, tid) order — the heap resumes the same thread
    the old linear scan picked, including ties (smallest tid wins).
    Entries may go stale when a parked thread's clock is advanced by an
    attacker (abort-penalty charge); since clocks only increase, stale
    keys are underestimates and the machine simply revalidates on pop and
    re-pushes, never missing the true minimum. *)

type t

val tid_bits : int
(** Low bits of a packed key holding the tid; clocks must stay below
    [2^(63 - tid_bits)], far beyond any simulated run. *)

val pack : clock:int -> tid:int -> int
val tid_of : int -> int
val clock_of : int -> int

val create : capacity:int -> t
(** An empty queue sized for [capacity] threads (grows if exceeded). *)

val clear : t -> unit
val is_empty : t -> bool
val length : t -> int

val push : t -> clock:int -> tid:int -> unit

val peek : t -> int
(** The smallest packed key, not removed.  The machine's direct path
    compares the running thread's key against this after each call, to
    keep executing it without a yield while it remains the minimum.
    @raise Invalid_argument when empty. *)

val pop : t -> int
(** Remove and return the smallest packed key.  @raise Invalid_argument
    when empty. *)

val exchange : t -> int -> int
(** [exchange t key] pushes the packed [key] and pops the smallest key, in
    one sift-down from the root.  When [key] is below every entry (always
    so on an empty queue) it is returned and the queue is untouched: this
    is the scheduler's run-ahead test after a yield.  Keys are unique (the tid sits in the
    low bits), so the result, and every later pop, equal those of
    [push] followed by [pop]. *)
