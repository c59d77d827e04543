(** Instruction set of a simulated hardware thread.

    Everything that runs on the {!Machine} — tree operations, locks,
    workload loops — uses these calls exclusively; the machine interprets
    each one, charges cycles for it, and subjects it to RTM conflict
    detection.

    {b Complexity:} a call is interpreted in place by this domain's
    running machine ({!Machine.Direct}) and allocates nothing; it then
    performs one {!Eff.Yield} — a coroutine switch into the scheduler —
    only when its thread is no longer the (clock, tid) minimum, an
    injector or explorer is installed, or a doom, pending exception,
    crash or sampling boundary is due.  Outside any {!Machine.run} a call
    raises [Effect.Unhandled].  The interpretation itself is O(1) per
    access (flat-array lookups, see {!Machine}).

    {b Determinism:} these are the only doors to simulated state.  Thread
    code that sticks to them (and {!rand} rather than host randomness) is
    replayed bit-for-bit by the deterministic scheduler. *)

val read : int -> int
(** Load the word at an address. *)

val write : int -> int -> unit
(** Store a word. *)

val cas : int -> expected:int -> desired:int -> bool
(** Atomic compare-and-swap; true on success. *)

val faa : int -> int -> int
(** Atomic fetch-and-add; returns the previous value. *)

val work : int -> unit
(** Consume ALU cycles (models off-memory computation). *)

val xbegin : unit -> unit
(** Start an RTM transaction.  Aborts surface as {!Eff.Txn_abort} raised at
    some later instruction; use the [Euno_htm] wrappers rather than calling
    this directly. *)

val xend : unit -> unit
(** Commit.  Always succeeds under eager conflict detection. *)

val xabort : int -> unit
(** Explicit abort with an imm8 code (delivered at the next instruction). *)

val xtest : unit -> bool
(** Inside a transaction? *)

val tid : unit -> int
val clock : unit -> int

val rand : int -> int
(** Deterministic per-thread uniform value in [\[0, bound)]. *)

val alloc : kind:Euno_mem.Linemap.kind -> words:int -> int
(** Allocate simulated memory (rolled back if the transaction aborts). *)

val free : kind:Euno_mem.Linemap.kind -> addr:int -> words:int -> unit
(** Free simulated memory (deferred to commit inside a transaction). *)

val reclassify :
  from_kind:Euno_mem.Linemap.kind ->
  to_kind:Euno_mem.Linemap.kind ->
  words:int ->
  unit
(** Move allocator accounting between kinds (reverted if the enclosing
    transaction aborts); pairs with {!Euno_mem.Linemap.set_range}
    re-tagging. *)

val op_key : int -> unit
(** Declare the key targeted by the current operation, enabling the paper's
    true/false conflict classification. *)

val op_done : unit -> unit
(** Mark one benchmark operation complete. *)

val count : int -> int -> unit
(** Bump a per-thread user counter (see {!Machine.n_user_counters}). *)

val untracked_read : int -> int
(** Statistics access: no coherence traffic, no conflicts. *)

val untracked_write : int -> int -> unit

val san_note : Sev.note -> unit
(** Announce a synchronization-protocol event to the sanitizer.  No-op
    (and never yields) unless {!Sev.armed}; call sites should
    still test [Sev.armed ()] first so disabled runs never allocate the
    note.  Never charges simulated cycles. *)
