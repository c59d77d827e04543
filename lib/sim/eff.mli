(** The one effect a simulated hardware thread performs.

    Every memory access, atomic instruction and RTM primitive of code on
    the {!Machine} goes through {!Api}, which the running machine
    interprets in place.  A thread performs {!Yield} when the scheduler
    must get a turn; the scheduler resumes threads in (clock, tid) order,
    which is what makes interleaving, conflict detection and cycle
    accounting deterministic.

    {b Complexity:} {!Yield} is a constant and allocates nothing itself;
    performing it costs the continuation switch into the scheduler.

    {b Determinism:} interpretation order is fixed by the scheduler's
    (clock, tid) order, never by host state. *)

type _ Effect.t +=
  | Yield : unit Effect.t
      (** give the scheduler a turn after an in-place interpretation (the
          thread is no longer the (clock, tid) minimum, an injector or
          explorer is installed, or a doom, pending exception, crash or
          sampling boundary is due); the call's result is already
          computed *)

exception Txn_abort of Abort.code
(** Delivered into a transaction body when the hardware aborts it; only
    the [Euno_htm] wrappers should catch it. *)

val null : int
(** The null simulated pointer (address 0). *)
