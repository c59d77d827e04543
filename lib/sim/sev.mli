(** The simulated machine's event stream.

    While an observer is installed ({!Machine.set_observer}), the machine
    reports every memory access, transaction lifecycle point (begin,
    commit, abort, the conflict that doomed a victim), retired operation,
    injected fault, lock announcement and thread exit as one of these
    events.  The sanitizer checkers in [Euno_san] and the {!Trace} ring
    consume the stream.  With no observer installed the machine builds
    no event, and announcement sites build no note unless {!armed}:
    unobserved runs are byte-identical to a build without this module.

    {b Determinism:} events are emitted synchronously from the machine's
    single-threaded interpreter in execution order, so for a fixed seed
    the event stream — and therefore every sanitizer verdict and every
    trace — is bit-for-bit reproducible. *)

(** Protocol family of a lock announcement; paired with a representative
    simulated address, [(kind, id)] identifies one lock uniquely. *)
type lock_kind =
  | Spin  (** {!Euno_sync.Spinlock}, incl. the HTM fallback lock *)
  | Ticket  (** {!Euno_sync.Ticketlock} *)
  | Seq_writer  (** {!Euno_sync.Seqlock} writer side *)
  | Slot  (** a CCM per-slot advisory lock *)
  | Version  (** a Masstree embedded node-version lock *)

(** Announcements performed by instrumented synchronization code via
    {!Api.san_note}; the machine stamps them with tid and clock. *)
type note =
  | Acquire of lock_kind * int  (** after the lock is won *)
  | Release of lock_kind * int  (** after the lock is free again *)
  | Publish of lock_kind * int
      (** one-way happens-before transfer into a lock the announcer does
          not hold (data initialized under one lock, later protected by
          another); ignored by the lock-discipline checker *)
  | Barrier_arrive of int  (** barrier id, on arrival *)
  | Barrier_depart of int  (** barrier id, after the episode completes *)
  | Attempt_enter  (** [Htm.attempt] entered *)
  | Attempt_exit  (** [Htm.attempt] exited, on any path *)
  | Opt_enter  (** optimistic read section begins *)
  | Opt_exit  (** optimistic read section validated or abandoned *)

type event = { tid : int; clock : int; body : body }
(** [tid]/[clock] are of the thread the event happened on: for an abort
    the victim, at the instant it was doomed; for a conflict the
    attacker, at its coherence request. *)

and body =
  | Plain_read of { addr : int; kind : Euno_mem.Linemap.kind }
  | Plain_write of { addr : int; kind : Euno_mem.Linemap.kind }
  | Txn_line_read of int  (** line id entering the live read set *)
  | Txn_line_write of int  (** line id entering the live write set *)
  | Txn_begin
  | Txn_commit of { reads : int; writes : int }
      (** read/write-set sizes, in conflict granules *)
  | Txn_aborted of Abort.code
  | Unsafe_read of int  (** untracked access (addr): bypasses coherence *)
  | Unsafe_write of int
  | Alloc_done of { addr : int; words : int }
  | Free_done of { addr : int; words : int }
  | Op_exit of int  (** one benchmark operation retired; its op key *)
  | Thread_exit of { failed : bool; aborted : bool }
      (** [aborted]: the thread died with an uncaught [Txn_abort] *)
  | Note of note
  | Conflict of { victim : int; line : int; kind : Euno_mem.Linemap.kind }
      (** the attacker's access to [line] doomed [victim]'s transaction *)
  | Injected of string  (** a fault-injection action fired on this thread *)

val armed : unit -> bool
(** True inside a sanitizer session on the calling domain.  Announcement
    sites in simulated code test this before building a note, so
    ordinary runs pay one load+branch per announcement site and allocate
    nothing.  Domain-local: arming one pool worker's sanitizer leaves
    cells on other domains uninstrumented. *)

val set_armed : bool -> unit
(** Arm/disarm the sanitizer for the calling domain. *)

val mark_racy : int -> unit
(** Register a word as intentionally racy (a benign-race hint word); the
    race detector ignores plain accesses to it.  Host-side, so marks made
    while preloading survive into the measurement machine.  No-op unless
    {!armed}. *)

val is_racy : int -> bool
val reset_racy : unit -> unit
(** Clear the registry; call at the start of each sanitizer session. *)
