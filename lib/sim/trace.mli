(** Event tracing for the simulated machine.

    A consumer of the machine's {!Sev} stream: a bounded ring of its
    transaction lifecycle kinds (begin, commit, abort, conflict, completed
    operation, injected fault), installed with
    [Machine.set_observer m (Some (Trace.push ring))].  An observer
    receives every event, so a trace-only consumer also pays for building
    the per-access events that {!push} then drops.  Tracing never
    perturbs simulated results.

    {b Complexity:} with no observer installed the machine pays one
    branch per emission site; the ring stores events in a fixed circular
    buffer (O(1) per event, oldest overwritten).

    {b Determinism:} events carry simulated clocks and tids only.  The
    recorded seed-42 streams in [test/golden/] are compared byte-for-byte
    against {!event_to_json} output by the determinism suite, which is how
    engine refactors prove they preserved behavior. *)

val traced : Sev.event -> bool
(** The kinds the ring keeps: [Txn_begin], [Txn_commit], [Txn_aborted],
    [Conflict], [Op_exit] and [Injected]. *)

val event_to_string : Sev.event -> string
(** One human-readable line.  Raises [Invalid_argument] on a kind that is
    not {!traced}. *)

type ring

val ring : capacity:int -> ring
(** Retains the most recent [capacity] traced events. *)

val push : ring -> Sev.event -> unit
(** Record a {!traced} event; every other kind is dropped. *)

val total : ring -> int
(** Traced events ever pushed (including evicted ones). *)

val events : ring -> Sev.event list
(** Retained events, oldest first. *)

val to_strings : ring -> string list

val for_thread : ring -> int -> Sev.event list
(** Retained events involving one thread (as owner, attacker or victim). *)

(** {2 Machine-readable exports} *)

val event_to_json : Sev.event -> Euno_stats.Json.t
(** Raises [Invalid_argument] on a kind that is not {!traced}. *)

val to_jsonl : ring -> string list
(** One compact JSON document per retained event, oldest first. *)

val chrome_trace : ring -> Euno_stats.Json.t
(** The retained ring as a Chrome [trace_event] document (loadable in
    chrome://tracing or Perfetto): every transaction is a duration slice
    from xbegin to commit/abort, conflicts and completed ops are instant
    events.  Timestamps are simulated cycles. *)
