(** Transactional cache-line ownership table.

    Models the coherence-protocol state real HTM uses for conflict
    detection: each line touched by an active transaction has at most one
    writer (M state) and a set of readers (S state).  Supports up to 62
    simulated hardware threads (reader sets are int bitmasks).

    {b Complexity:} flat arrays indexed by line number — every query and
    update is O(1) with no per-access allocation (the arrays grow
    geometrically to the highest line ever owned).  [readers_except] is
    the one list-allocating query; the machine's hot path uses
    {!readers_mask_except} and {!writer} instead.

    {b Determinism:} the machine dooms readers in ascending tid order,
    which fixes the order conflict victims are charged in. *)

type t

val max_threads : int

val create : unit -> t

val add_reader : t -> int -> int -> unit
(** [add_reader t line tid]. *)

val set_writer : t -> int -> int -> unit

val writer : t -> int -> int
(** The writing tid of a line, or [-1] — allocation-free hot path. *)

val writer_of : t -> int -> int option

val is_reader : t -> int -> int -> bool
(** [is_reader t line tid]: is [tid] in the line's reader set? O(1). *)

val readers_mask_except : t -> int -> int -> int
(** Reader tids of the line except the given one, as a bitmask (bit [i]
    for tid [i]); allocation-free. *)

val readers_except : t -> int -> int -> int list
(** All reader thread ids of a line except the given one, ascending. *)

val remove_thread : t -> int -> int -> unit
(** Drop a thread's ownership of one line. *)

val clear : t -> unit

val size : t -> int
(** Number of lines currently owned by any transaction; O(1). *)
