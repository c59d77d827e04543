(** Deterministic SplitMix64 PRNG.

    All simulator randomness (scheduling jitter, workload generation, the
    Eunomia write scheduler) flows through explicitly seeded instances so
    that every experiment replays exactly.

    {b Complexity:} {!next} is a handful of integer multiplies/shifts on an
    8-byte state read and written unboxed; {!next}, {!int}, {!float} and
    {!bool} allocate nothing.

    {b Determinism:} the sequence is a pure function of the seed; the
    simulator never consults host entropy, time, or address layout. *)

type t

val create : int -> t
(** Seeded generator. *)

val next : t -> int
(** Uniform non-negative 62-bit integer. *)

val int : t -> int -> int
(** [int t b] is uniform in [\[0, b)]. Raises [Invalid_argument] if [b <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val split : t -> t
(** Independent child generator. *)
