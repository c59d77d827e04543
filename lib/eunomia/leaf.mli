(** The scattered leaf node of Euno-B+Tree (paper Section 4.1, Figure 4).

    Layout: a header line (tag/parent/next/seqno/adaptive-mode, compatible
    with {!Euno_bptree.Layout} so leaves hang under the shared internal
    index), a lock line (per-leaf advisory split lock + the CCM, only ever
    accessed with atomics outside HTM regions), then [nsegs] line-aligned
    segments of [count | k,v | k,v | ...] with keys sorted within each
    segment.  Reorganization distributes sorted records round-robin so
    adjacent keys live on different cache lines; reserved-keys buffers are
    transient (allocated for a split/compaction/scan, freed right after). *)

type shape
(** Precomputed layout for one configuration. *)

val shape : Config.t -> map:Euno_mem.Linemap.t -> shape

val leaf_words : shape -> int
(** Words one leaf occupies. *)

val alloc : shape -> int
(** Allocate an empty leaf (must run on the machine). *)

val free : shape -> int -> unit
(** Free a leaf, reversing {!alloc}'s per-kind accounting. *)

(** {2 Field addresses} *)

val seqno_addr : int -> int
(** The split sequence number validated by lower regions. *)

val next_addr : int -> int
val parent_addr : int -> int

val mode_addr : int -> int
(** Adaptive mode word: on the header line every lower region already
    reads, so mode checks cost no extra cache line and mode writes doom
    all in-flight regions on the leaf. *)

val split_lock_addr : int -> int
(** Per-leaf advisory split lock (a {!Euno_sync.Spinlock} word). *)

val ccm : shape -> int -> Euno_ccm.Ccm.t
(** The leaf's conflict control module. *)

val seg_count : shape -> int -> int -> int
val seg_full : shape -> int -> int -> bool
val seg_key_addr : shape -> int -> int -> int -> int
val seg_value_addr : shape -> int -> int -> int -> int

val total_count : shape -> int -> int
(** Records currently stored (sums the per-segment counts). *)

(** {2 Record operations} *)

val locate : shape -> int -> int -> (int * int) option
(** Position (segment, slot) of a key, probing segments in turn. *)

val value_addr_of : shape -> int -> int * int -> int

val insert_into_seg : shape -> int -> int -> int -> int -> unit
(** [insert_into_seg s leaf seg key value]: sorted insert into a non-full
    segment. *)

val remove_at : shape -> int -> int * int -> unit

(** {2 Reorganization} *)

(** A reusable host-side buffer for one leaf's records: [keys.(j)],
    [vals.(j)] for [j < n], at most the leaf capacity. *)
type records = { keys : int array; vals : int array; mutable n : int }

val records : shape -> records
(** An empty buffer sized to the leaf capacity. *)

val gather_into : shape -> int -> records -> unit
(** Overwrite the buffer with all live records sorted by key (merge cost
    charged as work).  Allocation-free once the buffer is sized. *)

val gather : shape -> int -> (int * int) list
(** {!gather_into} as a list: the same simulated reads and work. *)

val stash_reserved : records -> int * int
(** Write gathered records into a fresh transient reserved-keys buffer;
    returns (address, words) for {!free_reserved}. *)

val free_reserved : int * int -> unit

val clear_segs : shape -> int -> unit

val redistribute_from : shape -> int -> int -> lo:int -> n:int -> unit
(** Scatter records [lo, lo+n) of a stash buffer round-robin into the
    (cleared) segments: record j goes to segment [j mod nsegs], keeping
    each segment sorted while separating adjacent keys. *)

val fill_round_robin : shape -> int -> (int * int) list -> unit
(** Fill a fresh leaf's segments round-robin from sorted records (bulk
    loading); at most [Config.capacity] records. *)

val compact : shape -> int -> unit
(** Algorithm 3's reorganization: gather, stash, clear, redistribute. *)

(** {2 CCM helpers} *)

val marks_word_for : Euno_ccm.Ccm.t -> int list -> int
(** Mark-bit word covering a key list. *)

val slot_collision : shape -> int -> Euno_ccm.Ccm.t -> key:int -> slot:int -> bool
(** Does any live key other than [key] hash to [slot]? *)

val keys : shape -> int -> int list
(** All live keys in ascending order. *)
