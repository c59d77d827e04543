(** Experiment definitions: one function per figure of the paper's
    evaluation (and the Section 5.7 memory analysis), each printing the
    table its plot is drawn from.

    Every figure separates compute from render: it enumerates its
    simulation cells in the canonical sequential order, fans them through
    {!Pool.map} ([?domains], default {!Pool.default_domains}), and builds
    its tables from the merged results on the main domain — so output is
    byte-identical at any domain count. *)

type scale = {
  key_space : int;  (** power of two; paper: 100 M, scaled down here *)
  ops_per_thread : int;
  max_threads : int;
  seed : int;
  charts : bool;  (** also render ASCII charts after the tables *)
  snapshot_window : int option;
      (** sample machine counters every N simulated cycles into each
          result's snapshot series (time-resolved telemetry) *)
  strategy : Euno_htm.Htm.strategy option;
      (** force every run's fallback strategy; [None] keeps the trees'
          default (elision), byte-identical to the historical runs *)
  capacity : Euno_sim.Cost.capacity_model option;
      (** force the capacity/conflict model; [None] keeps the setup's
          default *)
}

val default_scale : scale
val quick_scale : scale

val csv_dir : string option ref
(** When set, every printed table is also written to [<dir>/<slug>.csv]
    (output formatting only; simulation results are unaffected).  Main
    domain only — rendering never happens inside pool cells. *)

val fig1 : ?domains:int -> scale -> unit
val fig2 : ?domains:int -> scale -> unit
val fig8 : ?domains:int -> scale -> unit
val fig9 : ?domains:int -> scale -> unit
val fig10 : ?domains:int -> scale -> unit
val fig11 : ?domains:int -> scale -> unit
val fig12 : ?domains:int -> scale -> unit
val fig13 : ?domains:int -> scale -> unit

val mem : ?domains:int -> scale -> unit
(** Section 5.7 memory-consumption analysis. *)

val latency : ?domains:int -> scale -> unit
(** Extension: per-operation latency percentiles per tree. *)

val policy : ?domains:int -> scale -> unit
(** Extension: DBX-era vs post-lemming-fix retry policy on the baseline
    (the collapse-mechanism ablation). *)

val ycsb : ?domains:int -> scale -> unit
(** Extension: YCSB core workloads A-F across the four trees. *)

val segments : ?domains:int -> scale -> unit
(** Extension: segments-per-leaf design ablation of the Euno-B+Tree. *)

val coarse : ?domains:int -> scale -> unit
(** Extension: coarse global lock vs the elided lock vs Eunomia. *)

val variance : ?domains:int -> scale -> unit
(** Extension: throughput variation across seeds (schedule sensitivity). *)

val adjacency : ?domains:int -> scale -> unit
(** Extension: adjacent vs scrambled hot keys — how much of the collapse
    is same-line sharing between different records. *)

val methodology : ?domains:int -> scale -> unit
(** Extension: the paper's Figure 2 estimation methodology (per-thread key
    partitions) cross-validated against exact abort attribution. *)

val strategy_sweep : ?domains:int -> scale -> unit
(** The strategy contention campaign: the Figure 1/8/10 cells re-run as
    the full [{elision, three-path, lockfree}] x [{nominal, limited-read,
    coarse-grain}] matrix, rendered as per-figure markdown comparison
    tables (Mops/s, plus fallbacks/op for the Figure 1 storm).  Every cell
    also lands in {!sweep_records} as a schema-validated ["sweep"] record
    — appended on the main domain in canonical cell order, so record order
    is independent of the domain count.  Cells: Figure 1 = HTM-B+Tree at
    16 threads over 4 thetas; Figure 8 = all four trees at 16 threads over
    2 thetas; Figure 10 = the two B+Trees over 2 thetas x the [{1, 4, 16}]
    thread points that fit [scale.max_threads]. *)

val sweep_record : (string * float * Runner.result) Schema.kind
(** The schema-v1 ["sweep"] record of one (figure, theta, result) cell:
    figure cell coordinates, the strategy/capacity-model pair and the
    flattened metric set. *)

val sweep_records : unit -> Schema.Json.t list
(** The ["sweep"] records of the last {!strategy_sweep} run (emission
    order); cleared at the start of each run. *)

val all : ?domains:int -> scale -> unit

val by_name : (string * (?domains:int -> scale -> unit)) list
(** Experiment ids accepted by the CLI: fig1..fig13, mem, all. *)
