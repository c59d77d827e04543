(** Chaos harness: fault-injection campaigns with online correctness
    checking and graceful-degradation metrics.

    A chaos run executes a partitioned random workload (each key has a
    single writer thread, so a host-side map is an exact oracle while
    physical false sharing stays alive), checks every operation against
    the oracle, quiesces the machine at fixed checkpoints to run the
    tree's structural validator plus model-agreement spot checks, and
    splits throughput into before / under / after-fault phases.

    Everything is deterministic for a fixed config: the campaign plan is
    scaled to a fault-free calibration run of the same world, and the
    compiled fault hooks are pure functions of [(tid, clock)]. *)

module Plan = Euno_fault.Plan

type config = {
  threads : int;
  ops_per_thread : int;
  seed : int;
  key_space : int;  (** partitioned across threads; even keys preloaded *)
  fanout : int;
  cost : Euno_sim.Cost.t;
  policy : Euno_htm.Htm.policy option;
      (** HTM retry policy; [None] = each tree's own default *)
  checkpoints : int;  (** quiesce-and-validate points during the run *)
  windows : int;  (** sampling windows across the calibrated horizon *)
}

val default_config : config
(** 8 threads, 4Ki keys, polite (hardened) policy, 4 checkpoints. *)

val quick_config : config
(** CI smoke scale. *)

(** Raw counters of one machine run under an explicit plan. *)
type raw = {
  raw_name : string;
  raw_ops : int;
  raw_failed_ops : int;
      (** operations that surfaced {!Euno_htm.Htm.Stuck_fallback} or
          {!Euno_mem.Alloc.Alloc_failure} (graceful failures: structure
          untouched) *)
  raw_violations : int;  (** structural-validator failures at checkpoints *)
  raw_mismatches : int;  (** operations or spot checks disagreeing with the
          host model *)
  raw_checkpoints : int;
  raw_cycles : int;
  raw_work_cycles : int;
      (** clock when the last thread finished its operation loop (excludes
          the final single-threaded validation drain) *)
  raw_agg : Euno_sim.Machine.snapshot;
  raw_samples : (int * Euno_sim.Machine.snapshot) list;
}

val run_plan : ?plan:Plan.t -> ?sampling:int -> Kv.kind -> config -> raw
(** Run the chaos workload under [plan] (default: no faults), sampling
    cumulative counters every [sampling] cycles if given.  Used directly
    by tests for directed scenarios (e.g. lemming storms). *)

(** Recovery verdict after the last fault window.  [Unrecovered n] is
    explicit — [n] is the post-fault observation horizon we watched
    without the op rate returning to half the clean-phase mean — so
    downstream arithmetic can never average a sentinel. *)
type recovery_verdict =
  | Recovered of int  (** cycles until the op rate was restored *)
  | Unrecovered of int  (** post-fault cycles observed without recovery *)

(** One tree's campaign result. *)
type outcome = {
  o_name : string;
  o_threads : int;
  o_seed : int;
  o_horizon : int;
      (** fault-free calibrated working time in cycles (excluding the
          final validation drain); the campaign windows scale to it *)
  o_plan : Plan.t;
  o_ops : int;
  o_failed_ops : int;
  o_cycles : int;
  o_mops : float;
  o_mops_clean : float;  (** throughput before the first fault window *)
  o_mops_fault : float;  (** throughput while any fault window is active *)
  o_mops_after : float;  (** throughput after the last fault window *)
  o_recovery : recovery_verdict;
      (** cycles after the last fault until the op rate is back to at
          least half the clean-phase mean, or the explicit
          [Unrecovered] horizon *)
  o_invariant_violations : int;
  o_model_mismatches : int;
  o_checkpoints : int;
  o_fallbacks : int;
  o_watchdog_trips : int;
  o_starvation_backoffs : int;
  o_convoy_events : int;
  o_aborts : int array;
  o_snapshots : (int * Euno_sim.Machine.snapshot) list;
}

val run_campaign : Kv.kind -> config -> outcome
(** Calibrate a fault-free horizon on an identical world, compile
    {!Plan.campaign} scaled to it, and run the chaos workload under it. *)

val run_all : ?domains:int -> config -> outcome list
(** {!run_campaign} over the paper's four tree variants; [domains] > 1
    fans the per-tree cells across worker domains via {!Pool.map} with
    byte-identical outcomes in {!Kv.all_kinds} order. *)

val record : outcome Schema.kind
(** The schema-v1 ["chaos"] record: one per tree. *)

val print_outcomes : outcome list -> unit
(** ASCII summary table. *)
