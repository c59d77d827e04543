(** EunoDura driver: crash-recovery campaigns over the tree variants.

    One cell runs two phases on one simulated world.  Phase A executes
    the Chaos-style partitioned workload with the durability pipeline
    attached — epoch-quiescent snapshots ([Euno_dura.Dura]) and a
    committed-op log with group-flush batching ([Euno_dura.Oplog]) —
    until a {!Euno_fault.Plan.Crash} kills every thread at once.  Phase B
    restarts on the surviving memory: sweep abandoned Lock lines, restore
    the latest snapshot (rebuild or in-place reconcile), replay the
    durable log suffix, re-run the lost suffix, then hand the recovered
    image to the recovery checker ([Euno_dura.Checker]).

    Everything is deterministic per (plan, seed): the crash point, the
    snapshot instants, the lost suffix and the recovered image are pure
    functions of the schedule. *)

module Plan = Euno_fault.Plan

type restore_mode =
  | Rebuild  (** bulk-load a fresh tree from the snapshot image *)
  | In_place
      (** reconcile the surviving tree to the image through its own ops —
          exercises recovery over crashed state (abandoned locks, torn
          writes) *)

val restore_mode_name : restore_mode -> string

type config = {
  threads : int;
  ops_per_thread : int;
  seed : int;
  key_space : int;  (** partitioned across threads; even keys preloaded *)
  fanout : int;
  cost : Euno_sim.Cost.t;
  policy : Euno_htm.Htm.policy option;
      (** HTM retry policy; [None] = each tree's own default *)
  checkpoints : int;
      (** quiescent rendezvous during the run — the only points a
          snapshot may be captured at (sustained quiescence) *)
  advance_every : int;
      (** the driver epoch's opportunistic-advance period *)
  snapshot_min_cycles : int;
      (** cadence policy: minimum cycles between snapshot captures *)
  group_size : int;  (** log entries per group flush *)
  fsync_horizon : int;
      (** max cycles an acknowledged entry may stay volatile — bounds
          what a crash can lose *)
  ack_delay : int;
      (** commit-to-acknowledgement latency in cycles; a crash inside
          this window loses an unacked op whose effect is already in
          tree state *)
  crash_frac : float;  (** crash point as a fraction of the horizon *)
  restore_mode : restore_mode;
}

val default_config : config
val quick_config : config

(** One crash-recovery cell result. *)
type cell = {
  d_name : string;
  d_threads : int;
  d_seed : int;
  d_horizon : int;  (** fault-free calibrated run length, cycles *)
  d_plan : Plan.t;
  d_crashed : bool;
  d_crash_cycle : int;  (** = run end when no crash fired *)
  d_restore : restore_mode;
  d_ops : int;
  d_failed_ops : int;
  d_snapshots_taken : int;
  d_snapshot_lsn : int;  (** lsn of the snapshot recovery restored *)
  d_log_len : int;  (** acknowledged mutations at the crash *)
  d_flushed_lsn : int;
  d_lost : int;  (** unflushed suffix lost to the crash *)
  d_replayed : int;  (** durable entries reapplied past the snapshot *)
  d_rerun : int;  (** lost entries re-issued by the generator *)
  d_swept_locks : int;  (** Lock lines zeroed on restart *)
  d_stuck_ops : int;  (** recovery ops wedged or validator failures *)
  d_recovery_cycles : int;
  d_work_bound : int;  (** linear allowance; exceeding it is a finding *)
  d_findings : Euno_dura.Checker.finding list;
}

val run_cell : ?plan:Plan.t -> ?horizon:int -> Kv.kind -> config -> cell
(** Run one cell under [plan] (default: no faults — a graceful run whose
    recovery must be exact).  [horizon] is recorded for reporting;
    defaults to the measured run end. *)

val run_campaign : Kv.kind -> config -> cell
(** Calibrate a fault-free horizon on an identical world, then crash at
    [crash_frac] of it and recover. *)

val run_all : ?domains:int -> config -> cell list
(** {!run_campaign} over the paper's four tree variants; [domains] > 1
    fans the per-tree cells across worker domains via {!Pool.map} with
    byte-identical outcomes in {!Kv.all_kinds} order. *)

(** {1 Mutation validation}

    Three seeded recovery bugs ([Euno_dura.Dura.Testonly]); the checker
    must flag each with the expected finding kind and stay clean on the
    unmutated system over the same cell. *)

type mutant = Skip_fallback_log | Skip_lock_reset | Snapshot_while_pinned

val all_mutants : mutant list
val mutant_name : mutant -> string
val expected_kind : mutant -> Euno_dura.Checker.kind

type mutant_outcome = {
  m_mutant : mutant;
  m_caught_seed : int option;
      (** first seed the checker flagged it at, if any *)
  m_seeds_tried : int;
  m_caught : bool;  (** flagged with the expected finding kind *)
  m_clean_on_fixed : bool;  (** same cell, mutant off: no findings *)
}

val run_mutant : ?seeds:int -> ?base_seed:int -> mutant -> mutant_outcome
(** Seed-search up to [seeds] attempts (default 40): a crash must land
    where the seeded bug bites, so the directed cell is retried across
    seeds until the checker flags it, then re-run unmutated on the
    caught seed. *)

val run_mutants : ?seeds:int -> ?base_seed:int -> unit -> mutant_outcome list

(** {1 Reporting} *)

val record : cell Schema.kind
(** The schema-v1 ["recovery"] record: one per crash cell — durability
    state at the crash (snapshot / log positions, lost suffix), recovery
    work (replayed, re-run, stuck ops, cycles vs. the linear bound) and
    the checker's findings. *)

val print_cells : cell list -> unit
val print_mutants : mutant_outcome list -> unit
