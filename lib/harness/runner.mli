(** Experiment driver: preload, measure, reduce to the paper's metrics.

    A run builds one tree on a fresh simulated world, preloads a fraction
    of the key space (the YCSB load phase, executed off the clock on a
    frictionless machine), then runs the measurement phase on N simulated
    threads with private operation streams, and aggregates machine
    counters into the quantities Figures 1-13 plot. *)

type workload = {
  dist : Euno_workload.Dist.spec;
  mix : Euno_workload.Opgen.mix;
  key_space : int;  (** must be a power of two *)
  preload_permille : int;  (** fraction of keys loaded up front *)
  scan_len : int;
  scrambled : bool;
      (** hash ranks across the key space (YCSB's scrambled variant);
          default false = hot keys adjacent, as the paper's analysis
          assumes *)
  partitioned : bool;
      (** interleave-partition keys across threads (no two threads ever
          touch the same record): the paper's Figure 2 estimation
          methodology *)
}

val default_workload : workload
(** Zipfian(0.5), 50/50 get-put, 64 Ki keys, 10% preloaded (the paper loads ~10-17M of a 100M key range: average tree depth 6 at fanout 16), so puts are insert-heavy. *)

type setup = {
  threads : int;
  ops_per_thread : int;
  seed : int;
  cost : Euno_sim.Cost.t;
  fanout : int;
  policy : Euno_htm.Htm.policy option;
  check_after : bool;
  snapshot_window : int option;
      (** sample cumulative machine counters every N simulated cycles into
          [r_snapshots] (time-resolved telemetry); default off *)
  fault_plan : Euno_fault.Plan.t;
      (** deterministic fault injections installed on the measurement
          machine before the run; [[]] (the default) = no faults *)
  sanitize : bool;
      (** arm EunoSan for the measurement phase; findings land in
          [r_san].  Announcement notes perturb schedules, so never
          combine with golden-trace or perf measurements *)
}

val default_setup : setup

type result = {
  r_name : string;
  r_strategy : string;
      (** {!Euno_htm.Htm.strategy_name} of the fallback strategy the run's
          policy selects ([setup.policy], or the trees' default when
          [None]) *)
  r_capacity_model : string;
      (** [Cost.capacity.cm_name] of the measurement machine *)
  r_threads : int;
  r_ops : int;
  r_cycles : int;
  r_mops : float;
  r_aborts_per_op : float;
  r_abort_classes : float array;
  r_commits_per_op : float;
  r_wasted_pct : float;
      (** share of total CPU burnt in aborted transactions or queueing on
          the fallback lock (the paper's "wasted cycles") *)
  r_fallbacks_per_op : float;
  r_retries_per_op : float;
  r_lock_wait_pct : float;
  r_consistency_retries_per_op : float;
  r_watchdog_trips_per_op : float;
      (** polite lock waits cut short by the bounded-wait watchdog *)
  r_starvation_backoffs_per_op : float;
      (** escalating backoffs taken after consecutive fallbacks *)
  r_convoy_events_per_op : float;
      (** fallback entries that found a convoy already queued *)
  r_fast_path_wins_per_op : float;
      (** {!Euno_htm.Htm.Three_path}/{!Euno_htm.Htm.Lockfree}: commits on
          the unsubscribed fast path; 0 under elision *)
  r_middle_path_wins_per_op : float;
      (** template strategies: commits on the activity-subscribed middle
          path *)
  r_software_path_wins_per_op : float;
      (** {!Euno_htm.Htm.Lockfree}: operations served through a published
          descriptor (own combining tenure or helped) *)
  r_helped_ops_per_op : float;
      (** {!Euno_htm.Htm.Lockfree}: descriptors a combiner applied on
          behalf of other threads *)
  r_instr_per_op : float;
  r_lat_p50 : int;
      (** median per-operation latency in simulated cycles *)
  r_lat_p99 : int;
  r_mem_preload_bytes : int;
  r_mem_live_bytes : int;
  r_mem_reserved_peak_bytes : int;
  r_mem_lock_bytes : int;
  r_snapshots : (int * Euno_sim.Machine.snapshot) list;
      (** [(window_end_clock, cumulative aggregate)] series, oldest first;
          non-empty only when [setup.snapshot_window] was set *)
  r_san : Euno_san.San.summary option;
      (** sanitizer verdict; [Some] only when [setup.sanitize] was set *)
}

val fields : result Schema.field list
(** The schema-v1 fields of a run, in record order: throughput, abort
    classes, wasted cycles, latency percentiles, memory footprint and the
    embedded window series ({!Report.result} is this table). *)

val on_result : (result -> unit) option Euno_sim.Domain_ref.t
(** Observer invoked with every completed result (including each seed of
    {!run_many}); the telemetry collector in {!Report} installs itself
    here.  Purely observational — results are unchanged.  Domain-local:
    each pool worker domain has its own (initially absent) observer, so
    parallel cells never interleave into one collector. *)

val partition_scan_keys :
  key_space:int -> threads:int -> tid:int -> from:int -> len:int -> int list
(** The keys a partitioned-mode scan visits: [len] consecutive ranks of
    thread [tid]'s interleaved stride starting at partition rank [from],
    capped at the partition end.  Every returned key satisfies
    [key mod threads = tid], preserving the Figure 2 methodology's
    guarantee that no two threads ever touch the same record. *)

val run : Kv.kind -> workload -> setup -> result

(** Throughput variation over several seeds (schedule sensitivity). *)
type aggregate = {
  a_runs : result list;
  a_mean_mops : float;
  a_stddev_mops : float;
  a_min_mops : float;
  a_max_mops : float;
}

val run_many : ?seeds:int -> Kv.kind -> workload -> setup -> aggregate

val class_true : result -> float
(** Conflict aborts on the same record, per op (true conflicts). *)

val class_false_record : result -> float
val class_false_meta : result -> float

val class_subscription : result -> float
(** Elision-lock subscription cascades (fallback acquirers dooming every
    running transaction), per op. *)

val class_other : result -> float
(** Capacity, explicit, spurious and timer aborts, per op. *)
