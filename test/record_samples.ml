(* Fixed, hand-built values — no simulation — one or two per schema-v1
   record kind.  test_records.ml encodes them and compares the bytes with
   test/golden/records.jsonl, and feeds the encodings to the generic
   schema test.  Only plain data lives here, so the values stay
   meaningful whatever the encoders look like. *)

module Machine = Euno_sim.Machine
module Abort = Euno_sim.Abort
module Explore = Euno_sim.Explore
module Htm = Euno_htm.Htm
module Plan = Euno_fault.Plan
module San = Euno_san.San
module Checker = Euno_dura.Checker
module H = Euno_harness

let snapshot ~ops ~clock =
  {
    Machine.s_ops = ops;
    s_commits = ops - 3;
    s_aborts = Array.init Abort.n_classes (fun i -> (ops / 10) + i);
    s_conflict_kinds = [| 1; 2 |];
    s_wasted_cycles = clock / 4;
    s_committed_cycles = clock / 2;
    s_accesses = ops * 9;
    s_user = Array.init Machine.n_user_counters (fun i -> ops + (7 * i));
    s_clock = clock;
  }

let result =
  {
    H.Runner.r_name = "HTM-B+Tree";
    r_strategy = "three-path";
    r_capacity_model = "limited-read";
    r_threads = 4;
    r_ops = 480;
    r_cycles = 123_456;
    r_mops = 10.5;
    r_aborts_per_op = 0.25;
    r_abort_classes =
      Array.init Abort.n_classes (fun i -> float_of_int i /. 8.0);
    r_commits_per_op = 1.125;
    r_wasted_pct = 3.75;
    r_fallbacks_per_op = 0.0625;
    r_retries_per_op = 0.5;
    r_lock_wait_pct = 2.0;
    r_consistency_retries_per_op = 0.0;
    r_watchdog_trips_per_op = 0.001;
    r_starvation_backoffs_per_op = 0.002;
    r_convoy_events_per_op = 0.003;
    r_fast_path_wins_per_op = 0.75;
    r_middle_path_wins_per_op = 0.125;
    r_software_path_wins_per_op = 0.0;
    r_helped_ops_per_op = 0.0;
    r_instr_per_op = 212.5;
    r_lat_p50 = 900;
    r_lat_p99 = 4_100;
    r_mem_preload_bytes = 65_536;
    r_mem_live_bytes = 70_000;
    r_mem_reserved_peak_bytes = 1_024;
    r_mem_lock_bytes = 128;
    r_snapshots =
      [
        (60_000, snapshot ~ops:200 ~clock:60_000);
        (123_456, snapshot ~ops:480 ~clock:123_456);
      ];
    r_san = None;
  }

let aggregate =
  {
    H.Runner.a_runs = [ result; { result with H.Runner.r_mops = 11.5 } ];
    a_mean_mops = 11.0;
    a_stddev_mops = 0.5;
    a_min_mops = 10.5;
    a_max_mops = 11.5;
  }

let plan =
  [
    {
      Plan.fault = Plan.Spurious_burst { extra_per_million = 500 };
      target = Plan.All;
      window = Plan.window ~from_cycle:1_000 ~until_cycle:2_000;
    };
    {
      Plan.fault = Plan.Lock_holder_stall { stall = 300 };
      target = Plan.Thread 2;
      window = Plan.window ~from_cycle:2_500 ~until_cycle:3_000;
    };
  ]

let chaos recovery =
  {
    H.Chaos.o_name = "Euno-B+Tree";
    o_threads = 6;
    o_seed = 42;
    o_horizon = 90_000;
    o_plan = plan;
    o_ops = 2_400;
    o_failed_ops = 1;
    o_cycles = 95_000;
    o_mops = 5.25;
    o_mops_clean = 6.0;
    o_mops_fault = 2.5;
    o_mops_after = 5.875;
    o_recovery = recovery;
    o_invariant_violations = 0;
    o_model_mismatches = 0;
    o_checkpoints = 3;
    o_fallbacks = 17;
    o_watchdog_trips = 2;
    o_starvation_backoffs = 3;
    o_convoy_events = 4;
    o_aborts = Array.init Abort.n_classes (fun i -> 10 * i);
    o_snapshots = [ (50_000, snapshot ~ops:1_000 ~clock:50_000) ];
  }

let chaos_recovered = chaos (H.Chaos.Recovered 1_234)
let chaos_unrecovered = chaos (H.Chaos.Unrecovered 5_000)

let recovery =
  {
    H.Dura_run.d_name = "Masstree";
    d_threads = 6;
    d_seed = 42;
    d_horizon = 80_000;
    d_plan = [ Plan.crash_at ~cycle:48_000 ];
    d_crashed = true;
    d_crash_cycle = 48_000;
    d_restore = H.Dura_run.In_place;
    d_ops = 1_500;
    d_failed_ops = 0;
    d_snapshots_taken = 2;
    d_snapshot_lsn = 300;
    d_log_len = 700;
    d_flushed_lsn = 690;
    d_lost = 10;
    d_replayed = 390;
    d_rerun = 10;
    d_swept_locks = 5;
    d_stuck_ops = 0;
    d_recovery_cycles = 70_000;
    d_work_bound = 900_000;
    d_findings =
      [ { Checker.f_kind = Checker.Lost_ack; f_detail = "key 12: expected 7" } ];
  }

let san =
  {
    H.San_run.o_tree = "Masstree";
    o_workload = "zipf-0.80";
    o_strategy = "lockfree";
    o_capacity_model = "nominal";
    o_threads = 8;
    o_seed = 42;
    o_summary =
      {
        San.events = 5_000;
        total = 2;
        findings =
          [
            {
              San.f_kind = San.Race;
              f_subject = "line 42";
              f_tid = 3;
              f_clock = 777;
              f_detail = "plain write races a plain read";
            };
          ];
      };
  }

let check_config =
  {
    (H.Check_run.base_config H.Kv.Htm_bptree) with
    H.Check_run.strategy = Htm.Three_path;
    mutation = "htm-skip-activity-read";
    seed = 9_000;
  }

let check_clean =
  {
    H.Check_run.o_config = { check_config with H.Check_run.mutation = "none" };
    o_policy = "pool";
    o_runs = 4;
    o_events = 190;
    o_violation = None;
  }

let preemption tid at =
  { Explore.p_tid = tid; p_at = at; p_point = Explore.Xbegin; p_span = 50 }

let check_violation =
  {
    H.Check_run.o_config = check_config;
    o_policy = "pct:3:200:3000";
    o_runs = 7;
    o_events = 330;
    o_violation =
      Some
        {
          H.Check_run.v_core =
            [
              {
                H.History.tid = 0;
                invoked = 10;
                responded = 20;
                op = H.History.Put (1, 5);
              };
            ];
          v_fired = [ preemption 0 100; preemption 1 200; preemption 2 300 ];
          v_minimized = [ preemption 1 200 ];
          v_repro = "tree=HTM-B+Tree;mix=point;policy=replay:1@200:xbegin*50";
        };
  }

let sweep = ("fig1", 0.9, result)

let lint_finding =
  {
    Eunolint.Rules.file = "lib/x.ml";
    line = 12;
    col = 4;
    rule = "determinism";
    msg = "Hashtbl.hash on a polymorphic value";
  }
