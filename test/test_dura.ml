(* EunoDura: the committed-op log, the recovery checker, and the full
   crash-restart-replay pipeline — clean on the fixed system, flagged on
   each seeded recovery mutant, deterministic per (plan, seed). *)

open Util
module Oplog = Euno_dura.Oplog
module Checker = Euno_dura.Checker
module Dura_run = Euno_harness.Dura_run
module Kv = Euno_harness.Kv
module Report = Euno_harness.Report
module Json = Euno_stats.Json

(* ---------- the committed-op log ---------- *)

let put k v = Oplog.Put { key = k; value = v }

let test_oplog_group_flush () =
  let log = Oplog.create ~group_size:3 ~fsync_horizon:max_int () in
  check_bool "first append buffers" true
    (Oplog.append log ~tid:0 ~clock:10 (put 1 11) = `Buffered);
  check_bool "second append buffers" true
    (Oplog.append log ~tid:1 ~clock:20 (put 2 22) = `Buffered);
  check_bool "group boundary flushes the batch" true
    (Oplog.append log ~tid:0 ~clock:30 (put 3 33) = `Flushed 3);
  check_int "all three durable" 3 (Oplog.flushed_lsn log);
  check_bool "fourth append starts a new group" true
    (Oplog.append log ~tid:1 ~clock:40 (Oplog.Delete { key = 1 }) = `Buffered);
  check_int "one entry volatile" 1 (Oplog.unflushed log);
  check_int "forced flush drains the remainder" 1 (Oplog.flush log);
  check_int "nothing left volatile" 0 (Oplog.unflushed log);
  check_int "idle flush is a no-op" 0 (Oplog.flush log);
  check_int "two flushes happened" 2 (Oplog.flush_count log)

let test_oplog_fsync_horizon () =
  let log = Oplog.create ~group_size:1_000 ~fsync_horizon:100 () in
  check_bool "young entry buffers" true
    (Oplog.append log ~tid:0 ~clock:0 (put 1 11) = `Buffered);
  check_bool "still inside the horizon" true
    (Oplog.append log ~tid:0 ~clock:50 (put 2 22) = `Buffered);
  (* The OLDEST unflushed entry has now been volatile for the full
     horizon: the group criterion is nowhere near met, the age criterion
     forces the flush. *)
  check_bool "aged-out entry forces the flush" true
    (Oplog.append log ~tid:0 ~clock:100 (put 3 33) = `Flushed 3);
  check_int "horizon flush covers the suffix" 3 (Oplog.flushed_lsn log)

let test_oplog_crash_truncates () =
  let log = Oplog.create ~group_size:4 ~fsync_horizon:max_int () in
  for i = 1 to 6 do
    ignore (Oplog.append log ~tid:0 ~clock:i (put i (i * 10)))
  done;
  check_int "six acknowledged" 6 (Oplog.length log);
  check_int "four durable" 4 (Oplog.flushed_lsn log);
  let lost = Oplog.crash log in
  check_int "volatile suffix lost" 2 (List.length lost);
  check_bool "lost suffix ascending, past the durable prefix" true
    (List.map (fun e -> e.Oplog.lsn) lost = [ 5; 6 ]);
  check_int "log truncated to the durable prefix" 4 (Oplog.length log);
  check_bool "surviving entries ascending" true
    (List.map (fun e -> e.Oplog.lsn) (Oplog.entries log) = [ 1; 2; 3; 4 ]);
  check_int "nothing volatile after the crash" 0 (Oplog.unflushed log)

(* ---------- the recovery checker ---------- *)

let tbl pairs =
  let h = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) pairs;
  h

let ok_stats =
  { Checker.stuck_ops = 0; recovery_cycles = 10; work_bound = 1_000 }

let test_checker_kinds () =
  (* Ack history: key 3 was acked at 30 then re-acked at 31; key 4 was
     acked at 40 and then its delete was acked (so it is absent from the
     committed prefix). *)
  let acked = [ (1, 10); (2, 20); (3, 30); (3, 31); (4, 40) ] in
  let ever_acked k v = List.mem (k, v) acked in
  let expected = tbl [ (1, 10); (2, 20); (3, 31) ] in
  let run recovered = Checker.check ~expected ~recovered ~ever_acked ~stats:ok_stats in
  check_bool "exact recovery is clean" true
    (Checker.clean (run [ (1, 10); (2, 20); (3, 31) ]));
  let missing = run [ (1, 10); (2, 20) ] in
  check_bool "missing acknowledged value is a lost ack" true
    (Checker.has_kind Checker.Lost_ack missing);
  let stale = run [ (1, 10); (2, 20); (3, 30) ] in
  check_bool "stale (superseded) ack is a lost ack, not a phantom" true
    (Checker.has_kind Checker.Lost_ack stale
    && not (Checker.has_kind Checker.Phantom stale));
  let resurrected = run [ (1, 10); (2, 20); (3, 31); (4, 40) ] in
  check_bool "lost acknowledged delete is a lost ack" true
    (Checker.has_kind Checker.Lost_ack resurrected
    && not (Checker.has_kind Checker.Phantom resurrected));
  check_bool "never-acked extra key is a phantom" true
    (Checker.has_kind Checker.Phantom (run [ (1, 10); (2, 20); (3, 31); (9, 99) ]));
  check_bool "never-acked value on an expected key is a phantom" true
    (Checker.has_kind Checker.Phantom (run [ (1, 11); (2, 20); (3, 31) ]));
  (* the aggregate checks ride on stats, not on the image *)
  let image = [ (1, 10); (2, 20); (3, 31) ] in
  check_bool "wedged recovery ops are ineffective recovery" true
    (Checker.has_kind Checker.Ineffective_recovery
       (Checker.check ~expected ~recovered:image ~ever_acked
          ~stats:{ ok_stats with Checker.stuck_ops = 2 }));
  check_bool "busting the linear bound is unbounded recovery" true
    (Checker.has_kind Checker.Unbounded_recovery
       (Checker.check ~expected ~recovered:image ~ever_acked
          ~stats:{ ok_stats with Checker.recovery_cycles = 2_000 }));
  check_bool "bound is inclusive" true
    (Checker.clean
       (Checker.check ~expected ~recovered:image ~ever_acked
          ~stats:{ ok_stats with Checker.recovery_cycles = 1_000 }))

let test_checker_deterministic_order () =
  let expected = tbl [ (5, 50); (1, 10); (3, 30) ] in
  let ever_acked _ _ = false in
  let run () =
    Checker.check ~expected ~recovered:[ (9, 99); (7, 77) ] ~ever_acked
      ~stats:{ ok_stats with Checker.stuck_ops = 1 }
  in
  let fs = run () in
  check_bool "two calls, identical findings" true (fs = run ());
  (* expected-key sweep first (ascending), then extra keys (ascending),
     then the aggregate finding *)
  check_bool "ascending deterministic order" true
    (List.map (fun f -> f.Checker.f_kind) fs
    = [ Checker.Lost_ack; Checker.Lost_ack; Checker.Lost_ack;
        Checker.Phantom; Checker.Phantom; Checker.Ineffective_recovery ])

(* ---------- the full pipeline ---------- *)

let tiny_config =
  {
    Dura_run.quick_config with
    Dura_run.threads = 4;
    ops_per_thread = 200;
    key_space = 512;
    checkpoints = 2;
  }

let test_pipeline_graceful_run_exact () =
  (* No crash: the log drains at the end, nothing is lost, and recovery
     from snapshot + full replay must reproduce the tree exactly. *)
  let c = Dura_run.run_cell Kv.Htm_bptree tiny_config in
  check_bool "no crash fired" false c.Dura_run.d_crashed;
  check_int "nothing lost" 0 c.Dura_run.d_lost;
  check_int "nothing re-run" 0 c.Dura_run.d_rerun;
  check_bool "recovery exact" true (c.Dura_run.d_findings = [])

let test_pipeline_crash_recovers_deterministically () =
  let run () = Dura_run.run_campaign Kv.Htm_bptree tiny_config in
  let c1 = run () in
  check_bool "the crash fired" true c1.Dura_run.d_crashed;
  check_bool "crash recovery is clean on the fixed system" true
    (c1.Dura_run.d_findings = []);
  check_bool "recovery inside its linear bound" true
    (c1.Dura_run.d_recovery_cycles <= c1.Dura_run.d_work_bound);
  check_bool "bounded loss: at most group_size-1 volatile entries" true
    (c1.Dura_run.d_lost < tiny_config.Dura_run.group_size);
  check_bool "lost suffix re-run in full" true
    (c1.Dura_run.d_rerun = c1.Dura_run.d_lost);
  (* same plan, same seed: the whole cell — crash point, snapshot lsn,
     lost suffix, recovered image — is reproducible *)
  let c2 = run () in
  check_bool "crash-restart-replay deterministic" true (c1 = c2)

let test_pipeline_in_place_restore () =
  (* In-place reconcile recovers over the crashed tree itself (abandoned
     locks swept first) instead of bulk-loading a fresh one. *)
  let c =
    Dura_run.run_campaign Kv.Htm_bptree
      { tiny_config with Dura_run.restore_mode = Dura_run.In_place }
  in
  check_bool "the crash fired" true c.Dura_run.d_crashed;
  check_int "no wedged recovery ops" 0 c.Dura_run.d_stuck_ops;
  check_bool "in-place recovery clean" true (c.Dura_run.d_findings = [])

let test_recovery_record_schema () =
  let c = Dura_run.run_campaign Kv.Htm_bptree tiny_config in
  let json = Euno_harness.Schema.encode ~experiment:"crash" Dura_run.record c in
  (match Report.validate_record json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "recovery record invalid: %s" e);
  let stripped =
    match json with
    | Json.Obj fields ->
        Json.Obj (List.filter (fun (k, _) -> k <> "snapshot_lsn") fields)
    | j -> j
  in
  match Report.validate_record stripped with
  | Error _ -> ()
  | Ok () ->
      Alcotest.fail "validator accepted a recovery record without snapshot_lsn"

(* ---------- mutation validation ---------- *)

(* The three seeded recovery bugs must each be caught with the expected
   finding kind, and the unmutated system must be clean on the very cell
   that caught them — the checker detects real divergence, not noise. *)
let test_mutants_caught_and_clean () =
  let outs = Dura_run.run_mutants ~seeds:40 ~base_seed:42 () in
  check_int "all three mutants exercised" 3 (List.length outs);
  List.iter
    (fun o ->
      let name = Dura_run.mutant_name o.Dura_run.m_mutant in
      check_bool (name ^ " caught with the expected kind") true
        o.Dura_run.m_caught;
      check_bool (name ^ " clean on the fixed system") true
        o.Dura_run.m_clean_on_fixed;
      check_bool (name ^ " reports the catching seed") true
        (o.Dura_run.m_caught_seed <> None))
    outs

let suite =
  [
    Alcotest.test_case "oplog: group boundary flushes" `Quick
      test_oplog_group_flush;
    Alcotest.test_case "oplog: fsync horizon bounds volatility" `Quick
      test_oplog_fsync_horizon;
    Alcotest.test_case "oplog: crash keeps the durable prefix" `Quick
      test_oplog_crash_truncates;
    Alcotest.test_case "checker: classifies every finding kind" `Quick
      test_checker_kinds;
    Alcotest.test_case "checker: deterministic finding order" `Quick
      test_checker_deterministic_order;
    Alcotest.test_case "pipeline: graceful run recovers exactly" `Quick
      test_pipeline_graceful_run_exact;
    Alcotest.test_case "pipeline: crash recovery clean and deterministic"
      `Quick test_pipeline_crash_recovers_deterministically;
    Alcotest.test_case "pipeline: in-place restore over crashed state" `Quick
      test_pipeline_in_place_restore;
    Alcotest.test_case "recovery record validates" `Quick
      test_recovery_record_schema;
    Alcotest.test_case "recovery mutants caught, fixed system clean" `Slow
      test_mutants_caught_and_clean;
  ]
