(* Tests of the benchmark harness: the uniform Kv interface behaves
   identically across all four trees, and the Runner produces sane,
   deterministic results. *)

open Util
module Runner = Euno_harness.Runner
module Kv = Euno_harness.Kv
module Dist = Euno_workload.Dist
module Opgen = Euno_workload.Opgen
module Config = Eunomia.Config
module IntMap = Map.Make (Int)

let small_workload ?(theta = 0.6) () =
  {
    Runner.default_workload with
    Runner.dist = Dist.Zipfian theta;
    key_space = 1 lsl 10;
  }

let small_setup ?(threads = 4) () =
  {
    Runner.default_setup with
    Runner.threads;
    ops_per_thread = 150;
    check_after = true;
  }

(* Same random op sequence applied through the Kv facade of every tree
   kind must produce exactly the same observable results. *)
let test_kv_semantic_parity () =
  let trace =
    let rng = Euno_sim.Rng.create 77 in
    List.init 400 (fun i ->
        let k = Euno_sim.Rng.int rng 120 in
        match Euno_sim.Rng.int rng 4 with
        | 0 -> `Put (k, i)
        | 1 -> `Get k
        | 2 -> `Del k
        | _ -> `Scan k)
  in
  let observe kind =
    let w = fresh_world () in
    run_one w (fun () ->
        let kv = Kv.build kind ~fanout:8 ~map:w.map in
        List.map
          (function
            | `Put (k, v) ->
                kv.Kv.put k v;
                `Unit
            | `Get k -> `Got (kv.Kv.get k)
            | `Del k -> `Deleted (kv.Kv.delete k)
            | `Scan k -> `Scanned (kv.Kv.scan ~from:k ~count:5))
          trace)
  in
  let reference = observe Kv.Htm_bptree in
  List.iter
    (fun kind ->
      if observe kind <> reference then
        Alcotest.failf "%s disagrees with HTM-B+Tree" (Kv.kind_name kind))
    [ Kv.Euno Config.full; Kv.Masstree; Kv.Htm_masstree; Kv.Lock_bptree ]

let test_runner_produces_sane_result () =
  let r = Runner.run Kv.Htm_bptree (small_workload ()) (small_setup ()) in
  check_int "all ops accounted" (4 * 150) r.Runner.r_ops;
  check_bool "positive throughput" true (r.Runner.r_mops > 0.0);
  check_bool "cycles advanced" true (r.Runner.r_cycles > 0);
  check_bool "commits at least upper+lower" true (r.Runner.r_commits_per_op >= 0.9);
  check_bool "instr/op sensible" true
    (r.Runner.r_instr_per_op > 10.0 && r.Runner.r_instr_per_op < 10_000.0);
  check_bool "memory recorded" true (r.Runner.r_mem_live_bytes > 0)

let test_runner_deterministic () =
  let go () =
    let r = Runner.run (Kv.Euno Config.full) (small_workload ()) (small_setup ()) in
    (r.Runner.r_mops, r.Runner.r_cycles, r.Runner.r_aborts_per_op)
  in
  check_bool "identical results across runs" true (go () = go ())

let test_runner_seed_changes_schedule () =
  let go seed =
    Runner.run Kv.Htm_bptree (small_workload ~theta:0.9 ())
      { (small_setup ~threads:6 ()) with Runner.seed }
  in
  let a = go 1 and b = go 2 in
  check_bool "different seeds give different cycle counts" true
    (a.Runner.r_cycles <> b.Runner.r_cycles)

let test_abort_classes_sum () =
  let r =
    Runner.run Kv.Htm_bptree (small_workload ~theta:0.95 ())
      (small_setup ~threads:8 ())
  in
  let parts =
    Runner.class_true r +. Runner.class_false_record r
    +. Runner.class_false_meta r +. Runner.class_subscription r
    +. Runner.class_other r
  in
  check_bool "classes sum to total" true
    (abs_float (parts -. r.Runner.r_aborts_per_op) < 1e-9)

let test_more_threads_do_not_lose_ops () =
  List.iter
    (fun threads ->
      let r =
        Runner.run (Kv.Euno Config.full) (small_workload ())
          (small_setup ~threads ())
      in
      check_int
        (Printf.sprintf "%d threads all ops" threads)
        (threads * 150) r.Runner.r_ops)
    [ 1; 2; 8 ]

let test_scan_and_delete_mix_supported () =
  let workload =
    {
      (small_workload ()) with
      Runner.mix = { Opgen.get = 30; put = 40; scan = 10; delete = 10; rmw = 10 };
    }
  in
  List.iter
    (fun kind ->
      let r = Runner.run kind workload (small_setup ()) in
      check_int
        (Kv.kind_name kind ^ " completes mixed ops")
        (4 * 150) r.Runner.r_ops)
    Kv.all_kinds

let test_memory_accounting_reserved_transient () =
  (* Eunomia's scans stage each leaf's records through a transient
     reserved buffer.  A get/scan run allocates nothing else, so the
     measured run's reserved peak is positive while its live bytes return
     exactly to the preload level: no reserved word outlives its scan.
     No validation afterwards, so the peak is the run's own. *)
  let w =
    {
      (small_workload ()) with
      Runner.mix = { Opgen.get = 50; put = 0; scan = 50; delete = 0; rmw = 0 };
    }
  in
  let r =
    Runner.run (Kv.Euno Config.full) w
      { (small_setup ()) with Runner.check_after = false }
  in
  check_bool "reserved peak observed" true (r.Runner.r_mem_reserved_peak_bytes > 0);
  check_int "no reserved word outlives the run" r.Runner.r_mem_preload_bytes
    r.Runner.r_mem_live_bytes;
  check_bool "ccm lines accounted" true (r.Runner.r_mem_lock_bytes > 0)

let test_run_many_aggregates () =
  let a =
    Runner.run_many ~seeds:3 Kv.Htm_bptree (small_workload ()) (small_setup ())
  in
  check_int "three runs" 3 (List.length a.Runner.a_runs);
  check_bool "mean within bounds" true
    (a.Runner.a_mean_mops >= a.Runner.a_min_mops
    && a.Runner.a_mean_mops <= a.Runner.a_max_mops);
  check_bool "stddev non-negative" true (a.Runner.a_stddev_mops >= 0.0)

let test_lock_tree_correct_under_concurrency () =
  let r =
    Runner.run Kv.Lock_bptree (small_workload ~theta:0.9 ())
      (small_setup ~threads:8 ())
  in
  check_int "all ops" (8 * 150) r.Runner.r_ops;
  (* a pure lock tree never enters a transaction *)
  check_bool "no commits" true (r.Runner.r_commits_per_op = 0.0);
  check_bool "no aborts" true (r.Runner.r_aborts_per_op = 0.0)

let test_key_space_must_be_power_of_two () =
  let w = { (small_workload ()) with Runner.key_space = 1000 } in
  match Runner.run Kv.Htm_bptree w (small_setup ()) with
  | (_ : Runner.result) -> Alcotest.fail "accepted non-power-of-two"
  | exception Invalid_argument _ -> ()

(* Marathon: a heavier contended run per tree with full invariant
   validation at the end.  Catches rare interleavings the quick tests
   miss; tagged Slow. *)
let test_stress_marathon () =
  let workload =
    {
      Runner.default_workload with
      Runner.dist = Dist.Zipfian 0.95;
      key_space = 1 lsl 12;
      mix = { Opgen.get = 40; put = 40; scan = 5; delete = 10; rmw = 5 };
    }
  in
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let r =
            Runner.run kind workload
              {
                Runner.default_setup with
                Runner.threads = 12;
                ops_per_thread = 400;
                seed;
                check_after = true;
              }
          in
          check_int
            (Printf.sprintf "%s seed %d all ops" (Kv.kind_name kind) seed)
            (12 * 400) r.Runner.r_ops)
        [ 42; 1234 ])
    (Kv.all_kinds @ [ Kv.Lock_bptree ])

(* ---------- partitioned-mode scans (regression) ---------- *)

(* Regression: partitioned-mode scans used to walk consecutive keys, so a
   scan starting in thread 0's partition marched straight through every
   other thread's records — reintroducing the sharing the mode exists to
   rule out.  The helper must keep every visited key on the caller's
   stride. *)
let prop_partition_scan_stays_on_stride =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"partitioned scan keys stay on stride"
       QCheck.(
         quad (int_range 1 16) (int_bound 1023) (int_bound 2048) (int_bound 64))
       (fun (threads, tid, from, len) ->
         let tid = tid mod threads in
         let key_space = 1 lsl 12 in
         let keys =
           Runner.partition_scan_keys ~key_space ~threads ~tid ~from ~len
         in
         List.length keys <= len
         && List.for_all
              (fun k -> k mod threads = tid && k >= 0 && k < key_space)
              keys
         && (* consecutive partition ranks: adjacent keys differ by the
               stride *)
         match keys with
         | [] -> true
         | first :: _ ->
             List.for_all2 ( = ) keys
               (List.mapi (fun i _ -> first + (i * threads)) keys)))

let test_partitioned_scans_share_nothing () =
  (* scan-heavy partitioned run: with the fix, no thread ever touches
     another's record, so same-record (true) conflict aborts stay zero *)
  let workload =
    {
      (small_workload ~theta:0.9 ()) with
      Runner.partitioned = true;
      mix = { Opgen.get = 30; put = 30; scan = 40; delete = 0; rmw = 0 };
      scan_len = 24;
    }
  in
  let r = Runner.run Kv.Htm_bptree workload (small_setup ~threads:8 ()) in
  check_int "all ops" (8 * 150) r.Runner.r_ops;
  check_bool "no same-record conflicts" true (Runner.class_true r = 0.0)

(* ---------- telemetry: snapshots, JSON records, collector ---------- *)

module Report = Euno_harness.Report
module Schema = Euno_harness.Schema
module Json = Euno_stats.Json

let run_with_snapshots () =
  Runner.run Kv.Htm_bptree
    (small_workload ~theta:0.8 ())
    { (small_setup ~threads:4 ()) with Runner.snapshot_window = Some 1000 }

let test_snapshots_cover_run () =
  let r = run_with_snapshots () in
  let windows = Schema.windows_of_snapshots r.Runner.r_snapshots in
  check_bool "several windows" true (List.length windows > 1);
  (* per-window deltas are non-negative and sum back to the run totals *)
  List.iter
    (fun w ->
      check_bool "ops >= 0" true (w.Schema.w_ops >= 0);
      check_bool "commits >= 0" true (w.Schema.w_commits >= 0);
      check_bool "aborts >= 0" true
        (Array.for_all (fun v -> v >= 0) w.Schema.w_aborts);
      check_bool "window ordered" true (w.Schema.w_start < w.Schema.w_end))
    windows;
  check_int "window ops sum to total" r.Runner.r_ops
    (List.fold_left (fun acc w -> acc + w.Schema.w_ops) 0 windows);
  check_int "windows tile the run" r.Runner.r_cycles
    (List.fold_left (fun acc w -> max acc w.Schema.w_end) 0 windows)

let test_no_snapshots_by_default () =
  let r = Runner.run Kv.Htm_bptree (small_workload ()) (small_setup ()) in
  check_int "no snapshots" 0 (List.length r.Runner.r_snapshots)

let test_result_json_valid_and_parses () =
  let r = run_with_snapshots () in
  let doc =
    Schema.document ~experiment:"test"
      [ Report.result_to_json ~experiment:"test" r ]
  in
  (* serialized form parses back and passes schema validation *)
  match Json.of_string (Json.to_string ~pretty:true doc) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok parsed -> (
      (match Report.validate_document parsed with
      | Ok () -> ()
      | Error e -> Alcotest.failf "schema: %s" e);
      match Json.member "records" parsed with
      | Some (Json.List [ record ]) ->
          check_bool "mops preserved" true
            (match Option.bind (Json.member "mops" record) Json.as_float with
            | Some m -> Float.abs (m -. r.Runner.r_mops) < 1e-6
            | None -> false);
          check_bool "threads preserved" true
            (Option.bind (Json.member "threads" record) Json.as_int = Some 4)
      | _ -> Alcotest.fail "records shape")

let test_snapshot_lines_valid () =
  let r = run_with_snapshots () in
  let lines = Report.snapshot_lines ~experiment:"test" r in
  check_bool "has window lines" true (lines <> []);
  List.iter
    (fun line ->
      match Json.of_string (Json.to_string line) with
      | Error e -> Alcotest.failf "reparse failed: %s" e
      | Ok parsed -> (
          match Report.validate_record parsed with
          | Ok () -> ()
          | Error e -> Alcotest.failf "schema: %s" e))
    lines

let test_aggregate_json_valid () =
  let a =
    Runner.run_many ~seeds:2 Kv.Htm_bptree (small_workload ()) (small_setup ())
  in
  match Report.validate_record (Schema.encode Report.aggregate a) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "schema: %s" e

let test_collector_observes_every_run () =
  Report.start_collecting ();
  Fun.protect ~finally:Report.stop_collecting (fun () ->
      let _ = Runner.run Kv.Htm_bptree (small_workload ()) (small_setup ()) in
      let _ =
        Runner.run_many ~seeds:2 Kv.Htm_bptree (small_workload ())
          (small_setup ())
      in
      (* one direct run + two seeds of run_many *)
      check_int "collected all runs" 3 (List.length (Report.collected ())));
  check_int "stopped" 0 (List.length (Report.collected ()))

let test_validation_rejects_wrong_version () =
  let bad =
    Json.Obj
      [
        ("schema_version", Json.Int (Schema.schema_version + 1));
        ("record", Json.Str "window");
      ]
  in
  match Report.validate_record bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted future schema version"

(* ---------- strategy-sweep campaign records ---------- *)

module Figures = Euno_harness.Figures

(* The strategy-sweep campaign must emit the complete {strategy} x
   {capacity model} matrix over its Figure 1/8/10 cells — every record
   schema-valid, and the whole record set byte-identical across a double
   run (the campaign is a simulation, so reruns are free of noise). *)
let test_strategy_sweep_records_complete_and_deterministic () =
  let scale =
    {
      Figures.quick_scale with
      Figures.key_space = 1 lsl 10;
      ops_per_thread = 100;
      max_threads = 4;
    }
  in
  let capture () =
    Figures.strategy_sweep scale;
    Figures.sweep_records ()
  in
  let records = capture () in
  let strategies = Euno_htm.Htm.strategy_names in
  let capacities = Euno_sim.Cost.capacity_model_names in
  (* fig1: 4 thetas; fig8: all kinds x 2 thetas; fig10: 2 trees x
     2 thetas x the {1, 4, 16} thread points <= max_threads (here 2) *)
  let cells = 4 + (2 * List.length Kv.all_kinds) + (2 * 2 * 2) in
  check_int "full matrix of records"
    (List.length strategies * List.length capacities * cells)
    (List.length records);
  let field name r =
    match Option.bind (Json.member name r) Json.as_string with
    | Some s -> s
    | None -> Alcotest.failf "record missing '%s'" name
  in
  List.iter
    (fun r ->
      match Report.validate_record r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "sweep record schema: %s" e)
    records;
  List.iter
    (fun s ->
      List.iter
        (fun cm ->
          check_int
            (Printf.sprintf "cells for %s/%s" s cm)
            cells
            (List.length
               (List.filter
                  (fun r ->
                    field "strategy" r = s && field "capacity_model" r = cm)
                  records)))
        capacities)
    strategies;
  List.iter
    (fun (figure, expect) ->
      check_int
        (figure ^ " cell count")
        (expect * List.length strategies * List.length capacities)
        (List.length (List.filter (fun r -> field "figure" r = figure) records)))
    [ ("fig1", 4); ("fig8", 2 * List.length Kv.all_kinds); ("fig10", 8) ];
  let again = capture () in
  check_bool "deterministic across double run" true
    (List.map Json.to_string records = List.map Json.to_string again)

(* ---------- check floor: minor words per record ---------- *)

(* [Kv.check] on a bulk-loaded 64 Ki-record tree, per record.  Every
   validator streams its walks through reused buffers and only reads
   simulated memory: no transaction, lock or reserved buffer per leaf,
   each of which would allocate on the host.  So none allocates per
   record. *)
let test_check_floor () =
  let n = 1 lsl 16 in
  let records = List.init n (fun k -> (k, k)) in
  List.iter
    (fun (kind, ceiling) ->
      let w = fresh_world () in
      let kv = run_one w (fun () -> Kv.build ~records kind ~fanout:16 ~map:w.map) in
      let before = Gc.minor_words () in
      run_one w kv.Kv.check;
      let got = (Gc.minor_words () -. before) /. float_of_int n in
      if got > ceiling then
        Alcotest.failf "%s: Kv.check %.2f minor words per record, ceiling %.1f"
          (Kv.kind_name kind) got ceiling)
    [
      (Kv.Htm_bptree, 1.0);
      (Kv.Lock_bptree, 1.0);
      (Kv.Masstree, 1.0);
      (Kv.Htm_masstree, 1.0);
      (Kv.Euno Config.full, 1.0);
    ]

(* ---------- validators are read-only ---------- *)

(* [Kv.check] runs inside measured machines (chaos checkpoints, crash
   recovery), so it must not perturb them: after puts and deletes, every
   tree's validator emits plain reads and nothing else — no write,
   transaction, allocation or lock announcement. *)
let test_check_read_only () =
  let records = List.init 3000 (fun k -> (2 * k, k)) in
  List.iter
    (fun kind ->
      let w = fresh_world () in
      let kv =
        run_one w (fun () ->
            let kv = Kv.build ~records kind ~fanout:8 ~map:w.map in
            for k = 0 to 299 do
              kv.Kv.put ((20 * k) + 1) k;
              ignore (kv.Kv.delete (20 * k))
            done;
            kv)
      in
      let m =
        Machine.create ~threads:1 ~seed:42 ~cost:Cost.unit_costs ~mem:w.mem
          ~map:w.map ~alloc:w.alloc
      in
      let reads = ref 0 and exits = ref 0 and other = ref [] in
      Machine.set_observer m
        (Some
           (fun e ->
             match e.Euno_sim.Sev.body with
             | Euno_sim.Sev.Plain_read _ -> incr reads
             | Euno_sim.Sev.Thread_exit { failed = false; aborted = false } ->
                 incr exits
             | _ -> other := e :: !other));
      Machine.run m (fun _ -> kv.Kv.check ());
      let name = Kv.kind_name kind in
      check_bool (name ^ " reads the tree") true (!reads > 0);
      check_int (name ^ " clean thread exit") 1 !exits;
      check_int (name ^ " events other than plain reads") 0
        (List.length !other))
    [
      Kv.Htm_bptree;
      Kv.Lock_bptree;
      Kv.Euno Config.full;
      Kv.Euno Config.default;
      Kv.Masstree;
      Kv.Htm_masstree;
    ]

let suite =
  [
    Alcotest.test_case "check floor: Kv.check words per record" `Quick
      test_check_floor;
    Alcotest.test_case "validators are read-only" `Quick test_check_read_only;
    Alcotest.test_case "stress marathon (all trees)" `Slow
      test_stress_marathon;
    Alcotest.test_case "kv semantic parity across trees" `Slow
      test_kv_semantic_parity;
    Alcotest.test_case "runner sane result" `Quick
      test_runner_produces_sane_result;
    Alcotest.test_case "runner deterministic" `Quick test_runner_deterministic;
    Alcotest.test_case "seed changes schedule" `Quick
      test_runner_seed_changes_schedule;
    Alcotest.test_case "abort classes sum to total" `Quick
      test_abort_classes_sum;
    Alcotest.test_case "no ops lost across thread counts" `Quick
      test_more_threads_do_not_lose_ops;
    Alcotest.test_case "scan+delete mix supported" `Slow
      test_scan_and_delete_mix_supported;
    Alcotest.test_case "reserved memory is transient" `Quick
      test_memory_accounting_reserved_transient;
    Alcotest.test_case "run_many aggregates" `Quick test_run_many_aggregates;
    Alcotest.test_case "lock tree under concurrency" `Quick
      test_lock_tree_correct_under_concurrency;
    Alcotest.test_case "key space validation" `Quick
      test_key_space_must_be_power_of_two;
    prop_partition_scan_stays_on_stride;
    Alcotest.test_case "partitioned scans share nothing" `Quick
      test_partitioned_scans_share_nothing;
    Alcotest.test_case "snapshots cover the run" `Quick test_snapshots_cover_run;
    Alcotest.test_case "no snapshots by default" `Quick
      test_no_snapshots_by_default;
    Alcotest.test_case "result JSON valid" `Quick
      test_result_json_valid_and_parses;
    Alcotest.test_case "snapshot JSONL lines valid" `Quick
      test_snapshot_lines_valid;
    Alcotest.test_case "aggregate JSON valid" `Quick test_aggregate_json_valid;
    Alcotest.test_case "collector observes every run" `Quick
      test_collector_observes_every_run;
    Alcotest.test_case "schema version enforced" `Quick
      test_validation_rejects_wrong_version;
    Alcotest.test_case "strategy-sweep records complete + deterministic" `Slow
      test_strategy_sweep_records_complete_and_deterministic;
  ]
