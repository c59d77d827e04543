(* EunoSan: the four checkers, their happens-before edges, and mutation
   runs proving the sanitizer catches the historical bugs it was built
   to catch. *)

open Util
module San = Euno_san.San
module Sev = Euno_sim.Sev
module Htm = Euno_htm.Htm
module Kv = Euno_harness.Kv
module Runner = Euno_harness.Runner
module Linemap = Euno_mem.Linemap

(* ---------- synthetic event streams ---------- *)

(* The checker is pure state over the stream, so the unit tests feed it
   hand-written events: one scenario per happens-before edge and per
   diagnostic kind. *)

let feed c tid clock body = San.hook c { Sev.tid; clock; body }
let wr addr = Sev.Plain_write { addr; kind = Linemap.Record }
let rd addr = Sev.Plain_read { addr; kind = Linemap.Record }
let commit = Sev.Txn_commit { reads = 1; writes = 1 }
let aborted = Sev.Txn_aborted Euno_sim.Abort.Spurious

let kinds (s : San.summary) =
  List.map (fun (f : San.finding) -> f.San.f_kind) s.San.findings

let has k (s : San.summary) = List.mem k (kinds s)

let check_clean what (s : San.summary) =
  if s.San.total <> 0 then
    Alcotest.failf "%s: expected clean, got %s" what
      (String.concat ", "
         (List.map
            (fun (f : San.finding) -> f.San.f_detail)
            s.San.findings))

let test_race_detected () =
  let c = San.create () in
  feed c 0 10 (wr 100);
  feed c 1 20 (wr 100);
  let s = San.finish c in
  check_bool "unordered writes race" true (has San.Race s);
  (* same subject reported once *)
  feed c 1 30 (wr 100);
  check_int "deduplicated" (San.finish c).San.total s.San.total

let test_race_read_write () =
  let c = San.create () in
  feed c 0 10 (rd 100);
  feed c 1 20 (wr 100);
  check_bool "unordered read/write races" true (has San.Race (San.finish c))

let test_release_acquire_suppresses () =
  let c = San.create () in
  let l k = Sev.Note (Sev.Acquire (Sev.Spin, k))
  and u k = Sev.Note (Sev.Release (Sev.Spin, k)) in
  feed c 0 1 (l 7);
  feed c 0 2 (wr 100);
  feed c 0 3 (u 7);
  feed c 1 4 (l 7);
  feed c 1 5 (wr 100);
  feed c 1 6 (rd 100);
  feed c 1 7 (u 7);
  check_clean "lock-ordered accesses" (San.finish c)

let test_publish_suppresses () =
  let c = San.create () in
  (* t0 initializes word 100, then publishes into version lock 200 it
     never held; t1 acquires that lock before touching the word. *)
  feed c 0 1 (wr 100);
  feed c 0 2 (Sev.Note (Sev.Publish (Sev.Version, 200)));
  feed c 1 3 (Sev.Note (Sev.Acquire (Sev.Version, 200)));
  feed c 1 4 (wr 100);
  feed c 1 5 (Sev.Note (Sev.Release (Sev.Version, 200)));
  check_clean "publish edge" (San.finish c)

let test_barrier_suppresses () =
  let c = San.create () in
  feed c 0 1 (wr 100);
  feed c 0 2 (Sev.Note (Sev.Barrier_arrive 3));
  feed c 1 3 (Sev.Note (Sev.Barrier_arrive 3));
  feed c 0 4 (Sev.Note (Sev.Barrier_depart 3));
  feed c 1 5 (Sev.Note (Sev.Barrier_depart 3));
  feed c 1 6 (wr 100);
  check_clean "barrier episode" (San.finish c)

let test_commit_edge_suppresses () =
  let c = San.create () in
  (* t0's plain write precedes its commit of line 5; t1's transaction
     touches line 5 (eager conflict detection orders it after the commit)
     and only then touches the word. *)
  feed c 0 1 (wr 100);
  feed c 0 2 Sev.Txn_begin;
  feed c 0 3 (Sev.Txn_line_write 5);
  feed c 0 4 commit;
  feed c 1 5 Sev.Txn_begin;
  feed c 1 6 (Sev.Txn_line_read 5);
  feed c 1 7 commit;
  feed c 1 8 (wr 100);
  check_clean "commit-ordered accesses" (San.finish c)

let test_incarnation_suppresses () =
  let c = San.create () in
  (* t0 exits before t1's first event: sequential run phases. *)
  feed c 0 1 (wr 100);
  feed c 0 2 (Sev.Thread_exit { failed = false; aborted = false });
  feed c 1 3 (wr 100);
  check_clean "sequential incarnations" (San.finish c)

let test_opt_section_suppresses_reads_only () =
  let c = San.create () in
  feed c 0 1 (wr 100);
  feed c 1 2 (Sev.Note Sev.Opt_enter);
  feed c 1 3 (rd 100);
  feed c 1 4 (Sev.Note Sev.Opt_exit);
  check_clean "validated optimistic read" (San.finish c);
  (* ...but a write inside an optimistic section is never excused. *)
  let c = San.create () in
  feed c 0 1 (wr 100);
  feed c 1 2 (Sev.Note Sev.Opt_enter);
  feed c 1 3 (wr 100);
  check_bool "optimistic write still races" true (has San.Race (San.finish c))

let test_racy_mark_suppresses () =
  Sev.set_armed true;
  Fun.protect ~finally:(fun () ->
      Sev.set_armed false;
      Sev.reset_racy ())
  @@ fun () ->
  Sev.mark_racy 100;
  let c = San.create () in
  feed c 0 1 (wr 100);
  feed c 1 2 (wr 100);
  check_clean "benign-race hint word" (San.finish c)

let test_alloc_clears_history () =
  let c = San.create () in
  feed c 0 1 (wr 100);
  (* The word is recycled: a fresh allocation owns it now, so the old
     access history must not implicate the new user. *)
  feed c 1 2 (Sev.Alloc_done { addr = 96; words = 8 });
  feed c 1 3 (wr 100);
  check_clean "allocation resets address state" (San.finish c)

let test_lock_leak_at_op_exit () =
  let c = San.create () in
  feed c 0 1 (Sev.Note (Sev.Acquire (Sev.Spin, 7)));
  feed c 0 2 (Sev.Op_exit 0);
  check_bool "leak flagged" true (has San.Lock_leak (San.finish c))

let test_lock_leak_at_thread_exit () =
  let c = San.create () in
  feed c 0 1 (Sev.Note (Sev.Acquire (Sev.Slot, 3)));
  feed c 0 2 (Sev.Thread_exit { failed = false; aborted = false });
  check_bool "leak flagged" true (has San.Lock_leak (San.finish c))

let test_bad_release () =
  let c = San.create () in
  feed c 0 1 (Sev.Note (Sev.Release (Sev.Ticket, 9)));
  check_bool "release of unheld lock flagged" true
    (has San.Bad_release (San.finish c))

let test_lock_cycle () =
  let c = San.create () in
  let l k = Sev.Note (Sev.Acquire (Sev.Spin, k))
  and u k = Sev.Note (Sev.Release (Sev.Spin, k)) in
  feed c 0 1 (l 1);
  feed c 0 2 (l 2);
  feed c 0 3 (u 2);
  feed c 0 4 (u 1);
  feed c 1 5 (l 2);
  feed c 1 6 (l 1);
  feed c 1 7 (u 1);
  feed c 1 8 (u 2);
  check_bool "inverted order flagged" true (has San.Lock_cycle (San.finish c));
  (* consistent order stays clean *)
  let c = San.create () in
  feed c 0 1 (l 1);
  feed c 0 2 (l 2);
  feed c 0 3 (u 2);
  feed c 0 4 (u 1);
  feed c 1 5 (l 1);
  feed c 1 6 (l 2);
  feed c 1 7 (u 2);
  feed c 1 8 (u 1);
  check_clean "consistent order" (San.finish c)

let test_atomicity_violation () =
  let c = San.create () in
  let addr = 640 in
  let line = Euno_mem.Memory.line_of_addr addr in
  feed c 0 1 Sev.Txn_begin;
  feed c 0 2 (Sev.Txn_line_write line);
  feed c 1 3 (Sev.Unsafe_write addr);
  check_bool "untracked write into live txn footprint flagged" true
    (has San.Atomicity (San.finish c));
  (* untracked write into a live *read* set is flagged too: it is the
     update the transaction will never observe *)
  let c = San.create () in
  feed c 0 1 Sev.Txn_begin;
  feed c 0 2 (Sev.Txn_line_read line);
  feed c 1 3 (Sev.Unsafe_write addr);
  check_bool "untracked write into live read set flagged" true
    (has San.Atomicity (San.finish c));
  (* untracked read of a live write set can observe a line mid-rewrite *)
  let c = San.create () in
  feed c 0 1 Sev.Txn_begin;
  feed c 0 2 (Sev.Txn_line_write line);
  feed c 1 3 (Sev.Unsafe_read addr);
  check_bool "untracked read of live write set flagged" true
    (has San.Atomicity (San.finish c));
  (* ...but an untracked read against a line other transactions merely
     *read* is benign: that is the 3-path fast path's unsubscribed peek
     of the fallback-activity counter, correct by protocol design *)
  let c = San.create () in
  feed c 0 1 Sev.Txn_begin;
  feed c 0 2 (Sev.Txn_line_read line);
  feed c 1 3 (Sev.Unsafe_read addr);
  check_clean "untracked read vs read set is benign" (San.finish c);
  (* after the commit the footprint is retired *)
  let c = San.create () in
  feed c 0 1 Sev.Txn_begin;
  feed c 0 2 (Sev.Txn_line_write line);
  feed c 0 3 commit;
  feed c 1 4 (Sev.Unsafe_write addr);
  check_clean "footprint retired at commit" (San.finish c)

let test_txn_unbalanced () =
  let c = San.create () in
  feed c 0 1 Sev.Txn_begin;
  feed c 0 2 Sev.Txn_begin;
  check_bool "nested begin flagged" true
    (has San.Txn_unbalanced (San.finish c));
  let c = San.create () in
  feed c 0 1 commit;
  check_bool "commit without begin flagged" true
    (has San.Txn_unbalanced (San.finish c));
  let c = San.create () in
  feed c 0 1 Sev.Txn_begin;
  feed c 0 2 (Sev.Thread_exit { failed = true; aborted = false });
  check_bool "exit with open txn flagged" true
    (has San.Txn_unbalanced (San.finish c))

let test_escaped_abort () =
  let c = San.create () in
  feed c 0 1 aborted;
  check_bool "abort outside attempt flagged" true
    (has San.Escaped_abort (San.finish c));
  (* the same delivery inside Htm.attempt is the normal protocol *)
  let c = San.create () in
  feed c 0 1 (Sev.Note Sev.Attempt_enter);
  feed c 0 2 aborted;
  feed c 0 3 (Sev.Note Sev.Attempt_exit);
  check_clean "abort inside attempt" (San.finish c);
  let c = San.create () in
  feed c 0 1 (Sev.Thread_exit { failed = true; aborted = true });
  check_bool "thread death by abort flagged" true
    (has San.Escaped_abort (San.finish c))

(* The trace-only kinds pass through the checker untouched: not counted,
   not attributed to a thread, never a finding. *)
let test_trace_only_kinds_ignored () =
  let c = San.create () in
  feed c 0 1 (Sev.Conflict { victim = 1; line = 5; kind = Linemap.Record });
  feed c 1 2 (Sev.Injected "alloc-pressure");
  let s = San.finish c in
  check_int "no events counted" 0 s.San.events;
  check_clean "no findings" s

(* ---------- machine-integrated scenarios ---------- *)

(* Arm the sanitizer around [f], with a checker hooked to machine [m]. *)
let with_checker m f =
  Sev.set_armed true;
  Sev.reset_racy ();
  Fun.protect ~finally:(fun () ->
      Sev.set_armed false;
      Sev.reset_racy ())
  @@ fun () ->
  let c = San.create () in
  Euno_sim.Machine.set_observer m (Some (San.hook c));
  f c;
  San.finish c

(* A seeded seqlock misuse: the writer side is taken and the operation
   retires without releasing it.  The announcement plumbing must turn
   that into a Lock_leak against the seqlock word. *)
let test_seqlock_misuse_flagged () =
  let w = fresh_world () in
  let m =
    Machine.create ~threads:1 ~seed:3 ~cost:Cost.unit_costs ~mem:w.mem
      ~map:w.map ~alloc:w.alloc
  in
  let s =
    with_checker m (fun _ ->
        Machine.run m (fun _ ->
            let l = Euno_sync.Seqlock.alloc () in
            Euno_sync.Seqlock.write_begin l;
            Api.op_done ()))
  in
  check_bool "seqlock writer leak flagged" true (has San.Lock_leak s);
  check_bool "implicates the seqlock" true
    (List.exists
       (fun (f : San.finding) ->
         f.San.f_kind = San.Lock_leak
         && String.length f.San.f_subject >= 7
         && String.sub f.San.f_subject 0 7 = "seqlock")
       s.San.findings)

(* Mutation: the PR 2 Euno_tree bug — an exception escaping the lower
   region skips the release of the CCM slot bit and advisory split lock.
   Drive a split into an injected allocation failure; with the mutation
   armed the sanitizer must flag the leak, and with it off the very same
   schedule must be clean. *)
let euno_leak_scenario ~mutate =
  let w = fresh_world () in
  (* adaptive off: every operation runs engaged and takes its slot lock,
     so the leak is reachable without first provoking a promotion *)
  let cfg = { Eunomia.Config.full with Eunomia.Config.adaptive = false } in
  let kv =
    run_one w (fun () -> Kv.build (Kv.Euno cfg) ~fanout:8 ~map:w.map)
  in
  let m =
    Machine.create ~threads:1 ~seed:5 ~cost:Cost.unit_costs ~mem:w.mem
      ~map:w.map ~alloc:w.alloc
  in
  let starve = ref false in
  Machine.set_injector m
    {
      Machine.no_injector with
      inj_alloc_fail = (fun ~tid:_ ~clock:_ ~in_txn:_ -> !starve);
    };
  Euno_sim.Domain_ref.set Eunomia.Euno_tree.Testonly.leak_locks_on_exn mutate;
  Fun.protect ~finally:(fun () ->
      Euno_sim.Domain_ref.set Eunomia.Euno_tree.Testonly.leak_locks_on_exn false)
  @@ fun () ->
  with_checker m (fun _ ->
      Machine.run m (fun _ ->
          (* fill one leaf, then starve the allocator so the split the
             next inserts force dies with Alloc_failure mid-operation *)
          (try
             for k = 0 to 40 do
               if k = 12 then starve := true;
               kv.Kv.put k k;
               Api.op_done ()
             done
           with Euno_mem.Alloc.Alloc_failure -> Api.op_done ())))

let test_euno_lock_leak_mutation_flagged () =
  let s = euno_leak_scenario ~mutate:true in
  check_bool "mutated Euno tree leaks are flagged" true (has San.Lock_leak s)

let test_euno_lock_leak_fixed_clean () =
  check_clean "fixed Euno tree under the same schedule"
    (euno_leak_scenario ~mutate:false)

(* Mutation: the PR 2 Htm.attempt bug — starting the transaction before
   the match scrutinee lets an abort delivered at the xbegin park point
   escape uncaught and kill the thread. *)
let park_escape_scenario ~mutate =
  let w = fresh_world () in
  let m =
    Machine.create ~threads:1 ~seed:1 ~cost:Cost.unit_costs ~mem:w.mem
      ~map:w.map ~alloc:w.alloc
  in
  Machine.set_injector m
    {
      Machine.no_injector with
      inj_preempt =
        (fun ~tid:_ ~clock ->
          if clock >= 11 && clock < 3_000 then clock + 37 else 0);
    };
  Euno_sim.Domain_ref.set Htm.Testonly.escape_xbegin_park mutate;
  Fun.protect ~finally:(fun () -> Euno_sim.Domain_ref.set Htm.Testonly.escape_xbegin_park false)
  @@ fun () ->
  with_checker m (fun _ ->
      match
        Machine.run m (fun _ ->
            let addr = scratch w ~words:8 in
            Api.work 10;
            ignore (Htm.attempt (fun () -> ignore (Api.read addr))))
      with
      | () -> ()
      | exception Euno_sim.Eff.Txn_abort _ ->
          if not mutate then Alcotest.fail "abort escaped the fixed attempt")

let test_park_escape_mutation_flagged () =
  let s = park_escape_scenario ~mutate:true in
  check_bool "escaped xbegin-park abort flagged" true (has San.Escaped_abort s)

let test_park_escape_fixed_clean () =
  check_clean "fixed attempt under the same preemption"
    (park_escape_scenario ~mutate:false)

(* ---------- clean full-stack runs ---------- *)

(* Every tree, sanitized end to end at smoke scale: zero findings.  The
   full-scale equivalent (plus the chaos campaign) runs in CI via
   euno_repro san. *)
let test_trees_clean_under_sanitizer () =
  let workload =
    {
      Runner.default_workload with
      Runner.key_space = 1 lsl 10;
      mix = { get = 40; put = 35; scan = 10; delete = 10; rmw = 5 };
    }
  in
  let setup =
    {
      Runner.default_setup with
      Runner.threads = 4;
      ops_per_thread = 150;
      sanitize = true;
      check_after = true;
    }
  in
  List.iter
    (fun kind ->
      let r = Runner.run kind workload setup in
      match r.Runner.r_san with
      | None -> Alcotest.fail "sanitized run returned no summary"
      | Some s ->
          check_bool "consumed events" true (s.San.events > 0);
          check_clean (Kv.kind_name kind) s)
    Kv.all_kinds

(* ---------- telemetry ---------- *)

let test_san_record_validates () =
  let module Report = Euno_harness.Report in
  let c = San.create () in
  feed c 0 1 (Sev.Note (Sev.Release (Sev.Ticket, 9)));
  let s = San.finish c in
  let j =
    Euno_harness.(
      Schema.encode ~experiment:"san" ~run:0 San_run.record
        {
          San_run.o_tree = "Euno-B+Tree";
          o_workload = "zipf-0.80";
          o_strategy = "elision";
          o_capacity_model = "nominal";
          o_threads = 4;
          o_seed = 42;
          o_summary = s;
        })
  in
  (match Report.validate_record j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "san record rejected: %s" e);
  match Report.validate_document (Euno_harness.Schema.document ~experiment:"san" [ j ]) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "san document rejected: %s" e

let suite =
  [
    Alcotest.test_case "race: unordered writes" `Quick test_race_detected;
    Alcotest.test_case "race: unordered read/write" `Quick test_race_read_write;
    Alcotest.test_case "hb: release->acquire" `Quick
      test_release_acquire_suppresses;
    Alcotest.test_case "hb: publish" `Quick test_publish_suppresses;
    Alcotest.test_case "hb: barrier episode" `Quick test_barrier_suppresses;
    Alcotest.test_case "hb: transaction commit" `Quick
      test_commit_edge_suppresses;
    Alcotest.test_case "hb: sequential incarnations" `Quick
      test_incarnation_suppresses;
    Alcotest.test_case "optimistic sections excuse reads only" `Quick
      test_opt_section_suppresses_reads_only;
    Alcotest.test_case "benign-race marks" `Quick test_racy_mark_suppresses;
    Alcotest.test_case "allocation clears history" `Quick
      test_alloc_clears_history;
    Alcotest.test_case "lock leak at op exit" `Quick test_lock_leak_at_op_exit;
    Alcotest.test_case "lock leak at thread exit" `Quick
      test_lock_leak_at_thread_exit;
    Alcotest.test_case "bad release" `Quick test_bad_release;
    Alcotest.test_case "lock-order cycle" `Quick test_lock_cycle;
    Alcotest.test_case "atomicity violation" `Quick test_atomicity_violation;
    Alcotest.test_case "unbalanced transactions" `Quick test_txn_unbalanced;
    Alcotest.test_case "escaped abort" `Quick test_escaped_abort;
    Alcotest.test_case "trace-only kinds ignored" `Quick
      test_trace_only_kinds_ignored;
    Alcotest.test_case "seqlock misuse flagged" `Quick
      test_seqlock_misuse_flagged;
    Alcotest.test_case "mutation: Euno lock leak flagged" `Quick
      test_euno_lock_leak_mutation_flagged;
    Alcotest.test_case "mutation: Euno fixed path clean" `Quick
      test_euno_lock_leak_fixed_clean;
    Alcotest.test_case "mutation: xbegin-park escape flagged" `Quick
      test_park_escape_mutation_flagged;
    Alcotest.test_case "mutation: xbegin-park fixed path clean" `Quick
      test_park_escape_fixed_clean;
    Alcotest.test_case "all trees clean under sanitizer" `Quick
      test_trees_clean_under_sanitizer;
    Alcotest.test_case "san telemetry record validates" `Quick
      test_san_record_validates;
  ]
