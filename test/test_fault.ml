(* Fault-injection subsystem: each injector hook provokes exactly its
   fault, plans compile and compose correctly, and — the point of the
   whole campaign — the trees stay correct under arbitrary adversity. *)

open Util
module Abort = Euno_sim.Abort
module Htm = Euno_htm.Htm
module Plan = Euno_fault.Plan
module Chaos = Euno_harness.Chaos
module Kv = Euno_harness.Kv
module Report = Euno_harness.Report
module Json = Euno_stats.Json

let machine ?(threads = 1) ?(seed = 1) w injector =
  let m =
    Machine.create ~threads ~seed ~cost:Cost.unit_costs ~mem:w.mem ~map:w.map
      ~alloc:w.alloc
  in
  Machine.set_injector m injector;
  m

(* ---------- per-fault unit tests ---------- *)

let test_spurious_burst () =
  let w = fresh_world () in
  let m =
    machine w
      {
        Machine.no_injector with
        inj_spurious =
          (fun ~tid:_ ~clock -> if clock < 2_000 then 1_000_000 else 0);
      }
  in
  let in_window = ref 0 in
  Machine.run m (fun _ ->
      let addr = scratch w ~words:8 in
      (* Inside the burst every transactional access rolls the hazard at
         probability one, so no attempt can commit.  Stop looping well
         before the window edge: an attempt started at clock 1999 would
         legitimately commit at 2001. *)
      while Api.clock () < 1_000 do
        match Htm.attempt (fun () -> ignore (Api.read addr)) with
        | Ok () -> Alcotest.fail "commit inside a certain spurious storm"
        | Error Abort.Spurious -> incr in_window
        | Error _ -> ()
      done;
      (* After the window the same transaction commits. *)
      Api.work 2_000;
      match Htm.attempt (fun () -> ignore (Api.read addr)) with
      | Ok () -> ()
      | Error c ->
          Alcotest.failf "post-window attempt aborted: %s" (Abort.to_string c));
  check_bool "spurious aborts injected" true (!in_window > 0);
  let s = Machine.aggregate m in
  check_bool "spurious bucket counted" true
    (s.Machine.s_aborts.(Abort.index Abort.Spurious) >= !in_window)

let test_capacity_squeeze () =
  let w = fresh_world () in
  let m =
    machine w
      {
        Machine.no_injector with
        inj_capacity = (fun ~tid:_ ~clock:_ -> Some (2, 64));
      }
  in
  Machine.run m (fun _ ->
      let a = scratch w ~words:32 (* four cache lines *) in
      (match
         Htm.attempt (fun () ->
             for l = 0 to 3 do
               ignore (Api.read (a + (l * Euno_mem.Memory.line_words)))
             done)
       with
      | Error Abort.Capacity_read -> ()
      | Ok () -> Alcotest.fail "4-line read set fit a squeezed rs=2"
      | Error c -> Alcotest.failf "wrong abort: %s" (Abort.to_string c));
      (* A read set within the squeezed limit still commits. *)
      match Htm.attempt (fun () -> ignore (Api.read a)) with
      | Ok () -> ()
      | Error c -> Alcotest.failf "1-line attempt aborted: %s" (Abort.to_string c))

let test_preempt_stalls_thread () =
  let w = fresh_world () in
  let m =
    machine ~threads:2 w
      {
        Machine.no_injector with
        inj_preempt =
          (fun ~tid ~clock -> if tid = 1 && clock < 5_000 then 5_000 else 0);
      }
  in
  let clocks = Array.make 2 0 in
  Machine.run m (fun tid ->
      Api.work 10;
      clocks.(tid) <- Api.clock ());
  check_bool "victim descheduled past the window" true (clocks.(1) >= 5_000);
  check_bool "other thread unaffected" true (clocks.(0) < 5_000)

(* Regression: the machine starts a transaction eagerly when Api.xbegin
   is interpreted, so a preemption can doom a thread while it is still
   parked at the xbegin call site.  The abort is then delivered exactly
   there — Htm.attempt must catch it (its match scrutinee starts at the
   xbegin) instead of letting an uncaught Txn_abort kill the thread. *)
let test_preempt_at_xbegin_caught () =
  let w = fresh_world () in
  (* Unit costs: Api.work 10 parks at clock 10, the xbegin park point is
     clock 11.  Opening the window there makes the first preemption land
     on a thread parked at xbegin with a live, empty transaction. *)
  let m =
    machine w
      {
        Machine.no_injector with
        inj_preempt =
          (fun ~tid:_ ~clock ->
            if clock >= 11 && clock < 3_000 then clock + 37 else 0);
      }
  in
  let first = ref None and second = ref None in
  Machine.run m (fun _ ->
      let addr = scratch w ~words:8 in
      Api.work 10;
      first := Some (Htm.attempt (fun () -> ignore (Api.read addr)));
      second := Some (Htm.attempt (fun () -> ignore (Api.read addr))));
  (match !first with
  | Some (Error Abort.Spurious) -> ()
  | Some (Ok ()) -> Alcotest.fail "attempt committed through the preemption"
  | Some (Error c) -> Alcotest.failf "wrong abort: %s" (Abort.to_string c)
  | None -> Alcotest.fail "body did not run");
  (match !second with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "post-preemption attempt failed");
  let s = Machine.aggregate m in
  check_bool "spurious preempt abort counted" true
    (s.Machine.s_aborts.(Abort.index Abort.Spurious) >= 1)

let test_clock_skew_slows_thread () =
  let w = fresh_world () in
  let m =
    machine ~threads:2 w
      {
        Machine.no_injector with
        inj_skew = (fun ~tid ~clock:_ -> if tid = 1 then 1_000 else 0);
      }
  in
  let deltas = Array.make 2 0 in
  Machine.run m (fun tid ->
      let t0 = Api.clock () in
      Api.work 1_000;
      deltas.(tid) <- Api.clock () - t0);
  (* 1000 per-mille = every charge doubled *)
  check_bool "skewed thread at least 1.5x slower" true
    (deltas.(1) * 2 >= deltas.(0) * 3)

let test_alloc_pressure_txn () =
  let w = fresh_world () in
  let m =
    machine w
      {
        Machine.no_injector with
        inj_alloc_fail = (fun ~tid:_ ~clock:_ ~in_txn -> in_txn);
      }
  in
  Machine.run m (fun _ ->
      let alloc_one () =
        ignore (Api.alloc ~kind:Linemap.Scratch ~words:8)
      in
      (match Htm.attempt alloc_one with
      | Error Abort.Alloc_fault -> ()
      | Ok () -> Alcotest.fail "transactional alloc survived pressure"
      | Error c -> Alcotest.failf "wrong abort: %s" (Abort.to_string c));
      (* The same allocation outside a transaction takes the reserve pool
         and succeeds: that asymmetry is what makes the fallback path a
         graceful-degradation path. *)
      alloc_one ());
  let s = Machine.aggregate m in
  check_bool "alloc-fault bucket counted" true
    (s.Machine.s_aborts.(Abort.index Abort.Alloc_fault) > 0)

let test_alloc_pressure_plain_raises () =
  let w = fresh_world () in
  let m =
    machine w
      {
        Machine.no_injector with
        inj_alloc_fail = (fun ~tid:_ ~clock:_ ~in_txn:_ -> true);
      }
  in
  Machine.run m (fun _ ->
      match Api.alloc ~kind:Linemap.Scratch ~words:8 with
      | exception Euno_mem.Alloc.Alloc_failure -> ()
      | _ -> Alcotest.fail "plain alloc expected Alloc_failure")

(* ---------- whole-process crash ---------- *)

(* The power cord: an armed crash kills every thread at once.  Committed
   plain writes survive, a half-applied plain write pair stays torn (no
   unwinding runs), and an in-flight transaction rolls back with RTM
   failure atomicity — exactly the post-mortem state the recovery driver
   starts from. *)
let test_machine_crash_kills_all_threads () =
  let w = fresh_world () in
  let durable = scratch w ~words:8 in
  let torn = scratch w ~words:8 in
  let txn = scratch w ~words:8 in
  let m =
    Machine.create ~threads:2 ~seed:1 ~cost:Cost.unit_costs ~mem:w.mem
      ~map:w.map ~alloc:w.alloc
  in
  Machine.set_crash m ~at_cycle:500;
  (match
     Machine.run m (fun tid ->
         if tid = 0 then begin
           Api.write durable 1111;
           Api.write torn 7;
           Api.work 10_000;
           (* never reached: the crash lands mid-stall *)
           Api.write (torn + 1) 7
         end
         else
           ignore
             (Htm.attempt (fun () ->
                  Api.write txn 3333;
                  Api.work 10_000)))
   with
  | () -> Alcotest.fail "run survived an armed crash"
  | exception Machine.Crashed { at_cycle } ->
      check_bool "died once the armed instant was reached" true
        (at_cycle >= 500));
  check_int "committed plain write survives" 1111 (Memory.get w.mem durable);
  check_int "plain write pair left torn" 7 (Memory.get w.mem torn);
  check_int "second half never applied" 0 (Memory.get w.mem (torn + 1));
  check_int "in-flight transaction rolled back" 0 (Memory.get w.mem txn)

(* ---------- plan compilation ---------- *)

let test_plan_compiles_windows_and_targets () =
  let plan =
    [
      {
        Plan.fault = Plan.Spurious_burst { extra_per_million = 20_000 };
        target = Plan.Thread 1;
        window = Plan.window ~from_cycle:100 ~until_cycle:200;
      };
      {
        Plan.fault = Plan.Spurious_burst { extra_per_million = 5_000 };
        target = Plan.All;
        window = Plan.window ~from_cycle:150 ~until_cycle:300;
      };
    ]
  in
  let inj = Plan.to_injector plan in
  check_int "outside window" 0 (inj.Machine.inj_spurious ~tid:1 ~clock:50);
  check_int "targeted thread" 20_000 (inj.Machine.inj_spurious ~tid:1 ~clock:120);
  check_int "untargeted thread" 0 (inj.Machine.inj_spurious ~tid:0 ~clock:120);
  check_int "overlap adds" 25_000 (inj.Machine.inj_spurious ~tid:1 ~clock:160);
  check_int "window end exclusive" 0 (inj.Machine.inj_spurious ~tid:1 ~clock:300);
  (match Plan.span plan with
  | Some (100, 300) -> ()
  | _ -> Alcotest.fail "span");
  check_bool "alloc pressure spares plain allocs" false
    ((Plan.to_injector
        [
          {
            Plan.fault = Plan.Alloc_pressure;
            target = Plan.All;
            window = Plan.window ~from_cycle:0 ~until_cycle:1_000;
          };
        ])
       .Machine.inj_alloc_fail ~tid:0 ~clock:10 ~in_txn:false)

let test_plan_json_roundtrip () =
  let plan =
    [
      {
        Plan.fault = Plan.Spurious_burst { extra_per_million = 7 };
        target = Plan.Thread 3;
        window = Plan.window ~from_cycle:10 ~until_cycle:20;
      };
      {
        Plan.fault = Plan.Capacity_squeeze { rs = 4; ws = 2 };
        target = Plan.All;
        window = Plan.window ~from_cycle:0 ~until_cycle:5;
      };
      {
        Plan.fault = Plan.Preempt;
        target = Plan.Thread 0;
        window = Plan.window ~from_cycle:1 ~until_cycle:2;
      };
      {
        Plan.fault = Plan.Lock_holder_stall { stall = 99 };
        target = Plan.All;
        window = Plan.window ~from_cycle:5 ~until_cycle:6;
      };
      {
        Plan.fault = Plan.Clock_skew { per_mille = 250 };
        target = Plan.Thread 1;
        window = Plan.window ~from_cycle:7 ~until_cycle:9;
      };
      {
        Plan.fault = Plan.Alloc_pressure;
        target = Plan.All;
        window = Plan.window ~from_cycle:3 ~until_cycle:4;
      };
      Plan.crash_at ~cycle:123;
    ]
  in
  (match Plan.of_json (Plan.to_json plan) with
  | Ok p -> check_bool "every fault class round-trips" true (p = plan)
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* and strictness: a degraded plan must not silently replay different
     adversity *)
  (match Plan.of_json (Json.Str "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a non-list plan");
  let inj fields = Json.List [ Json.Obj fields ] in
  (match
     Plan.of_json
       (inj
          [
            ("fault", Json.Str "warp_core_breach");
            ("target", Json.Str "all");
            ("from_cycle", Json.Int 0);
            ("until_cycle", Json.Int 1);
          ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown fault");
  (match
     Plan.of_json
       (inj
          [
            ("fault", Json.Str "clock_skew");
            ("target", Json.Int 1);
            ("from_cycle", Json.Int 0);
            ("until_cycle", Json.Int 1);
          ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a clock_skew without per_mille");
  match
    Plan.of_json
      (inj
         [
           ("fault", Json.Str "crash");
           ("target", Json.Str "all");
           ("from_cycle", Json.Int 9);
           ("until_cycle", Json.Int 3);
         ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a negative window span"

(* Overlapping Crash windows compose as last-crash-wins: each scheduled
   crash re-arms the same power event, so the machine dies once, at the
   greatest onset — wherever it sits in the plan list. *)
let test_crash_composition_last_wins () =
  check_bool "crash-free plan has no crash point" true
    (Plan.crash_point (Plan.campaign ~threads:4 ~horizon:100_000) = None);
  let overlapping =
    [
      {
        Plan.fault = Plan.Crash;
        target = Plan.All;
        window = Plan.window ~from_cycle:2_000 ~until_cycle:9_000;
      };
      Plan.crash_at ~cycle:5_000;
      {
        Plan.fault = Plan.Crash;
        target = Plan.Thread 3 (* ignored: a process death takes all *);
        window = Plan.window ~from_cycle:3_500 ~until_cycle:3_500;
      };
    ]
  in
  check_bool "last crash wins across overlapping windows" true
    (Plan.crash_point overlapping = Some 5_000);
  check_bool "the instant wins, not the list position" true
    (Plan.crash_point (List.rev overlapping) = Some 5_000);
  (* Crash is armed via crash_point, never via the injector hooks *)
  let inj = Plan.to_injector overlapping in
  check_int "no spurious hook from a crash" 0
    (inj.Machine.inj_spurious ~tid:0 ~clock:5_000);
  check_int "no preempt hook from a crash" 0
    (inj.Machine.inj_preempt ~tid:0 ~clock:5_000)

(* ---------- chaos harness ---------- *)

let tiny_config =
  {
    Chaos.default_config with
    Chaos.threads = 4;
    ops_per_thread = 150;
    key_space = 512;
    checkpoints = 2;
    windows = 10;
  }

let test_chaos_deterministic () =
  let plan = Plan.campaign ~threads:4 ~horizon:150_000 in
  let r1 = Chaos.run_plan ~plan ~sampling:10_000 Kv.Htm_bptree tiny_config in
  let r2 = Chaos.run_plan ~plan ~sampling:10_000 Kv.Htm_bptree tiny_config in
  check_int "ops" r1.Chaos.raw_ops r2.Chaos.raw_ops;
  check_int "cycles" r1.Chaos.raw_cycles r2.Chaos.raw_cycles;
  check_int "work cycles" r1.Chaos.raw_work_cycles r2.Chaos.raw_work_cycles;
  check_bool "aggregate counters identical" true
    (r1.Chaos.raw_agg = r2.Chaos.raw_agg);
  check_bool "sample series identical" true
    (r1.Chaos.raw_samples = r2.Chaos.raw_samples);
  check_int "no violations" 0 r1.Chaos.raw_violations;
  check_int "no mismatches" 0 r1.Chaos.raw_mismatches

let test_chaos_record_schema () =
  let out =
    Chaos.run_campaign (Kv.Euno Eunomia.Config.full)
      { tiny_config with Chaos.ops_per_thread = 80 }
  in
  let json = Euno_harness.Schema.encode ~experiment:"chaos" Chaos.record out in
  (match Report.validate_record json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chaos record invalid: %s" e);
  (* and the validator really checks: drop a required field *)
  let stripped =
    match json with
    | Json.Obj fields ->
        Json.Obj (List.filter (fun (k, _) -> k <> "plan") fields)
    | j -> j
  in
  match Report.validate_record stripped with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "validator accepted a chaos record without a plan"

(* Under random fault plans, every tree still agrees with the host model
   and passes its structural validator at every checkpoint: the central
   robustness property of the campaign. *)
let qcheck_random_plans =
  let open QCheck in
  let gen_fault =
    Gen.oneof
      [
        Gen.map
          (fun e -> Plan.Spurious_burst { extra_per_million = e })
          (Gen.int_range 1_000 500_000);
        Gen.map2
          (fun rs ws -> Plan.Capacity_squeeze { rs; ws })
          (Gen.int_range 1 64) (Gen.int_range 1 16);
        Gen.return Plan.Preempt;
        Gen.map (fun s -> Plan.Lock_holder_stall { stall = s })
          (Gen.int_range 100 20_000);
        Gen.map (fun p -> Plan.Clock_skew { per_mille = p })
          (Gen.int_range 50 2_000);
        Gen.return Plan.Alloc_pressure;
      ]
  in
  let gen_injection =
    Gen.map2
      (fun (fault, target) (from_cycle, len) ->
        {
          Plan.fault;
          target =
            (match target with 0 -> Plan.All | t -> Plan.Thread (t - 1));
          window =
            Plan.window ~from_cycle ~until_cycle:(from_cycle + len);
        })
      (Gen.pair gen_fault (Gen.int_range 0 4))
      (Gen.pair (Gen.int_range 0 80_000) (Gen.int_range 1_000 60_000))
  in
  let gen_case =
    Gen.pair (Gen.list_size (Gen.int_range 1 4) gen_injection)
      (Gen.int_range 0 (List.length Kv.all_kinds - 1))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:8
       ~name:"chaos: any plan, any tree agrees with the model"
       (make gen_case)
       (fun (plan, ki) ->
         let cfg =
           {
             tiny_config with
             Chaos.ops_per_thread = 60;
             key_space = 256;
           }
         in
         let raw = Chaos.run_plan ~plan (List.nth Kv.all_kinds ki) cfg in
         raw.Chaos.raw_violations = 0 && raw.Chaos.raw_mismatches = 0))

(* ---------- the lemming storm ---------- *)

(* Directed regression for the hardened fallback: a lock-holder stall in
   the middle of the run.  Under the DBX-era policy every aborted thread
   piles straight into the fallback queue behind the stalled holder (the
   lemming effect); the polite policy keeps threads transacting once the
   holder leaves.  Both stay correct — the difference is throughput and
   fallback pressure, which is exactly what graceful degradation means. *)
let test_lemming_storm_regression () =
  let storm = Plan.lemming_storm ~from_cycle:20_000 ~until_cycle:120_000
      ~stall:30_000
  in
  let cfg policy =
    {
      tiny_config with
      Chaos.threads = 6;
      ops_per_thread = 150;
      key_space = 1024;
      policy = Some policy;
    }
  in
  let dbx =
    Chaos.run_plan ~plan:storm Kv.Htm_bptree (cfg Htm.default_policy)
  in
  let polite =
    Chaos.run_plan ~plan:storm Kv.Htm_bptree (cfg Htm.polite_policy)
  in
  (* correctness never degrades, whatever the policy *)
  check_int "dbx violations" 0 dbx.Chaos.raw_violations;
  check_int "dbx mismatches" 0 dbx.Chaos.raw_mismatches;
  check_int "polite violations" 0 polite.Chaos.raw_violations;
  check_int "polite mismatches" 0 polite.Chaos.raw_mismatches;
  let fallbacks r =
    r.Chaos.raw_agg.Machine.s_user.(Htm.Counter.fallbacks)
  in
  let subscription r =
    r.Chaos.raw_agg.Machine.s_aborts.(Abort.index
        (Abort.Conflict Abort.Subscription))
  in
  (* the dbx policy lemmings: more serializations and the subscription
     cascades they doom everyone else with *)
  check_bool "dbx falls back more" true (fallbacks dbx > 2 * fallbacks polite);
  check_bool "dbx dooms by subscription" true
    (subscription dbx > subscription polite);
  (* and the polite policy finishes the same work sooner *)
  check_bool "polite recovers faster" true
    (polite.Chaos.raw_work_cycles < dbx.Chaos.raw_work_cycles)

let suite =
  [
    Alcotest.test_case "spurious burst aborts in window" `Quick
      test_spurious_burst;
    Alcotest.test_case "capacity squeeze shrinks read set" `Quick
      test_capacity_squeeze;
    Alcotest.test_case "preemption deschedules the victim" `Quick
      test_preempt_stalls_thread;
    Alcotest.test_case "preemption at the xbegin park point is caught" `Quick
      test_preempt_at_xbegin_caught;
    Alcotest.test_case "clock skew slows the victim" `Quick
      test_clock_skew_slows_thread;
    Alcotest.test_case "alloc pressure aborts transactional allocs" `Quick
      test_alloc_pressure_txn;
    Alcotest.test_case "alloc pressure raises on plain allocs" `Quick
      test_alloc_pressure_plain_raises;
    Alcotest.test_case "crash kills all threads, txns roll back" `Quick
      test_machine_crash_kills_all_threads;
    Alcotest.test_case "plans compile windows and targets" `Quick
      test_plan_compiles_windows_and_targets;
    Alcotest.test_case "plan JSON round-trips strictly" `Quick
      test_plan_json_roundtrip;
    Alcotest.test_case "overlapping crashes: last crash wins" `Quick
      test_crash_composition_last_wins;
    Alcotest.test_case "chaos run is deterministic" `Quick
      test_chaos_deterministic;
    Alcotest.test_case "chaos record validates" `Quick test_chaos_record_schema;
    qcheck_random_plans;
    Alcotest.test_case "lemming storm: dbx collapses, polite recovers" `Quick
      test_lemming_storm_regression;
  ]
