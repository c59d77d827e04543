(* EunoCheck tests: exploration-policy determinism and program-order
   preservation, the campaign's mutation catching / counterexample
   shrinking / deterministic repro, the clean sweep of the unmutated
   trees, and a differential oracle of all four trees against a host
   map. *)

open Util
module Explore = Euno_sim.Explore
module Trace = Euno_sim.Trace
module Sev = Euno_sim.Sev
module Linemap = Euno_mem.Linemap
module Json = Euno_stats.Json
module Check_run = Euno_harness.Check_run
module History = Euno_harness.History
module Kv = Euno_harness.Kv
module Dist = Euno_workload.Dist
module Opgen = Euno_workload.Opgen
module IntMap = Map.Make (Int)

(* ---------- policy descriptors ---------- *)

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      let s = Explore.spec_to_string spec in
      if Explore.spec_of_string s <> spec then
        Alcotest.failf "spec does not round-trip: %s" s)
    [
      Explore.Min_clock;
      Explore.Random_walk { per_1024 = 20; span = 80 };
      Explore.Pct { depth = 3; span = 200; horizon = 3000 };
      Explore.Targeted
        { per_1024 = 700; span = 400; points = [ Explore.Lock_acquire ] };
      Explore.Targeted
        { per_1024 = 400; span = 150; points = Explore.sync_points };
      Explore.Replay [];
      Explore.Replay
        [
          { Explore.p_tid = 2; p_at = 11; p_point = Explore.Xabort; p_span = 23 };
          { Explore.p_tid = 0; p_at = 4; p_point = Explore.Step; p_span = 7 };
        ];
    ]

(* ---------- the park overlay, without a machine ---------- *)

let pre tid at span =
  { Explore.p_tid = tid; p_at = at; p_point = Explore.Step; p_span = span }

(* Drive [choose] over a script of (last, ready) turns; return the picks. *)
let picks e script =
  List.map
    (fun (last, ready) -> Explore.choose e ~last ~point:Explore.Step ready)
    script

let check_picks = Alcotest.(check (list int))

(* Thread 0's third consultation parks it for 3 picks: it sits out exactly
   three picks of thread 1, one span tick each, then is first again.  A
   [last] of -1 is no consultation, so it advances no index. *)
let test_park_span_drains () =
  let e = Explore.create (Explore.Replay [ pre 0 2 3 ]) in
  let r = [ 0; 1; 2 ] in
  check_picks "picks"
    [ 0; 0; 0; 0; 1; 1; 1; 0 ]
    (picks e
       [ (-1, r); (0, r); (-1, r); (0, r); (0, r); (1, r); (1, r); (1, r) ]);
  Alcotest.(check (list string))
    "fired" [ "0@2:step*3" ]
    (List.map Explore.preemption_to_string (Explore.fired e))

(* Both threads parked: the first of the ready list — (clock, tid) order,
   here tid 1 ahead of tid 0 — is force-released and its span cleared,
   while thread 0 keeps draining until the sixth pick. *)
let test_all_parked_releases_first () =
  let e = Explore.create (Explore.Replay [ pre 0 0 5; pre 1 0 5 ]) in
  check_picks "picks" [ 1; 1; 1; 1; 1; 0 ]
    (picks e
       [ (0, [ 0; 1 ]); (1, [ 1; 0 ]); (-1, [ 0; 1 ]); (1, [ 0; 1 ]);
         (1, [ 1; 0 ]); (1, [ 0; 1 ]) ]);
  check_int "both fired" 2 (List.length (Explore.fired e))

(* Replay fires at exactly its (tid, consultation index): thread 1's
   index 1, not thread 0's index 1 nor thread 1's index 0 or 2. *)
let test_replay_fires_exactly () =
  let e = Explore.create (Explore.Replay [ pre 1 1 2 ]) in
  let a = [ 0; 1 ] and b = [ 1; 0 ] in
  check_picks "picks" [ 0; 0; 1; 0; 0; 1; 1 ]
    (picks e [ (0, a); (0, a); (1, b); (1, b); (0, b); (0, b); (1, b) ]);
  Alcotest.(check (list string))
    "fired" [ "1@1:step*2" ]
    (List.map Explore.preemption_to_string (Explore.fired e))

(* Min_clock never parks: every pick is the head of the ready list. *)
let test_min_clock_head () =
  let e = Explore.create Explore.Min_clock in
  List.iter
    (fun (last, ready) ->
      check_int "head" (List.hd ready)
        (Explore.choose e ~last ~point:Explore.Xbegin ready))
    [ (-1, [ 3; 0; 2 ]); (3, [ 0; 2; 3 ]); (0, [ 2; 0 ]); (2, [ 1 ]);
      (1, [ 5; 4; 1 ]) ];
  check_bool "nothing fired" true (Explore.fired e = [])

(* The machine refuses a choice outside the runnable set. *)
let test_bad_choice_refused () =
  let w = fresh_world () in
  let m =
    Machine.create ~threads:2 ~seed:1 ~cost:Cost.unit_costs ~mem:w.mem
      ~map:w.map ~alloc:w.alloc
  in
  Machine.set_explorer m (Some (fun ~last:_ ~point:_ _ -> 2));
  match Machine.run m (fun _ -> Api.work 1) with
  | () -> Alcotest.fail "tid 2 of 2 threads was run"
  | exception Invalid_argument _ -> ()

(* ---------- exploration semantics on the machine ---------- *)

(* A contended tree workload with the full trace captured as JSON lines
   (clocks included), for byte-identical comparisons. *)
let traced_tree_run ?policy ~threads ~seed () =
  let w = fresh_world () in
  let kv =
    run_one w (fun () ->
        let kv = Kv.build Kv.Htm_bptree ~fanout:8 ~map:w.map in
        for k = 0 to 15 do
          kv.Kv.put (k * 2) k
        done;
        kv)
  in
  let m =
    Machine.create ~threads ~seed ~cost:Cost.default ~mem:w.mem ~map:w.map
      ~alloc:w.alloc
  in
  (match policy with
  | None -> ()
  | Some spec ->
      Machine.set_explorer m (Some (Explore.choose (Explore.create ~seed spec))));
  let trace = ref [] in
  Machine.set_observer m
    (Some
       (fun e ->
         if Trace.traced e then
           trace := Json.to_string (Trace.event_to_json e) :: !trace));
  Machine.run m (fun _tid ->
      for _ = 1 to 20 do
        let k = Api.rand 32 in
        let c = Api.rand 100 in
        Api.op_key k;
        if c < 50 then ignore (kv.Kv.get k)
        else if c < 90 then kv.Kv.put k (c + k)
        else ignore (kv.Kv.delete k);
        Api.op_done ()
      done);
  List.rev !trace

(* Installing the Min_clock policy must be observationally identical to
   running with no explorer at all: the choice path's pick order, clock
   handling and sampling all have to agree with the default path.  This
   is the guard that keeps golden traces byte-identical.  The choice path
   orders the runnable threads by a scan and sort of its own, never
   through [Sched], so it is also an independent reference for the run
   queue's pick order, stale entries included; at 16 threads the heap is
   deep enough for multi-level sifts in [Sched.exchange]. *)
let test_min_clock_parity threads () =
  let a = traced_tree_run ~threads ~seed:42 () in
  let b = traced_tree_run ~policy:Explore.Min_clock ~threads ~seed:42 () in
  check_int "min-clock parity: line count" (List.length a) (List.length b);
  List.iteri
    (fun i (x, y) ->
      if x <> y then
        Alcotest.failf "min-clock parity: divergence at event %d:\n  %s\n  %s"
          (i + 1) x y)
    (List.combine a b)

(* Conflict-free workload on per-thread scratch lines: with no shared
   state, a thread's own event sequence cannot legitimately depend on the
   schedule, so it must survive any exploration policy unchanged. *)
let disjoint_trace ?explorer ~seed () =
  let w = fresh_world () in
  let base =
    run_one w (fun () -> Api.alloc ~kind:Linemap.Scratch ~words:64)
  in
  let m =
    Machine.create ~threads:4 ~seed ~cost:Cost.default ~mem:w.mem ~map:w.map
      ~alloc:w.alloc
  in
  (match explorer with
  | None -> ()
  | Some e -> Machine.set_explorer m (Some (Explore.choose e)));
  let trace = ref [] in
  Machine.set_observer m
    (Some (fun e -> if Trace.traced e then trace := e :: !trace));
  Machine.run m (fun tid ->
      let mine = base + (tid * 16) in
      for round = 1 to 10 do
        Api.op_key round;
        Api.write mine round;
        ignore (Api.read mine);
        (try
           Api.xbegin ();
           Api.write (mine + 2) round;
           ignore (Api.read (mine + 3));
           Api.xend ()
         with Euno_sim.Eff.Txn_abort _ -> ());
        Api.work (5 + tid);
        Api.op_done ()
      done);
  List.rev !trace

(* Clock-insensitive per-event tag: exploration legitimately shifts
   clocks (a parked thread is bumped forward on resume), but never what a
   thread does. *)
let tag ({ tid; body; _ } : Sev.event) =
  match body with
  | Sev.Txn_begin -> (tid, "xbegin")
  | Txn_commit { reads; writes } ->
      (tid, Printf.sprintf "commit:%d:%d" reads writes)
  | Txn_aborted _ -> (tid, "abort")
  | Conflict { victim; line; _ } ->
      (tid, Printf.sprintf "conflict:%d:%d" victim line)
  | Op_exit key -> (tid, Printf.sprintf "op:%d" key)
  | Injected fault -> (tid, "inj:" ^ fault)
  | _ -> invalid_arg "tag: untraced event"

let project tid evs =
  List.filter_map
    (fun e ->
      let t, s = tag e in
      if t = tid then Some s else None)
    evs

let test_program_order_preserved () =
  let seed = 11 in
  let base = disjoint_trace ~seed () in
  let e =
    Explore.create ~seed (Explore.Random_walk { per_1024 = 300; span = 40 })
  in
  let explored = disjoint_trace ~explorer:e ~seed () in
  check_bool "the walk actually preempted" true (Explore.fired e <> []);
  for tid = 0 to 3 do
    let b = project tid base and x = project tid explored in
    if b <> x then
      Alcotest.failf
        "tid %d: program order changed under exploration:\n  base:     %s\n  explored: %s"
        tid (String.concat " " b) (String.concat " " x)
  done

(* Same (policy, seed) pair twice -> bit-identical Sev event stream: the
   exploration schedule is a pure function of its inputs, with no host
   entropy.  The Sev stream sees every access and sync event, so equality
   here pins the whole interleaving. *)
let sev_stream spec ~seed =
  let w = fresh_world () in
  let kv = run_one w (fun () -> Kv.build Kv.Htm_bptree ~fanout:8 ~map:w.map) in
  let m =
    Machine.create ~threads:4 ~seed ~cost:Cost.default ~mem:w.mem ~map:w.map
      ~alloc:w.alloc
  in
  Machine.set_explorer m (Some (Explore.choose (Explore.create ~seed spec)));
  let evs = ref [] in
  Sev.set_armed true;
  Fun.protect ~finally:(fun () -> Sev.set_armed false) @@ fun () ->
  Machine.set_observer m (Some (fun e -> evs := e :: !evs));
  Machine.run m (fun tid ->
      for i = 1 to 8 do
        let k = (tid + i) mod 12 in
        if i mod 3 = 0 then ignore (kv.Kv.get k)
        else kv.Kv.put k ((tid * 100) + i);
        Api.op_done ()
      done);
  List.rev !evs

let test_policies_deterministic () =
  List.iter
    (fun spec ->
      let a = sev_stream spec ~seed:7 in
      let b = sev_stream spec ~seed:7 in
      check_int
        (Explore.spec_to_string spec ^ ": event count")
        (List.length a) (List.length b);
      if a <> b then
        Alcotest.failf "%s: Sev streams differ between identical runs"
          (Explore.spec_to_string spec))
    [
      Explore.Random_walk { per_1024 = 60; span = 30 };
      Explore.Pct { depth = 3; span = 200; horizon = 3000 };
      Explore.Targeted
        { per_1024 = 700; span = 400; points = [ Explore.Lock_acquire ] };
      Explore.Targeted
        { per_1024 = 400; span = 150; points = Explore.sync_points };
    ]

(* ---------- the campaign ---------- *)

(* Every registered Testonly mutation must be caught as a non-linearizable
   history within the 64-run budget, its counterexample must shrink to at
   most 3 forced preemptions, and the emitted repro descriptor must replay
   the violation deterministically (same core twice). *)
let test_mutations_caught () =
  let outs = Check_run.hunt_mutations ~budget:64 ~seed:42 () in
  check_int "all registered mutations hunted" 4 (List.length outs);
  List.iter
    (fun o ->
      let c = o.Check_run.o_config in
      match o.Check_run.o_violation with
      | None ->
          Alcotest.failf "mutation %s survived %d runs undetected"
            c.Check_run.mutation o.Check_run.o_runs
      | Some v ->
          let n = List.length v.Check_run.v_minimized in
          if n > 3 then
            Alcotest.failf
              "mutation %s: counterexample needs %d preemptions (want <= 3)"
              c.Check_run.mutation n;
          let config, policy = Check_run.repro_of_string v.Check_run.v_repro in
          let x1 = Check_run.execute config ~policy in
          let x2 = Check_run.execute config ~policy in
          (match (x1.Check_run.x_verdict, x2.Check_run.x_verdict) with
          | History.Illegal c1, History.Illegal c2 ->
              if c1 <> c2 then
                Alcotest.failf "mutation %s: repro replays non-deterministically"
                  c.Check_run.mutation;
              if c1 <> v.Check_run.v_core then
                Alcotest.failf
                  "mutation %s: repro core differs from the reported core"
                  c.Check_run.mutation
          | _ ->
              Alcotest.failf "mutation %s: repro did not reproduce"
                c.Check_run.mutation))
    outs

(* With the mutations off, the full sweep must come back clean: any
   violation would be a real bug in a tree or in the checker itself. *)
let test_unmutated_sweep_clean () =
  let outs = Check_run.sweep ~seed:42 () in
  List.iter
    (fun o ->
      match o.Check_run.o_violation with
      | None -> ()
      | Some v ->
          Alcotest.failf
            "clean sweep violation on %s (%s/%s, %s):\n%s\nrepro: %s"
            (Kv.kind_name o.Check_run.o_config.Check_run.tree)
            o.Check_run.o_config.Check_run.mix
            o.Check_run.o_config.Check_run.dist
            (Euno_htm.Htm.strategy_name
               o.Check_run.o_config.Check_run.strategy)
            (History.to_string v.Check_run.v_core)
            v.Check_run.v_repro)
    outs

(* Repro descriptors round-trip through their string form. *)
let test_repro_roundtrip () =
  let config = Check_run.base_config Kv.Masstree in
  let policy = Explore.Pct { depth = 4; span = 120; horizon = 2500 } in
  let s = Check_run.repro_to_string config policy in
  let config', policy' = Check_run.repro_of_string s in
  check_bool "repro round-trips" true (config = config' && policy = policy')

(* ---------- golden explored runs ---------- *)

(* Explored schedules pinned end to end: the JSON documents of a seed-42
   elision sweep and of the mutation campaign must equal the committed
   ones byte for byte.  The mutation document carries each hunt's fired
   preemption count and minimized repro string, so a change to parking,
   consultation order or force-release shows there first. *)
let golden_check_json args file () =
  let out = Filename.temp_file "euno_check" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let exe = Filename.concat ".." (Filename.concat "bin" "euno_repro.exe") in
  let cmd =
    Printf.sprintf "%s %s --json %s > /dev/null" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  check_int "exit status" 0 (Sys.command cmd);
  let lines f =
    String.split_on_char '\n' (In_channel.with_open_bin f In_channel.input_all)
  in
  Alcotest.(check (list string))
    (String.concat " " args ^ " = golden/" ^ file)
    (lines (Filename.concat "golden" file))
    (lines out)

(* ---------- differential oracle ---------- *)

(* Single-threaded on the machine, every tree must agree with a host map
   over random streams drawing all five operation kinds.  This is the
   sequential ground truth the linearizability checker's model is held
   to. *)
let differential_oracle kind =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20
       ~name:
         (Printf.sprintf "%s agrees with host map (oracle)"
            (Kv.kind_name kind))
       QCheck.(int_bound 100_000)
       (fun seed ->
         let w = fresh_world () in
         let preload = List.init 8 (fun i -> (i * 3, 9_000 + i)) in
         let kv =
           run_one w (fun () ->
               Kv.build ~records:preload kind ~fanout:8 ~map:w.map)
         in
         let model = ref (IntMap.of_seq (List.to_seq preload)) in
         let expect_scan from count =
           let rec take n seq =
             if n = 0 then []
             else
               match seq () with
               | Seq.Nil -> []
               | Seq.Cons (b, rest) -> b :: take (n - 1) rest
           in
           take count (IntMap.to_seq_from from !model)
         in
         let ok = ref true in
         run_one ~seed:(seed + 3) w (fun () ->
             let dist = Dist.create Dist.Uniform ~n:24 ~seed:(seed + 1) in
             let gen =
               Opgen.create ~scan_len:5 ~dist
                 ~mix:{ Opgen.get = 30; put = 30; scan = 15; delete = 15; rmw = 10 }
                 ~seed:(seed + 2) ()
             in
             for _ = 1 to 60 do
               match Opgen.next gen with
               | Opgen.Get k ->
                   if kv.Kv.get k <> IntMap.find_opt k !model then ok := false
               | Opgen.Put (k, v) ->
                   kv.Kv.put k v;
                   model := IntMap.add k v !model
               | Opgen.Delete k ->
                   if kv.Kv.delete k <> IntMap.mem k !model then ok := false;
                   model := IntMap.remove k !model
               | Opgen.Rmw (k, v) ->
                   if kv.Kv.get k <> IntMap.find_opt k !model then ok := false;
                   kv.Kv.put k v;
                   model := IntMap.add k v !model
               | Opgen.Scan (k, len) ->
                   if kv.Kv.scan ~from:k ~count:len <> expect_scan k len then
                     ok := false
             done);
         !ok))

let suite =
  [
    Alcotest.test_case "spec descriptors round-trip" `Quick test_spec_roundtrip;
    Alcotest.test_case "a park span drains one per pick of another thread"
      `Quick test_park_span_drains;
    Alcotest.test_case "all parked: the first in (clock, tid) order runs"
      `Quick test_all_parked_releases_first;
    Alcotest.test_case "replay fires at exactly (tid, index)" `Quick
      test_replay_fires_exactly;
    Alcotest.test_case "min-clock picks the head of the ready list" `Quick
      test_min_clock_head;
    Alcotest.test_case "a non-runnable choice is refused" `Quick
      test_bad_choice_refused;
    Alcotest.test_case "min-clock policy is trace-identical to no explorer"
      `Quick (test_min_clock_parity 4);
    Alcotest.test_case "min-clock policy is trace-identical at 16 threads"
      `Quick (test_min_clock_parity 16);
    Alcotest.test_case "exploration preserves program order" `Quick
      test_program_order_preserved;
    Alcotest.test_case "same (policy, seed) replays the same Sev stream"
      `Quick test_policies_deterministic;
    Alcotest.test_case "repro descriptors round-trip" `Quick
      test_repro_roundtrip;
    Alcotest.test_case "check --quick --seed 42 JSON equals its golden" `Quick
      (golden_check_json
         [ "check"; "--quick"; "--seed"; "42"; "--strategy"; "elision" ]
         "check_seed42_elision.json");
    Alcotest.test_case "check --mutations JSON equals its golden" `Quick
      (golden_check_json [ "check"; "--mutations" ] "check_mutations.json");
    Alcotest.test_case "mutations caught, shrunk, and replayed" `Slow
      test_mutations_caught;
    Alcotest.test_case "unmutated trees sweep clean" `Slow
      test_unmutated_sweep_clean;
  ]
  @ List.map differential_oracle Kv.all_kinds
