(* Canonical seed-42 scenarios whose full trace-event stream and abort
   accounting are recorded as golden fixtures (test/golden/).  The
   determinism suite replays them and requires byte-identical output, so
   any engine change that alters scheduling, conflict detection, abort
   classification or cycle charging is caught — this is the contract the
   fast-path optimizations must preserve.

   Each scenario installs an observer that records the event stream, then
   applies [setup] to its machine before the run.  The fixtures are
   recorded with [ignore].  Installing any injector makes every Api call
   yield, so an inert one replays the scenario with a scheduler turn after
   every call; installing an explorer swaps the heap scheduler for the
   exploration loop; removing the observer runs the unobserved path every
   figure and campaign takes, which yields an empty stream and trace. *)

module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module Alloc = Euno_mem.Alloc
module Machine = Euno_sim.Machine
module Cost = Euno_sim.Cost
module Api = Euno_sim.Api
module Abort = Euno_sim.Abort
module Sev = Euno_sim.Sev
module Trace = Euno_sim.Trace
module Json = Euno_stats.Json
module Kv = Euno_harness.Kv

let seed = 42

(* One scenario = (trace JSONL lines, summary lines), both deterministic,
   plus the whole observer stream and the aggregate counters they were
   rendered from. *)
type output = {
  trace : string list;
  summary : string list;
  events : Sev.event list;
  agg : Machine.snapshot;
}

let summarize m threads =
  let agg = Machine.aggregate m in
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  add "ops=%d" agg.Machine.s_ops;
  add "commits=%d" agg.Machine.s_commits;
  Array.iteri
    (fun i n -> add "abort:%s=%d" (Abort.class_name i) n)
    agg.Machine.s_aborts;
  Array.iteri
    (fun i n -> add "conflict_kind:%d=%d" i n)
    agg.Machine.s_conflict_kinds;
  add "wasted_cycles=%d" agg.Machine.s_wasted_cycles;
  add "committed_cycles=%d" agg.Machine.s_committed_cycles;
  add "accesses=%d" agg.Machine.s_accesses;
  add "clock=%d" agg.Machine.s_clock;
  for tid = 0 to threads - 1 do
    let t = Machine.snapshot_thread m tid in
    add "thread%d: ops=%d commits=%d aborts=%d clock=%d" tid t.Machine.s_ops
      t.Machine.s_commits (Machine.total_aborts t) t.Machine.s_clock
  done;
  List.rev !lines

let observe m =
  let events = ref [] in
  Machine.set_observer m (Some (fun e -> events := e :: !events));
  events

let output m threads events =
  let events = List.rev !events in
  {
    trace =
      List.filter_map
        (fun e ->
          if Trace.traced e then Some (Json.to_string (Trace.event_to_json e))
          else None)
        events;
    summary = summarize m threads;
    events;
    agg = Machine.aggregate m;
  }

(* A contended mixed workload on one tree kind: every thread hammers a
   small key space with gets/puts/deletes/scans.  Preload happens off the
   record on a frictionless single-thread machine sharing the same world,
   exactly like Runner's load phase. *)
let tree_scenario kind ~threads ~ops ~key_space ~(setup : Machine.t -> unit) =
  let mem = Memory.create () in
  let map = Linemap.create () in
  let alloc = Alloc.create mem map in
  let kv =
    Machine.run_single ~seed:1 ~cost:Cost.unit_costs ~mem ~map ~alloc
      (fun () ->
        let kv = Kv.build kind ~fanout:8 ~map in
        for k = 0 to (key_space / 2) - 1 do
          kv.Kv.put (k * 2) (k * 2)
        done;
        kv)
  in
  let m = Machine.create ~threads ~seed ~cost:Cost.default ~mem ~map ~alloc in
  let events = observe m in
  setup m;
  Machine.run m (fun _tid ->
      for _ = 1 to ops do
        let key = Api.rand key_space in
        let op = Api.rand 100 in
        Api.op_key key;
        if op < 45 then ignore (kv.Kv.get key)
        else if op < 85 then kv.Kv.put key (op + key)
        else if op < 95 then ignore (kv.Kv.delete key)
        else ignore (kv.Kv.scan ~from:key ~count:4);
        Api.op_done ()
      done);
  output m threads events

(* Raw engine exercise without any tree: plain and transactional accesses,
   CAS/FAA, allocation with rollback, an explicit abort, and cross-thread
   conflicts on a deliberately shared line. *)
let engine_scenario ~threads ~rounds ~(setup : Machine.t -> unit) =
  let mem = Memory.create () in
  let map = Linemap.create () in
  let alloc = Alloc.create mem map in
  let shared =
    Machine.run_single ~seed:1 ~cost:Cost.unit_costs ~mem ~map ~alloc
      (fun () -> Api.alloc ~kind:Linemap.Scratch ~words:16)
  in
  let m = Machine.create ~threads ~seed ~cost:Cost.default ~mem ~map ~alloc in
  let events = observe m in
  setup m;
  Machine.run m (fun tid ->
      for round = 1 to rounds do
        Api.op_key round;
        (* plain accesses, including the shared contended line *)
        Api.write (shared + tid) (tid + round);
        ignore (Api.read shared);
        ignore (Api.cas shared ~expected:0 ~desired:tid);
        ignore (Api.faa (shared + 8) 1);
        (* a transaction touching private and shared words *)
        (try
           Api.xbegin ();
           let a = Api.alloc ~kind:Linemap.Record ~words:8 in
           Api.write a round;
           ignore (Api.read shared);
           Api.write (shared + 8 + (tid mod 8)) round;
           if round mod 7 = 0 then Api.xabort 3 else Api.xend ()
         with Euno_sim.Eff.Txn_abort _ -> ());
        Api.work 25;
        Api.op_done ()
      done);
  output m threads events

(* Fixture name -> generator.  Keep names filesystem-safe. *)
let all =
  [
    ( "engine_seed42",
      engine_scenario ~threads:4 ~rounds:40 );
    ( "htm_bptree_seed42",
      tree_scenario Kv.Htm_bptree ~threads:4 ~ops:120 ~key_space:256 );
    ( "euno_seed42",
      tree_scenario (Kv.Euno Eunomia.Config.full) ~threads:4 ~ops:120
        ~key_space:256 );
  ]

let trace_file name = name ^ ".trace.jsonl"
let summary_file name = name ^ ".summary.txt"
