(* EunoDura driver: crash-recovery campaigns over the tree variants.

   One cell = two phases on one simulated world.

   Phase A (the doomed run) mirrors the Chaos workload — partitioned
   single-writer-per-key random ops with a host-side committed shadow as
   oracle — and adds the durability pipeline: a driver-owned epoch whose
   quiescent advances trigger snapshot capture (Dura), and a committed-op
   log (Oplog) appended at each acknowledgement with group-flush
   batching.  A Crash injection in the plan arms [Machine.set_crash]; the
   power failure kills every thread at once, abandoning held locks and
   in-flight work in simulated memory.

   Phase B (recovery) runs a fresh single-thread machine over the same
   world: sweep abandoned Lock lines, restore the latest snapshot
   (rebuild from the image, or reconcile the surviving tree in place),
   replay the durable log suffix past the snapshot, re-run the lost
   (unflushed) suffix — the ops the workload generator re-issues — then
   validate the tree and hand the final image to the recovery checker.

   Snapshot consistency: a snapshot may only be captured at *sustained*
   quiescence — the checkpoint rendezvous, where every other thread is
   parked at a barrier for the whole scan.  A momentary pinned <= 1 at an
   opportunistic advance is NOT enough: an op starting mid-scan could be
   captured before its acknowledgement is logged, and a crash in that gap
   turns the captured effect into a phantom.  The
   [Dura.Testonly.snapshot_while_pinned] mutant seeds exactly that bug.

   Ack latency: a mutation becomes visible in the tree strictly before
   the client acknowledgement (shadow update + log append), separated by
   [ack_delay] simulated cycles of commit-to-ack latency.  A crash inside
   that window loses an unacknowledged op whose effect is already in tree
   state — which is why recovery restores from a snapshot instead of
   trusting the surviving tree. *)

module Plan = Euno_fault.Plan
module Machine = Euno_sim.Machine
module Cost = Euno_sim.Cost
module Api = Euno_sim.Api
module Rng = Euno_sim.Rng
module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module Alloc = Euno_mem.Alloc
module Epoch = Euno_mem.Epoch
module Barrier = Euno_sync.Barrier
module Htm = Euno_htm.Htm
module Oplog = Euno_dura.Oplog
module Dura = Euno_dura.Dura
module Checker = Euno_dura.Checker

type restore_mode = Rebuild | In_place

let restore_mode_name = function
  | Rebuild -> "rebuild"
  | In_place -> "in-place"

type config = {
  threads : int;
  ops_per_thread : int;
  seed : int;
  key_space : int;
  fanout : int;
  cost : Cost.t;
  policy : Htm.policy option; (* None: each tree's own default *)
  checkpoints : int; (* quiescent rendezvous = snapshot opportunities *)
  advance_every : int; (* driver epoch's opportunistic-advance period *)
  snapshot_min_cycles : int; (* cadence: min cycles between snapshots *)
  group_size : int; (* log entries per group flush *)
  fsync_horizon : int; (* max cycles an acked entry may stay volatile *)
  ack_delay : int; (* commit-to-acknowledgement latency, cycles *)
  crash_frac : float; (* crash point as a fraction of the horizon *)
  restore_mode : restore_mode;
}

let default_config =
  {
    threads = 8;
    ops_per_thread = 1200;
    seed = 42;
    key_space = 1 lsl 12;
    fanout = 16;
    cost = Cost.default;
    policy = Some Htm.polite_policy;
    checkpoints = 4;
    advance_every = 64;
    snapshot_min_cycles = 5_000;
    group_size = 16;
    fsync_horizon = 50_000;
    ack_delay = 40;
    crash_frac = 0.6;
    restore_mode = Rebuild;
  }

let quick_config =
  {
    default_config with
    threads = 6;
    ops_per_thread = 400;
    key_space = 1 lsl 10;
    checkpoints = 3;
    group_size = 8;
    fsync_horizon = 20_000;
  }

(* Per-operation client-side cost, as in Chaos. *)
let client_work = 25

(* Simulated durability costs, charged through [Api.work] so the tax is
   visible in cycle accounting. *)
let append_cost = 4
let flush_cost_base = 120
let flush_cost_per_entry = 3
let snap_cost_base = 400
let snap_cost_per_entry = 2

(* Linear recovery-work allowance: a base grant plus a per-record term
   for restore/validate/final-scan and a per-replayed-op term, plus the
   lock sweep.  Anything past this is an [Unbounded_recovery] finding —
   recovery must scale with state size and lost work, never with
   pre-crash history. *)
let rb_base = 60_000
let rb_per_record = 900
let rb_per_line = 120

let work_bound ~image ~replayed ~rerun ~swept =
  rb_base + (rb_per_record * (image + replayed + rerun)) + (rb_per_line * swept)

type cell = {
  d_name : string;
  d_threads : int;
  d_seed : int;
  d_horizon : int; (* fault-free calibrated run length, cycles *)
  d_plan : Plan.t;
  d_crashed : bool;
  d_crash_cycle : int; (* = run end when no crash fired *)
  d_restore : restore_mode;
  d_ops : int;
  d_failed_ops : int;
  d_snapshots_taken : int;
  d_snapshot_lsn : int; (* lsn of the snapshot recovery restored *)
  d_log_len : int; (* acked mutations at the crash *)
  d_flushed_lsn : int;
  d_lost : int; (* unflushed suffix lost to the crash *)
  d_replayed : int; (* durable entries reapplied past the snapshot *)
  d_rerun : int; (* lost entries re-issued by the generator *)
  d_swept_locks : int; (* Lock lines zeroed on restart *)
  d_stuck_ops : int; (* recovery ops wedged or validator failures *)
  d_recovery_cycles : int;
  d_work_bound : int;
  d_findings : Checker.finding list;
}

let run_cell ?(plan = []) ?horizon kind cfg =
  if cfg.threads < 1 then invalid_arg "Dura_run.run_cell: threads < 1";
  if cfg.key_space < cfg.threads then
    invalid_arg "Dura_run.run_cell: key_space < threads";
  let mem = Memory.create () in
  let map = Linemap.create () in
  let alloc = Alloc.create mem map in
  (* Preload every even key, as in Chaos. *)
  let records =
    List.filter_map
      (fun k -> if k land 1 = 0 then Some (k, k) else None)
      (List.init cfg.key_space (fun k -> k))
  in
  let kv, bar =
    Machine.run_single ~seed:cfg.seed ~cost:Cost.unit_costs ~mem ~map ~alloc
      (fun () ->
        let kv =
          Kv.build ?policy:cfg.policy ~records kind ~fanout:cfg.fanout ~map
        in
        (kv, Barrier.create ~parties:cfg.threads))
  in
  (* Committed shadow: the acked prefix the recovered tree must equal.
     [acked] additionally remembers every (key, value) binding any ack
     (or the preload) ever established, for phantom classification. *)
  let shadow : (int, int) Hashtbl.t = Hashtbl.create (cfg.key_space * 2) in
  let acked : (int * int, unit) Hashtbl.t =
    Hashtbl.create (cfg.key_space * 2)
  in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace shadow k v;
      Hashtbl.replace acked (k, v) ())
    records;
  let epoch =
    Epoch.create ~slots:cfg.threads ~advance_every:cfg.advance_every ()
  in
  let log =
    Oplog.create ~group_size:cfg.group_size ~fsync_horizon:cfg.fsync_horizon ()
  in
  let store =
    Dura.store_create
      ~initial:
        {
          Dura.snap_epoch = Epoch.global_epoch epoch;
          snap_lsn = 0;
          snap_clock = 0;
          snap_image = Array.of_list records;
        }
  in
  let m =
    Machine.create ~threads:cfg.threads ~seed:cfg.seed ~cost:cfg.cost ~mem ~map
      ~alloc
  in
  if plan <> [] then Machine.set_injector m (Plan.to_injector plan);
  (match Plan.crash_point plan with
  | Some c -> Machine.set_crash m ~at_cycle:c
  | None -> ());
  let failed = ref 0 in
  let in_quiesce = ref false in
  let last_snap = ref 0 in
  Epoch.set_advance_hook epoch
    (Some
       (fun ~epoch:e ~pinned ->
         (* Sustained quiescence (checkpoint) only — see the header note.
            The mutant ref bypasses the gate to seed torn snapshots. *)
         let safe = pinned <= 1 && !in_quiesce in
         if
           (safe || Euno_sim.Domain_ref.get Dura.Testonly.snapshot_while_pinned)
           && Api.clock () - !last_snap >= cfg.snapshot_min_cycles
         then
           (* lsn before the scan: an op acked mid-scan (possible only on
              the torn path) then replays on recovery instead of silently
              aging the image *)
           let lsn = Oplog.length log in
           match kv.Kv.snapshot () with
           | image ->
               Api.work
                 (snap_cost_base + (snap_cost_per_entry * List.length image));
               last_snap := Api.clock ();
               Dura.record store
                 {
                   Dura.snap_epoch = e;
                   snap_lsn = lsn;
                   snap_clock = !last_snap;
                   snap_image = Array.of_list image;
                 }
           | exception (Htm.Stuck_fallback _ | Alloc.Alloc_failure) ->
               (* capture failed; keep the previous snapshot *)
               incr failed));
  let checkpoint () =
    Barrier.wait bar;
    if Api.tid () = 0 then begin
      in_quiesce := true;
      Epoch.pin epoch 0;
      Epoch.advance epoch;
      Epoch.unpin epoch 0;
      in_quiesce := false
    end;
    Barrier.wait bar
  in
  let cp_every = max 1 (cfg.ops_per_thread / max 1 cfg.checkpoints) in
  let crashed_at = ref None in
  (try
     Machine.run m (fun tid ->
         let rng = Rng.create ((cfg.seed * 104729) + (tid * 7919) + 13) in
         let ranks = cfg.key_space / cfg.threads in
         let key_of rank = (rank * cfg.threads) + tid in
         (* Acknowledge one committed mutation: append to the log (with
            group-flush accounting) and update the shadow.  The fallback
            mutant drops the append — the client still gets its ack, so
            the orphan survives only in volatile tree state. *)
         let ack ~fb_before op =
           let fb_now =
             (Machine.snapshot_thread m tid).Machine.s_user.(Htm.Counter
                                                            .fallbacks)
           in
           let skip = Euno_sim.Domain_ref.get Dura.Testonly.skip_fallback_log && fb_now > fb_before in
           if not skip then begin
             Api.work append_cost;
             match Oplog.append log ~tid ~clock:(Api.clock ()) op with
             | `Buffered -> ()
             | `Flushed n ->
                 Api.work (flush_cost_base + (flush_cost_per_entry * n))
           end;
           match op with
           | Oplog.Put { key; value } ->
               Hashtbl.replace shadow key value;
               Hashtbl.replace acked (key, value) ()
           | Oplog.Delete { key } -> Hashtbl.remove shadow key
         in
         for i = 1 to cfg.ops_per_thread do
           Api.work client_work;
           let key = key_of (Rng.int rng ranks) in
           let r = Rng.int rng 100 in
           Epoch.pin epoch tid;
           let fb_before =
             (Machine.snapshot_thread m tid).Machine.s_user.(Htm.Counter
                                                            .fallbacks)
           in
           (try
              if r < 40 then ignore (kv.Kv.get key)
              else if r < 75 then begin
                let v = (i * cfg.threads) + tid in
                kv.Kv.put key v;
                Api.work cfg.ack_delay;
                ack ~fb_before (Oplog.Put { key; value = v })
              end
              else if r < 90 then begin
                ignore (kv.Kv.delete key);
                Api.work cfg.ack_delay;
                ack ~fb_before (Oplog.Delete { key })
              end
              else begin
                (* read-modify-write through the tree *)
                let v = Option.value ~default:0 (kv.Kv.get key) + 1 in
                kv.Kv.put key v;
                Api.work cfg.ack_delay;
                ack ~fb_before (Oplog.Put { key; value = v })
              end
            with Htm.Stuck_fallback _ | Alloc.Alloc_failure ->
              (* graceful failure: no ack, structure untouched *)
              incr failed);
           Epoch.unpin epoch tid;
           Api.op_done ();
           if i mod cp_every = 0 && i < cfg.ops_per_thread then checkpoint ()
         done;
         checkpoint ())
   with Machine.Crashed { at_cycle } -> crashed_at := Some at_cycle);
  Epoch.set_advance_hook epoch None;
  let crashed, crash_cycle =
    match !crashed_at with
    | Some c -> (true, c)
    | None -> (false, Machine.elapsed m)
  in
  (* A graceful shutdown fsyncs its tail; a power failure loses it. *)
  if not crashed then ignore (Oplog.flush log);
  let log_len = Oplog.length log in
  let flushed_lsn = Oplog.flushed_lsn log in
  let lost = Oplog.crash log in
  let snap = Dura.latest store in
  (* ---------- phase B: restart and recover ---------- *)
  Epoch.crash_reset epoch;
  let swept = ref 0 in
  let stuck = ref 0 in
  let replayed = ref 0 in
  let rerun = ref 0 in
  let recovered = ref [] in
  let rm =
    Machine.create ~threads:1 ~seed:(cfg.seed + 1) ~cost:cfg.cost ~mem ~map
      ~alloc
  in
  Machine.run rm (fun _tid ->
      (* 1. Sweep abandoned locks: the dead process's held advisory and
         fallback locks (and CCM reservations — same line kind) would
         wedge every recovery operation.  The mutant skips this. *)
      if not (Euno_sim.Domain_ref.get Dura.Testonly.skip_lock_reset) then
        Linemap.iter_lines map (fun line kind ->
            if kind = Linemap.Lock then begin
              incr swept;
              let base = Memory.addr_of_line line in
              for w = 0 to Memory.line_words - 1 do
                Api.untracked_write (base + w) 0
              done
            end);
      (* 2. Restore the latest snapshot. *)
      let rebuild () =
        Kv.build ?policy:cfg.policy
          ~records:(Array.to_list snap.Dura.snap_image)
          kind ~fanout:cfg.fanout ~map
      in
      let rkv =
        match cfg.restore_mode with
        | Rebuild -> rebuild ()
        | In_place -> (
            try
              kv.Kv.restore (Array.to_list snap.Dura.snap_image);
              kv
            with Htm.Stuck_fallback _ | Alloc.Alloc_failure ->
              (* in-place recovery wedged; salvage via rebuild so the
                 cell still yields a comparable end state — the checker
                 flags the wedge regardless *)
              incr stuck;
              rebuild ())
      in
      (* 3. Replay the durable suffix past the snapshot, then re-run the
         lost suffix in acknowledgement (= lsn) order. *)
      let apply (e : Oplog.entry) counter =
        if e.Oplog.lsn > snap.Dura.snap_lsn then
          try
            (match e.Oplog.op with
            | Oplog.Put { key; value } -> rkv.Kv.put key value
            | Oplog.Delete { key } -> ignore (rkv.Kv.delete key));
            incr counter
          with Htm.Stuck_fallback _ | Alloc.Alloc_failure -> incr stuck
      in
      List.iter (fun e -> apply e replayed) (Oplog.entries log);
      List.iter (fun e -> apply e rerun) lost;
      (* 4. Validate and capture the recovered image.  Any validator
         failure means recovery left the tree unusable. *)
      (try rkv.Kv.check () with _ -> incr stuck);
      match rkv.Kv.snapshot () with
      | image -> recovered := image
      | exception (Htm.Stuck_fallback _ | Alloc.Alloc_failure) -> incr stuck);
  let recovery_cycles = Machine.elapsed rm in
  let bound =
    work_bound
      ~image:(Array.length snap.Dura.snap_image)
      ~replayed:!replayed ~rerun:!rerun ~swept:!swept
  in
  let findings =
    Checker.check ~expected:shadow ~recovered:!recovered
      ~ever_acked:(fun k v -> Hashtbl.mem acked (k, v))
      ~stats:
        {
          Checker.stuck_ops = !stuck;
          recovery_cycles;
          work_bound = bound;
        }
  in
  {
    d_name = kv.Kv.name;
    d_threads = cfg.threads;
    d_seed = cfg.seed;
    d_horizon = (match horizon with Some h -> h | None -> crash_cycle);
    d_plan = plan;
    d_crashed = crashed;
    d_crash_cycle = crash_cycle;
    d_restore = cfg.restore_mode;
    d_ops = (Machine.aggregate m).Machine.s_ops;
    d_failed_ops = !failed;
    d_snapshots_taken = Dura.taken store;
    d_snapshot_lsn = snap.Dura.snap_lsn;
    d_log_len = log_len;
    d_flushed_lsn = flushed_lsn;
    d_lost = List.length lost;
    d_replayed = !replayed;
    d_rerun = !rerun;
    d_swept_locks = !swept;
    d_stuck_ops = !stuck;
    d_recovery_cycles = recovery_cycles;
    d_work_bound = bound;
    d_findings = findings;
  }

(* ---------- the campaign ---------- *)

let run_campaign kind cfg =
  (* Calibrate the fault-free horizon on an identical world, then crash
     at [crash_frac] of it. *)
  let calib = run_cell kind cfg in
  let horizon = calib.d_crash_cycle in
  let crash = int_of_float (cfg.crash_frac *. float_of_int horizon) in
  let plan = [ Plan.crash_at ~cycle:crash ] in
  run_cell ~plan ~horizon kind cfg

(* One pool cell per tree, calibration included — see Chaos.run_all. *)
let run_all ?domains cfg =
  Pool.map ?domains (fun kind -> run_campaign kind cfg) Kv.all_kinds

(* ---------- mutation validation ---------- *)

type mutant = Skip_fallback_log | Skip_lock_reset | Snapshot_while_pinned

let all_mutants = [ Skip_fallback_log; Skip_lock_reset; Snapshot_while_pinned ]

let mutant_name = function
  | Skip_fallback_log -> "skip-fallback-log"
  | Skip_lock_reset -> "skip-lock-reset"
  | Snapshot_while_pinned -> "snapshot-while-pinned"

let expected_kind = function
  | Skip_fallback_log -> Checker.Lost_ack
  | Skip_lock_reset -> Checker.Ineffective_recovery
  | Snapshot_while_pinned -> Checker.Phantom

let arm_mutant = function
  | Skip_fallback_log -> Euno_sim.Domain_ref.set Dura.Testonly.skip_fallback_log true
  | Skip_lock_reset -> Euno_sim.Domain_ref.set Dura.Testonly.skip_lock_reset true
  | Snapshot_while_pinned -> Euno_sim.Domain_ref.set Dura.Testonly.snapshot_while_pinned true

(* Directed cell per mutant: a config and plan shaped so the seeded bug
   has real opportunities to corrupt recovery.  All three run the
   conventional HTM-B+Tree under its default (DBX) policy — the variant
   with the busiest global fallback lock. *)
let mutant_setup mutant ~seed =
  let base =
    {
      quick_config with
      threads = 6;
      ops_per_thread = 300;
      key_space = 512;
      checkpoints = 2;
      seed;
      policy = None;
      snapshot_min_cycles = max_int;
    }
  in
  match mutant with
  | Skip_fallback_log ->
      (* A lock-holder stall mid-run herds ops onto the fallback path, so
         plenty of fallback commits go unlogged; crash after the storm,
         recover by rebuild + full replay — the orphans are simply
         missing. *)
      let plan h =
        Plan.lemming_storm
          ~from_cycle:(3 * h / 10)
          ~until_cycle:(h / 2)
          ~stall:2_000
        @ [ Plan.crash_at ~cycle:(11 * h / 20) ]
      in
      (base, plan)
  | Skip_lock_reset ->
      (* Crash inside a long stall window: the stalled holder dies
         sitting on the fallback lock (the stall is charged before its
         body writes, so the tree underneath is intact).  In-place
         recovery must sweep that lock or wedge. *)
      let base = { base with restore_mode = In_place } in
      let plan h =
        Plan.lemming_storm
          ~from_cycle:(2 * h / 5)
          ~until_cycle:(7 * h / 10)
          ~stall:(3 * h / 10)
        @ [ Plan.crash_at ~cycle:(h / 2) ]
      in
      (base, plan)
  | Snapshot_while_pinned ->
      (* Opportunistic advances on every pin + no cadence floor: with the
         quiescence gate ignored, snapshots scan while peers sit in their
         commit-to-ack window ([ack_delay] wide), capturing effects whose
         acks the crash then discards — phantoms. *)
      let base =
        {
          base with
          advance_every = 1;
          snapshot_min_cycles = 400;
          ack_delay = 250;
        }
      in
      let plan h = [ Plan.crash_at ~cycle:(3 * h / 5) ] in
      (base, plan)

type mutant_outcome = {
  m_mutant : mutant;
  m_caught_seed : int option; (* first seed the checker flagged it at *)
  m_seeds_tried : int;
  m_caught : bool; (* flagged with the expected finding kind *)
  m_clean_on_fixed : bool; (* same cell, mutant off: no findings *)
}

(* Seed-search validation: a crash must actually land where the seeded
   bug bites (a stall window, an ack gap), so each mutant gets up to
   [seeds] attempts; the checker must flag the first biting seed with the
   right kind, and the unmutated system must be clean on that exact
   cell. *)
let run_mutant ?(seeds = 40) ?(base_seed = 42) mutant =
  let kind = Kv.Htm_bptree in
  let cfg0, plan_of = mutant_setup mutant ~seed:base_seed in
  Dura.Testonly.reset ();
  let calib = run_cell kind cfg0 in
  let horizon = calib.d_crash_cycle in
  let plan = plan_of horizon in
  let expected = expected_kind mutant in
  let rec search i =
    if i >= seeds then (None, seeds)
    else begin
      let cfg = { cfg0 with seed = base_seed + i } in
      arm_mutant mutant;
      let cell =
        Fun.protect
          ~finally:(fun () -> Dura.Testonly.reset ())
          (fun () -> run_cell ~plan ~horizon kind cfg)
      in
      if Checker.has_kind expected cell.d_findings then (Some (base_seed + i), i + 1)
      else search (i + 1)
    end
  in
  let caught_seed, tried = search 0 in
  let clean_on_fixed =
    match caught_seed with
    | None -> false
    | Some seed ->
        Dura.Testonly.reset ();
        let cell = run_cell ~plan ~horizon kind { cfg0 with seed } in
        Checker.clean cell.d_findings
  in
  {
    m_mutant = mutant;
    m_caught_seed = caught_seed;
    m_seeds_tried = tried;
    m_caught = caught_seed <> None;
    m_clean_on_fixed = clean_on_fixed;
  }

let run_mutants ?seeds ?base_seed () =
  List.map (fun m -> run_mutant ?seeds ?base_seed m) all_mutants

(* ---------- reporting ---------- *)

let record =
  Schema.(
    kind ~record:"recovery"
      [
        F ("tree", Str, fun c -> c.d_name);
        F ("threads", Int, fun c -> c.d_threads);
        F ("seed", Int, fun c -> c.d_seed);
        F ("horizon_cycles", Int, fun c -> c.d_horizon);
        F ( "plan",
            Raw (fun j -> Result.is_ok (Plan.of_json j)),
            fun c -> Plan.to_json c.d_plan );
        F ("crashed", Bool, fun c -> c.d_crashed);
        F ("crash_cycle", Int, fun c -> c.d_crash_cycle);
        F ( "restore_mode",
            Enum (List.map restore_mode_name [ Rebuild; In_place ]),
            fun c -> restore_mode_name c.d_restore );
        F ("ops", Int, fun c -> c.d_ops);
        F ("failed_ops", Int, fun c -> c.d_failed_ops);
        F ("snapshots_taken", Int, fun c -> c.d_snapshots_taken);
        F ("snapshot_lsn", Int, fun c -> c.d_snapshot_lsn);
        F ("log_len", Int, fun c -> c.d_log_len);
        F ("flushed_lsn", Int, fun c -> c.d_flushed_lsn);
        F ("lost_suffix", Int, fun c -> c.d_lost);
        F ("replayed", Int, fun c -> c.d_replayed);
        F ("rerun", Int, fun c -> c.d_rerun);
        F ("swept_locks", Int, fun c -> c.d_swept_locks);
        F ("stuck_recovery_ops", Int, fun c -> c.d_stuck_ops);
        F ("recovery_cycles", Int, fun c -> c.d_recovery_cycles);
        F ("work_bound_cycles", Int, fun c -> c.d_work_bound);
        F ("recovered", Bool, fun c -> Checker.clean c.d_findings);
        F ("findings_total", Int, fun c -> List.length c.d_findings);
        F ( "findings",
            List
              [
                F ("kind", Str, fun (f : Checker.finding) -> Checker.kind_name f.f_kind);
                F ("detail", Str, fun f -> f.Checker.f_detail);
              ],
            fun c -> c.d_findings );
      ])

let print_cells cells =
  Printf.printf "%-14s %8s %6s %5s %5s %5s %5s %5s %9s %9s %s\n" "tree" "ops"
    "crash" "snaps" "lost" "repl" "rerun" "stuck" "recovery" "bound" "verdict";
  List.iter
    (fun c ->
      Printf.printf "%-14s %8d %6s %5d %5d %5d %5d %5d %9d %9d %s\n" c.d_name
        c.d_ops
        (if c.d_crashed then string_of_int c.d_crash_cycle else "-")
        c.d_snapshots_taken c.d_lost c.d_replayed c.d_rerun c.d_stuck_ops
        c.d_recovery_cycles c.d_work_bound
        (if Checker.clean c.d_findings then "recovered"
         else
           String.concat ","
             (List.map
                (fun f -> Checker.kind_name f.Checker.f_kind)
                c.d_findings)))
    cells;
  print_newline ()

let print_mutants outs =
  Printf.printf "%-24s %-22s %6s %6s %s\n" "mutant" "expected" "seeds"
    "caught" "clean-on-fixed";
  List.iter
    (fun o ->
      Printf.printf "%-24s %-22s %6d %6s %s\n"
        (mutant_name o.m_mutant)
        (Checker.kind_name (expected_kind o.m_mutant))
        o.m_seeds_tried
        (match o.m_caught_seed with
        | Some s -> Printf.sprintf "@%d" s
        | None -> "NO")
        (if not o.m_caught then "-"
         else if o.m_clean_on_fixed then "yes"
         else "NO"))
    outs;
  print_newline ()
