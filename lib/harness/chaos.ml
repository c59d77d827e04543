(* Chaos harness: run a tree under a deterministic fault-injection
   campaign and measure how gracefully it degrades.

   Unlike Runner (which measures steady-state figures), a chaos run keeps
   a host-side model of the map contents and checks every operation's
   result against it online, quiesces the machine at fixed checkpoints to
   run the tree's structural validator plus model-agreement spot checks,
   and splits throughput into before / under / after-fault phases to
   report a recovery time.

   Correct-by-construction model checking under concurrency: the key
   space is interleave-partitioned (thread t only touches keys = t mod
   threads), so each key has a single writer and the host model — updated
   in host code, which is atomic w.r.t. other simulated threads — is an
   exact oracle, while physically adjacent keys keep cross-thread false
   sharing (and hence the fault-sensitive abort traffic) alive. *)

module Plan = Euno_fault.Plan
module Machine = Euno_sim.Machine
module Cost = Euno_sim.Cost
module Api = Euno_sim.Api
module Rng = Euno_sim.Rng
module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module Alloc = Euno_mem.Alloc
module Barrier = Euno_sync.Barrier
module Htm = Euno_htm.Htm

type config = {
  threads : int;
  ops_per_thread : int;
  seed : int;
  key_space : int;
  fanout : int;
  cost : Cost.t;
  policy : Htm.policy option; (* None: each tree's own default *)
  checkpoints : int; (* quiesce-and-validate points during the run *)
  windows : int; (* sampling windows across the calibrated horizon *)
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
    windows = 40;
  }

let quick_config =
  {
    default_config with
    threads = 6;
    ops_per_thread = 400;
    key_space = 1 lsl 10;
    checkpoints = 3;
    windows = 24;
  }

(* Model-agreement spot checks per checkpoint (random keys across all
   partitions, swept by thread 0 while everyone else is quiesced). *)
let spot_checks = 128

(* Per-operation client-side cost, as in Runner. *)
let client_work = 25

(* Raw counters of one machine run (fault-free calibration or chaos). *)
type raw = {
  raw_name : string;
  raw_ops : int;
  raw_failed_ops : int;
  raw_violations : int;
  raw_mismatches : int;
  raw_checkpoints : int;
  raw_cycles : int;
  raw_work_cycles : int;
    (* clock when the last thread finished its operation loop — excludes
       the final quiesce/validate drain, during which only thread 0 runs.
       Fault windows and phase throughputs are scaled against this, not
       raw_cycles, or the drain would push the campaign past the real
       work and swallow the clean tail. *)
  raw_agg : Machine.snapshot;
  raw_samples : (int * Machine.snapshot) list;
}

let run_plan ?(plan = []) ?sampling kind cfg =
  if cfg.threads < 1 then invalid_arg "Chaos.run_plan: threads < 1";
  if cfg.key_space < cfg.threads then
    invalid_arg "Chaos.run_plan: key_space < threads";
  let mem = Memory.create () in
  let map = Linemap.create () in
  let alloc = Alloc.create mem map in
  (* Preload every even key so deletes hit existing records from op one
     and the measurement phase's inserts land between existing leaves. *)
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
        (* The checkpoint barrier lives in the same simulated world and
           survives into the measurement machine. *)
        (kv, Barrier.create ~parties:cfg.threads))
  in
  let model : (int, int) Hashtbl.t = Hashtbl.create (cfg.key_space * 2) in
  List.iter (fun (k, v) -> Hashtbl.replace model k v) records;
  let m =
    Machine.create ~threads:cfg.threads ~seed:cfg.seed ~cost:cfg.cost ~mem ~map
      ~alloc
  in
  if plan <> [] then Machine.set_injector m (Plan.to_injector plan);
  (match sampling with
  | Some window -> Machine.set_sampling m ~window:(max 1 window)
  | None -> ());
  let failed = ref 0 in
  let violations = ref 0 in
  let mismatches = ref 0 in
  let n_checkpoints = ref 0 in
  let sweep_rng = Rng.create ((cfg.seed * 31337) lxor 0x5eed) in
  (* Quiesce: everyone rendezvous, thread 0 validates the frozen tree
     against its invariants and against the model, rendezvous again. *)
  let checkpoint () =
    Barrier.wait bar;
    if Api.tid () = 0 then begin
      incr n_checkpoints;
      (try kv.Kv.check ()
       with
      | Htm.Stuck_fallback _ | Alloc.Alloc_failure -> incr failed
      | _ -> incr violations);
      for _ = 1 to spot_checks do
        let key = Rng.int sweep_rng cfg.key_space in
        match kv.Kv.get key with
        | got -> if got <> Hashtbl.find_opt model key then incr mismatches
        | exception (Htm.Stuck_fallback _ | Alloc.Alloc_failure) -> incr failed
      done
    end;
    Barrier.wait bar
  in
  let cp_every =
    max 1 (cfg.ops_per_thread / max 1 cfg.checkpoints)
  in
  let work_done = ref 0 in
  Machine.run m (fun tid ->
      let rng = Rng.create ((cfg.seed * 104729) + (tid * 7919) + 13) in
      let ranks = cfg.key_space / cfg.threads in
      let key_of rank = (rank * cfg.threads) + tid in
      for i = 1 to cfg.ops_per_thread do
        Api.work client_work;
        let key = key_of (Rng.int rng ranks) in
        let r = Rng.int rng 100 in
        (try
           if r < 40 then begin
             let got = kv.Kv.get key in
             if got <> Hashtbl.find_opt model key then incr mismatches
           end
           else if r < 75 then begin
             let v = (i * cfg.threads) + tid in
             kv.Kv.put key v;
             Hashtbl.replace model key v
           end
           else if r < 90 then begin
             let was = kv.Kv.delete key in
             if was <> Hashtbl.mem model key then incr mismatches;
             Hashtbl.remove model key
           end
           else begin
             (* read-modify-write through the tree *)
             let prev = kv.Kv.get key in
             if prev <> Hashtbl.find_opt model key then incr mismatches;
             let v = Option.value ~default:0 prev + 1 in
             kv.Kv.put key v;
             Hashtbl.replace model key v
           end
         with
        | Htm.Stuck_fallback _ | Alloc.Alloc_failure ->
            (* graceful failure: the operation reports defeat but the
               structure is untouched, so the model stays in agreement *)
            incr failed);
        Api.op_done ();
        if i mod cp_every = 0 && i < cfg.ops_per_thread then checkpoint ()
      done;
      work_done := max !work_done (Api.clock ());
      checkpoint ());
  {
    raw_name = kv.Kv.name;
    raw_ops = (Machine.aggregate m).Machine.s_ops;
    raw_failed_ops = !failed;
    raw_violations = !violations;
    raw_mismatches = !mismatches;
    raw_checkpoints = !n_checkpoints;
    raw_cycles = Machine.elapsed m;
    raw_work_cycles = !work_done;
    raw_agg = Machine.aggregate m;
    raw_samples = Machine.samples m;
  }

(* ---------- phase split and recovery time ---------- *)

(* Attribute each sampling window of the chaos run to before / under /
   after the plan's fault span (a window overlapping the span counts as
   under-fault), and find the first post-fault window whose op rate is
   back to at least half the clean-phase mean: its end is the recovery
   point.  When no such window exists the verdict is explicit —
   [Unrecovered observed] with the observation horizon saturated to the
   post-fault tail we actually watched — rather than a sentinel that
   downstream arithmetic could silently average. *)
type recovery_verdict =
  | Recovered of int (* cycles after the last fault until rate restored *)
  | Unrecovered of int (* post-fault cycles observed without recovery *)

type phases = {
  ph_clean : int * int; (* ops, cycles *)
  ph_fault : int * int;
  ph_after : int * int;
  ph_recovery : recovery_verdict;
}

let split_phases ~span ~work_end ~samples =
  (* Windows past [work_end] are the single-threaded validation drain:
     near-zero op rate by construction, so attributing them to the after-
     fault phase would fake a throughput collapse that never happened. *)
  let ws =
    List.filter
      (fun w -> w.Schema.w_start < work_end)
      (Schema.windows_of_snapshots samples)
  in
  let add (ops, cyc) w =
    (ops + w.Schema.w_ops, cyc + (w.Schema.w_end - w.Schema.w_start))
  in
  match span with
  | None ->
      let all = List.fold_left add (0, 0) ws in
      { ph_clean = all; ph_fault = (0, 0); ph_after = (0, 0);
        ph_recovery = Recovered 0 }
  | Some (f0, f1) ->
      let clean, fault, after =
        List.fold_left
          (fun (c, f, a) w ->
            if w.Schema.w_end <= f0 then (add c w, f, a)
            else if w.Schema.w_start >= f1 then (c, f, add a w)
            else (c, add f w, a))
          ((0, 0), (0, 0), (0, 0))
          ws
      in
      let rate (ops, cyc) =
        if cyc <= 0 then 0.0 else float_of_int ops /. float_of_int cyc
      in
      let clean_rate = rate clean in
      let recovered =
        List.find_opt
          (fun w ->
            w.Schema.w_start >= f1
            && rate (w.Schema.w_ops, w.Schema.w_end - w.Schema.w_start)
               >= 0.5 *. clean_rate)
          ws
      in
      {
        ph_clean = clean;
        ph_fault = fault;
        ph_after = after;
        ph_recovery =
          (match recovered with
          | Some w -> Recovered (w.Schema.w_end - f1)
          | None -> Unrecovered (max 0 (work_end - f1)));
      }

(* ---------- the campaign ---------- *)

type outcome = {
  o_name : string;
  o_threads : int;
  o_seed : int;
  o_horizon : int; (* fault-free calibrated run length, cycles *)
  o_plan : Plan.t;
  o_ops : int;
  o_failed_ops : int;
  o_cycles : int;
  o_mops : float;
  o_mops_clean : float;
  o_mops_fault : float;
  o_mops_after : float;
  o_recovery : recovery_verdict;
  o_invariant_violations : int;
  o_model_mismatches : int;
  o_checkpoints : int;
  o_fallbacks : int;
  o_watchdog_trips : int;
  o_starvation_backoffs : int;
  o_convoy_events : int;
  o_aborts : int array;
  o_snapshots : (int * Machine.snapshot) list;
}

let run_campaign kind cfg =
  (* Calibrate the fault-free horizon first, on an identical world, so
     the campaign's windows land over the middle of the run and a clean
     tail remains to measure recovery against. *)
  let calib = run_plan kind cfg in
  let horizon = calib.raw_work_cycles in
  let plan = Plan.campaign ~threads:cfg.threads ~horizon in
  let raw =
    run_plan ~plan ~sampling:(horizon / max 1 cfg.windows) kind cfg
  in
  let ph =
    split_phases ~span:(Plan.span plan) ~work_end:raw.raw_work_cycles
      ~samples:raw.raw_samples
  in
  let mops (ops, cycles) =
    if cycles <= 0 then 0.0 else Cost.mops cfg.cost ~ops ~cycles
  in
  let user i = raw.raw_agg.Machine.s_user.(i) in
  {
    o_name = raw.raw_name;
    o_threads = cfg.threads;
    o_seed = cfg.seed;
    o_horizon = horizon;
    o_plan = plan;
    o_ops = raw.raw_ops;
    o_failed_ops = raw.raw_failed_ops;
    o_cycles = raw.raw_cycles;
    o_mops = mops (raw.raw_ops, raw.raw_cycles);
    o_mops_clean = mops ph.ph_clean;
    o_mops_fault = mops ph.ph_fault;
    o_mops_after = mops ph.ph_after;
    o_recovery = ph.ph_recovery;
    o_invariant_violations = raw.raw_violations;
    o_model_mismatches = raw.raw_mismatches;
    o_checkpoints = raw.raw_checkpoints;
    o_fallbacks = user Htm.Counter.fallbacks;
    o_watchdog_trips = user Htm.Counter.watchdog_trips;
    o_starvation_backoffs = user Htm.Counter.starvation_backoffs;
    o_convoy_events = user Htm.Counter.convoy_events;
    o_aborts = raw.raw_agg.Machine.s_aborts;
    o_snapshots = raw.raw_samples;
  }

(* One pool cell per tree: calibration and the chaos run both live in
   the cell, so cells stay independent and the merge keeps Kv.all_kinds
   order. *)
let run_all ?domains cfg =
  Pool.map ?domains (fun kind -> run_campaign kind cfg) Kv.all_kinds

(* ---------- reporting ---------- *)

let record =
  Schema.(
    kind ~record:"chaos"
      [
        F ("tree", Str, fun o -> o.o_name);
        F ("threads", Int, fun o -> o.o_threads);
        F ("seed", Int, fun o -> o.o_seed);
        F ("horizon_cycles", Int, fun o -> o.o_horizon);
        F ( "plan",
            Raw (fun j -> Result.is_ok (Plan.of_json j)),
            fun o -> Plan.to_json o.o_plan );
        F ("ops", Int, fun o -> o.o_ops);
        F ("failed_ops", Int, fun o -> o.o_failed_ops);
        F ("cycles", Int, fun o -> o.o_cycles);
        F ("mops", Float, fun o -> o.o_mops);
        F ("mops_clean", Float, fun o -> o.o_mops_clean);
        F ("mops_fault", Float, fun o -> o.o_mops_fault);
        F ("mops_after", Float, fun o -> o.o_mops_after);
        (* recovery_cycles stays an int in both verdicts: for Unrecovered
           it is the saturated observation horizon, and [recovered] says
           which reading applies. *)
        F ( "recovery_cycles",
            Int,
            fun o -> match o.o_recovery with Recovered c | Unrecovered c -> c );
        F ( "recovered",
            Bool,
            fun o ->
              match o.o_recovery with Recovered _ -> true | Unrecovered _ -> false );
        F ("invariant_violations", Int, fun o -> o.o_invariant_violations);
        F ("model_mismatches", Int, fun o -> o.o_model_mismatches);
        F ("checkpoints", Int, fun o -> o.o_checkpoints);
        F ("aborts", Obj (per_class Int), fun o -> o.o_aborts);
        F ( "degradation",
            Obj
              [
                F ("fallbacks", Int, fun o -> o.o_fallbacks);
                F ("watchdog_trips", Int, fun o -> o.o_watchdog_trips);
                F ("starvation_backoffs", Int, fun o -> o.o_starvation_backoffs);
                F ("convoy_events", Int, fun o -> o.o_convoy_events);
              ],
            Fun.id );
        snapshots (fun o -> o.o_snapshots);
      ])

let print_outcomes outs =
  Printf.printf
    "%-14s %8s %6s %8s %8s %8s %9s %5s %5s %5s %5s %5s\n"
    "tree" "ops" "fail" "clean" "fault" "after" "recovery" "inv" "mism"
    "wdog" "starv" "conv";
  List.iter
    (fun o ->
      Printf.printf
        "%-14s %8d %6d %8.3f %8.3f %8.3f %9s %5d %5d %5d %5d %5d\n" o.o_name
        o.o_ops o.o_failed_ops o.o_mops_clean o.o_mops_fault o.o_mops_after
        (match o.o_recovery with
        | Recovered c -> string_of_int c
        | Unrecovered _ -> "never")
        o.o_invariant_violations o.o_model_mismatches o.o_watchdog_trips
        o.o_starvation_backoffs o.o_convoy_events)
    outs;
  print_newline ()
