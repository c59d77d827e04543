(* One benchmark round: a fresh simulated world built, preloaded, measured
   and checked through the library's public functions, timed section by
   section from outside.

   This restates Euno_harness.Runner.run step for step (same preload set,
   same per-thread seeds, same client work, same reduction to a
   [Runner.result]) so that set-up and measurement can be timed apart;
   [faithfulness] proves on every run that the restatement still measures
   exactly what campaigns run. *)

module Machine = Euno_sim.Machine
module Cost = Euno_sim.Cost
module Api = Euno_sim.Api
module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module Alloc = Euno_mem.Alloc
module Dist = Euno_workload.Dist
module Opgen = Euno_workload.Opgen
module Kv = Euno_harness.Kv
module Runner = Euno_harness.Runner
module Report = Euno_harness.Report
module Htm = Euno_htm.Htm
module Json = Euno_stats.Json
module Summary = Euno_stats.Summary

type spec = { kind : Kv.kind; workload : Runner.workload; setup : Runner.setup }

let op_kinds = [| "get"; "put"; "scan"; "delete"; "rmw" |]

let op_kind = function
  | Opgen.Get _ -> 0
  | Opgen.Put _ -> 1
  | Opgen.Scan _ -> 2
  | Opgen.Delete _ -> 3
  | Opgen.Rmw _ -> 4

type round = {
  result : Runner.result;  (** the reduction [Runner.run] would return *)
  final : Machine.snapshot;  (** aggregate counters of the measured run *)
  preload_keys_s : float;
  bulk_load_s : float;
  dist_create_s : float;
  measure_s : float;  (** [Machine.create] + [Machine.run] *)
  check_s : float;
  check : (unit, string) result;  (** [Kv.check] and the op count *)
  attempted : int;
  failed : int;  (** ops that raised, or every op if a check failed *)
  minor_words : float;  (** host minor-heap words allocated while measuring *)
  major_gcs : int;
  lat_by_kind : int array array;  (** simulated cycles per op, by op kind *)
  live_keys : int;
  gen_s : float;  (** host seconds in [Opgen.next]; traced rounds only *)
}

let setup_s r = r.preload_keys_s +. r.bulk_load_s
let round_s r = setup_s r +. r.dist_create_s +. r.measure_s

(* Runner's preload membership test and per-op client cost, restated. *)
let preloaded ~permille key =
  let h = key * 0x9E3779B1 in
  (h lxor (h lsr 13)) land 1023 * 1000 / 1024 < permille

let client_work = 25

(* Span recording context of a traced round: the recorder, and whether
   this round also records one span per op (and per op generation). *)
type tracer = { rc : Span.recorder; sample_ops : bool }

(* Run [f id] as a section named [name]: returns its value and host
   seconds, and records a span when tracing. *)
let section tr ~parent name f =
  let id = match tr with Some t -> Span.open_ t.rc | None -> -1 in
  let t0 = Span.now () in
  let v = f id in
  let t1 = Span.now () in
  (match tr with Some t -> Span.close t.rc ~id ~parent ~name t0 t1 | None -> ());
  (v, t1 -. t0)

(* The reduction of [Runner.run], field for field. *)
let reduce ~name spec ~m ~alloc ~mem_preload ~latencies =
  let setup = spec.setup in
  let s = Machine.aggregate m in
  let user i = float_of_int s.Machine.s_user.(i) in
  let lat =
    let all = Array.concat (Array.to_list latencies) in
    let summ = Summary.of_array (Array.map float_of_int all) in
    (Summary.percentile_int summ 50.0, Summary.percentile_int summ 99.0)
  in
  let ops = s.Machine.s_ops in
  let fops = float_of_int (max 1 ops) in
  let cycles = Machine.elapsed m in
  let total_cycles = float_of_int setup.Runner.threads *. float_of_int (max 1 cycles) in
  let module C = Htm.Counter in
  ( {
      Runner.r_name = name;
      r_strategy =
        Htm.strategy_name (Option.value ~default:Htm.default_policy setup.policy).Htm.strategy;
      r_capacity_model = setup.cost.Cost.capacity.Cost.cm_name;
      r_threads = setup.threads;
      r_ops = ops;
      r_cycles = cycles;
      r_mops = Cost.mops setup.cost ~ops ~cycles;
      r_aborts_per_op = float_of_int (Machine.total_aborts s) /. fops;
      r_abort_classes = Array.map (fun a -> float_of_int a /. fops) s.Machine.s_aborts;
      r_commits_per_op = float_of_int s.Machine.s_commits /. fops;
      r_wasted_pct =
        100.0
        *. float_of_int (s.Machine.s_wasted_cycles + s.Machine.s_user.(C.lock_wait_cycles))
        /. total_cycles;
      r_lock_wait_pct = 100.0 *. user C.lock_wait_cycles /. total_cycles;
      r_fallbacks_per_op = user C.fallbacks /. fops;
      r_retries_per_op = user C.retries /. fops;
      r_consistency_retries_per_op =
        user Eunomia.Euno_tree.Counter.consistency_retries /. fops;
      r_watchdog_trips_per_op = user C.watchdog_trips /. fops;
      r_starvation_backoffs_per_op = user C.starvation_backoffs /. fops;
      r_convoy_events_per_op = user C.convoy_events /. fops;
      r_fast_path_wins_per_op = user C.fast_path_wins /. fops;
      r_middle_path_wins_per_op = user C.middle_path_wins /. fops;
      r_software_path_wins_per_op = user C.software_path_wins /. fops;
      r_helped_ops_per_op = user C.helped_ops /. fops;
      r_instr_per_op = float_of_int s.Machine.s_accesses /. fops;
      r_lat_p50 = fst lat;
      r_lat_p99 = snd lat;
      r_mem_preload_bytes = mem_preload;
      r_mem_live_bytes = Alloc.live_bytes alloc;
      r_mem_reserved_peak_bytes =
        (Alloc.stats_of_kind alloc Linemap.Reserved).Alloc.peak_words * Memory.word_bytes;
      r_mem_lock_bytes =
        (Alloc.stats_of_kind alloc Linemap.Lock).Alloc.live_words * Memory.word_bytes;
      r_snapshots = [];
      r_san = None;
    },
    s )

let run ?tr ~round ~parent spec =
  let w = spec.workload and setup = spec.setup in
  if w.Runner.partitioned then invalid_arg "Driver.run: partitioned workloads are not restated";
  let threads = setup.Runner.threads and ops = setup.ops_per_thread and seed = setup.seed in
  let preload_keys_s = ref 0.0 and bulk_load_s = ref 0.0 in
  let (present, kv, mem, map, alloc, mem_preload), _ =
    section tr ~parent "setup" (fun id ->
        let (records, present), t =
          section tr ~parent:id "preload_keys" (fun _ ->
              let present = Bytes.make w.key_space '\000' in
              let records =
                List.filter_map
                  (fun key ->
                    if preloaded ~permille:w.preload_permille key then begin
                      Bytes.set present key '\001';
                      Some (key, key)
                    end
                    else None)
                  (List.init w.key_space (fun k -> k))
              in
              (records, present))
        in
        preload_keys_s := t;
        let world, t =
          section tr ~parent:id "bulk_load" (fun _ ->
              let mem = Memory.create () in
              let map = Linemap.create () in
              let alloc = Alloc.create mem map in
              let kv =
                Machine.run_single ~seed ~cost:Cost.unit_costs ~mem ~map ~alloc (fun () ->
                    Kv.build ?policy:setup.policy ~records spec.kind ~fanout:setup.fanout ~map)
              in
              (present, kv, mem, map, alloc, Alloc.live_bytes alloc))
        in
        bulk_load_s := t;
        world)
  in
  let gens, dist_create_s =
    section tr ~parent "dist_create" (fun _ ->
        Array.init threads (fun tid ->
            let dist =
              Dist.create ~scrambled:w.scrambled w.dist ~n:w.key_space
                ~seed:((seed * 7919) + (tid * 131) + 1)
            in
            (dist, Opgen.create ~scan_len:w.scan_len ~dist ~mix:w.mix ~seed:((seed * 104729) + tid) ())))
  in
  let latencies = Array.init threads (fun _ -> Array.make ops 0) in
  let kinds = Array.init threads (fun _ -> Bytes.make ops '\000') in
  let failed = Array.make threads 0 in
  let gen_s = ref 0.0 in
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let m, measure_s =
    section tr ~parent "measure" (fun measure_id ->
        let m = Machine.create ~threads ~seed ~cost:setup.cost ~mem ~map ~alloc in
        let traced = tr <> None in
        let sample = match tr with Some t -> t.sample_ops | None -> false in
        (* Opgen.next performs no effects, so its host span is exclusive. *)
        let timed_next ~op_id gen =
          let g0 = Span.now () in
          let op = Opgen.next gen in
          let g1 = Span.now () in
          gen_s := !gen_s +. (g1 -. g0);
          (match tr with
          | Some t when sample -> Span.add t.rc ~parent:op_id ~name:"gen" g0 g1
          | _ -> ());
          op
        in
        Machine.run m (fun tid ->
            let dist, gen = gens.(tid) in
            let lat = latencies.(tid) and kind = kinds.(tid) in
            for i = 0 to ops - 1 do
              Api.work client_work;
              let op_id, h0 =
                match tr with
                | Some t when sample -> (Span.open_ t.rc, Span.now ())
                | _ -> (-1, 0.0)
              in
              let c0 = Api.clock () in
              let op = if traced then timed_next ~op_id gen else Opgen.next gen in
              (try
                 match op with
                 | Opgen.Get k -> ignore (kv.Kv.get k)
                 | Opgen.Put (k, v) ->
                     kv.Kv.put k v;
                     Bytes.set present k '\001';
                     Dist.advance dist
                 | Opgen.Scan (k, len) -> ignore (kv.Kv.scan ~from:k ~count:len)
                 | Opgen.Delete k -> if kv.Kv.delete k then Bytes.set present k '\000'
                 | Opgen.Rmw (k, v) ->
                     let prev = Option.value ~default:0 (kv.Kv.get k) in
                     kv.Kv.put k (prev + v);
                     Bytes.set present k '\001'
               with
              | (Out_of_memory | Stack_overflow) as e -> raise e
              | _ -> failed.(tid) <- failed.(tid) + 1);
              let c1 = Api.clock () in
              lat.(i) <- c1 - c0;
              Bytes.set kind i (Char.chr (op_kind op));
              (match tr with
              | Some t when sample ->
                  Span.close t.rc ~id:op_id ~parent:measure_id ~name:"op"
                    ~req:(round, tid, i) ~sim:(c0, c1) h0 (Span.now ())
              | _ -> ());
              Api.op_done ()
            done);
        m)
  in
  let minor_words = Gc.minor_words () -. minor0 in
  let major_gcs = (Gc.quick_stat ()).Gc.major_collections - major0 in
  (* Reduce before checking, as Runner.run does without [check_after]:
     Kv.check can move the allocator's live-byte count. *)
  let result, final = reduce ~name:kv.Kv.name spec ~m ~alloc ~mem_preload ~latencies in
  let kv_check, check_s =
    section tr ~parent "check" (fun _ ->
        match Machine.run_single ~seed ~cost:Cost.unit_costs ~mem ~map ~alloc kv.Kv.check with
        | () -> Ok ()
        | exception e -> Error ("Kv.check: " ^ Printexc.to_string e))
  in
  let check =
    match kv_check with
    | Error _ as e -> e
    | Ok () when final.Machine.s_ops <> threads * ops ->
        Error (Printf.sprintf "s_ops = %d, expected %d" final.Machine.s_ops (threads * ops))
    | Ok () -> Ok ()
  in
  let lat_by_kind =
    Array.mapi
      (fun k _ ->
        let acc = ref [] in
        Array.iteri
          (fun tid lat ->
            Array.iteri (fun i c -> if Char.code (Bytes.get kinds.(tid) i) = k then acc := c :: !acc) lat)
          latencies;
        Array.of_list !acc)
      op_kinds
  in
  let live_keys = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr live_keys) present;
  let attempted = threads * ops in
  {
    result;
    final;
    preload_keys_s = !preload_keys_s;
    bulk_load_s = !bulk_load_s;
    dist_create_s;
    measure_s;
    check_s;
    check;
    attempted;
    failed = (if Result.is_ok check then Array.fold_left ( + ) 0 failed else attempted);
    minor_words;
    major_gcs;
    lat_by_kind;
    live_keys = !live_keys;
    gen_s = !gen_s;
  }

(* Encode a result the way campaigns do (schema-v1 record, compact JSON)
   and validate the emitted bytes the way euno_schema_check does (parse,
   then Report.validate_record).  Returns (encode s, validate s,
   verdict). *)
let encode_and_validate ~run r =
  let t0 = Span.now () in
  let text = Json.to_string (Report.result_to_json ~experiment:"perfbench" ~run r) in
  let t1 = Span.now () in
  let verdict =
    match Json.of_string text with Ok j -> Report.validate_record j | Error e -> Error e
  in
  let t2 = Span.now () in
  (t1 -. t0, t2 -. t1, verdict)

(* ---------- faithfulness ---------- *)

let snapshot_diffs (a : Machine.snapshot) (b : Machine.snapshot) =
  List.filter_map
    (fun (name, same) -> if same then None else Some name)
    [
      ("s_ops", a.s_ops = b.s_ops);
      ("s_commits", a.s_commits = b.s_commits);
      ("s_aborts", a.s_aborts = b.s_aborts);
      ("s_conflict_kinds", a.s_conflict_kinds = b.s_conflict_kinds);
      ("s_wasted_cycles", a.s_wasted_cycles = b.s_wasted_cycles);
      ("s_committed_cycles", a.s_committed_cycles = b.s_committed_cycles);
      ("s_accesses", a.s_accesses = b.s_accesses);
      ("s_user", a.s_user = b.s_user);
      ("s_clock", a.s_clock = b.s_clock);
    ]

(* Fields of two results that differ, by their schema-v1 names (plus
   "record" if they differ anywhere the encoding does not show). *)
let result_diffs (a : Runner.result) (b : Runner.result) =
  let a = { a with Runner.r_snapshots = [] } and b = { b with Runner.r_snapshots = [] } in
  let fields r =
    match Report.result_to_json r with Json.Obj l -> l | _ -> []
  in
  let fb = fields b in
  let named =
    List.filter_map
      (fun (k, v) -> if List.assoc_opt k fb = Some v then None else Some k)
      (fields a)
  in
  if named = [] && a <> b then [ "record" ] else named

(* A round against Runner.run on the same (kind, workload, setup, seed):
   every result field and every aggregate counter (ops, cycles, effects,
   commits, each abort bucket, each user counter) must agree.  Returns the
   Runner result and the names of the fields that differ. *)
let faithfulness spec (r : round) =
  let setup = { spec.setup with Runner.snapshot_window = Some (1 lsl 60) } in
  let ref_result = Runner.run spec.kind spec.workload setup in
  let diffs =
    result_diffs r.result ref_result
    @
    match List.rev ref_result.Runner.r_snapshots with
    | (_, final) :: _ -> snapshot_diffs r.final final
    | [] -> [ "snapshot" ]
  in
  ({ ref_result with Runner.r_snapshots = [] }, diffs)
