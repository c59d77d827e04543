(* The repository benchmark: runs one named workload from a seed for a
   fixed host-time budget, checks every round, and prints every metric by
   name with its unit.  The last stdout line is one JSON object
   {correct, attempted, failed, metrics}: end-to-end metrics without
   tracing, per-layer metrics with --trace 1.  See README.md. *)

module Machine = Euno_sim.Machine
module Cost = Euno_sim.Cost
module Abort = Euno_sim.Abort
module Alloc = Euno_mem.Alloc
module Linemap = Euno_mem.Linemap
module Dist = Euno_workload.Dist
module Opgen = Euno_workload.Opgen
module Kv = Euno_harness.Kv
module Runner = Euno_harness.Runner
module Pool = Euno_harness.Pool
module Htm = Euno_htm.Htm
module Json = Euno_stats.Json

(* ---------- workloads ---------- *)

let hot kind seed =
  {
    Driver.kind;
    workload =
      { Runner.default_workload with dist = Dist.Zipfian 0.99; mix = Opgen.ycsb_default;
        key_space = 1 lsl 16; preload_permille = 900 };
    setup = { Runner.default_setup with threads = 16; ops_per_thread = 2000; seed };
  }

let cold_read seed =
  {
    Driver.kind = Kv.Htm_bptree;
    workload =
      { Runner.default_workload with dist = Dist.Uniform; mix = Opgen.ycsb_c;
        key_space = 1 lsl 20; preload_permille = 900 };
    setup = { Runner.default_setup with threads = 4; ops_per_thread = 20000; seed };
  }

(* The campaign grid: the paper's four trees x three skews x the three
   fallback strategies, in a fixed cell order. *)
let grid_domains = 2
let grid_thetas = [ 0.2; 0.8; 0.99 ]

let grid_cell (kind, theta, strategy) seed =
  {
    Driver.kind;
    workload =
      { Runner.default_workload with dist = Dist.Zipfian theta; key_space = 1 lsl 12;
        preload_permille = 900 };
    setup =
      { Runner.default_setup with threads = 8; ops_per_thread = 500; seed;
        policy = Some { Htm.default_policy with Htm.strategy } };
  }

let grid_axes =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun theta -> List.map (fun s -> (kind, theta, s)) Htm.all_strategies)
        grid_thetas)
    Kv.all_kinds

type workload = Single of (int -> Driver.spec) | Grid

let workloads =
  [
    ("hot-euno", Single (hot (Kv.Euno Eunomia.Config.default)));
    ("hot-htm-bptree", Single (hot Kv.Htm_bptree));
    ("cold-read", Single cold_read);
    ("campaign-grid", Grid);
  ]

(* Rounds (grid passes) whose simulated results feed the sim_* and
   per-layer count metrics: a fixed set, always run, so those metrics
   repeat exactly for a seed no matter how many rounds the host manages in
   the time budget. *)
let fixed_rounds = 5
let fixed_passes = 4

(* ---------- output ---------- *)

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []
let emit name unit_ value = metrics := { name; value; unit_ } :: !metrics
let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Host times are reported normalised to the calibration's nominal host
   speed (see Calib): [calibrate] takes a sample before every round or
   grid pass, and the run's median sample sets the factor. *)
let calib : float list ref = ref []
let calibrate () = calib := Calib.sample () :: !calib
let host_factor () = Calib.nominal /. Calc.median !calib
let emit_time name unit_ seconds = emit name unit_ (seconds *. host_factor ())
let emit_rate name unit_ per_s = emit name unit_ (per_s /. host_factor ())

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let isum f l = List.fold_left (fun a x -> a + f x) 0 l
let median_of f l = Calc.median (List.map f l)
let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> []

(* Median and tail of a timing, printing the sample count and the tail
   percentile chosen. *)
let timing name unit_ samples =
  let n = List.length samples in
  let p = Calc.tail_percentile n in
  say "timing %s: n=%d p50=%.6g tail=p%g:%.6g (%d samples beyond)" name n (Calc.median samples) p
    (Calc.percentile samples p) (Calc.beyond ~n p);
  emit_time (name ^ ".p50") unit_ (Calc.median samples);
  emit_time (name ^ ".tail") unit_ (Calc.percentile samples p)

(* ---------- shared metric reductions ---------- *)

(* sim_* end-to-end metrics over the results of a fixed round set: Mops
   of all their ops over all their cycles, the given latency
   percentiles, and the mean share of CPU cycles not wasted. *)
let sim_metrics (rs : Runner.result list) ~lat_p50 ~lat_p99 =
  let ops = isum (fun r -> r.Runner.r_ops) rs and cycles = isum (fun r -> r.Runner.r_cycles) rs in
  emit "sim_mops" "Mops" (Cost.mops Cost.default ~ops ~cycles);
  emit "sim_lat_p50_cycles" "cycles" lat_p50;
  emit "sim_lat_p99_cycles" "cycles" lat_p99;
  emit "sim_useful_pct" "%" (100.0 -. (sum (fun r -> r.Runner.r_wasted_pct) rs /. float_of_int (List.length rs)))

let kind_label k = String.map (function '-' -> '_' | c -> c) (Linemap.kind_to_string k)

(* Per-layer metrics of driver rounds.  Counts come from [fixed] (a set
   that does not depend on host speed); host times are medians over
   [timed]. *)
let layer_metrics ~(fixed : Driver.round list) ~(timed : Driver.round list) =
  let snap f = isum (fun (r : Driver.round) -> f r.final) fixed in
  let ops = float_of_int (max 1 (snap (fun s -> s.Machine.s_ops))) in
  let per_op v = float_of_int v /. ops in
  let aborts i = snap (fun s -> s.Machine.s_aborts.(i)) in
  let commits = snap (fun s -> s.Machine.s_commits) in
  let all_aborts = snap Machine.total_aborts in
  let effects = snap (fun s -> s.Machine.s_accesses) in
  emit "sim.effects_per_op" "1/op" (per_op effects);
  emit_time "sim.host_ns_per_effect" "ns"
    (median_of (fun (r : Driver.round) -> r.measure_s *. 1e9 /. float_of_int r.final.s_accesses) timed);
  emit "sim.minor_words_per_effect" "words"
    (median_of (fun (r : Driver.round) -> r.minor_words /. float_of_int r.final.s_accesses) timed);
  emit "sim.gc_major_per_round" "1/round" (median_of (fun (r : Driver.round) -> float_of_int r.major_gcs) timed);
  List.iter
    (fun k ->
      let i = Alloc.kind_index k in
      emit (Printf.sprintf "sim.conflict.%s_per_op" (kind_label k)) "1/op"
        (per_op (snap (fun s -> s.Machine.s_conflict_kinds.(i)))))
    Alloc.all_kinds;
  let ix c = Abort.index c in
  let attempts = commits + all_aborts in
  emit "htm.attempts_per_op" "1/op" (per_op attempts);
  emit "htm.commit_ratio" "ratio" (float_of_int commits /. float_of_int (max 1 attempts));
  let true_ = aborts (ix (Abort.Conflict Abort.True_conflict))
  and false_record = aborts (ix (Abort.Conflict Abort.False_record))
  and false_meta = aborts (ix (Abort.Conflict Abort.False_metadata))
  and subscription = aborts (ix (Abort.Conflict Abort.Subscription))
  and capacity = aborts (ix Abort.Capacity_read) + aborts (ix Abort.Capacity_write) in
  emit "htm.abort.true_per_op" "1/op" (per_op true_);
  emit "htm.abort.false_record_per_op" "1/op" (per_op false_record);
  emit "htm.abort.false_meta_per_op" "1/op" (per_op false_meta);
  emit "htm.abort.subscription_per_op" "1/op" (per_op subscription);
  emit "htm.abort.capacity_per_op" "1/op" (per_op capacity);
  emit "htm.abort.other_per_op" "1/op"
    (per_op (all_aborts - true_ - false_record - false_meta - subscription - capacity));
  let cpu = isum (fun (r : Driver.round) -> r.result.r_threads * r.result.r_cycles) fixed in
  emit "htm.wasted_cycles_pct" "%"
    (100.0 *. float_of_int (snap (fun s -> s.Machine.s_wasted_cycles)) /. float_of_int (max 1 cpu));
  List.iter
    (fun (i, name) ->
      let owner = Option.value ~default:"user" (Machine.user_counter_owner i) in
      emit (Printf.sprintf "%s.%s_per_op" owner name) "1/op" (per_op (snap (fun s -> s.Machine.s_user.(i)))))
    (Machine.user_counter_names ());
  Array.iteri
    (fun k name ->
      let lats =
        List.concat_map
          (fun (r : Driver.round) -> Array.to_list (Array.map float_of_int r.lat_by_kind.(k)))
          fixed
      in
      let pct p = if lats = [] then 0.0 else Calc.percentile lats p in
      emit (Printf.sprintf "tree.%s.sim_cycles.p50" name) "cycles" (pct 50.0);
      emit (Printf.sprintf "tree.%s.sim_cycles.p99" name) "cycles" (pct 99.0))
    Driver.op_kinds;
  emit_time "tree.bulk_load_s" "s" (median_of (fun (r : Driver.round) -> r.bulk_load_s) timed);
  emit_time "tree.check_s" "s" (median_of (fun (r : Driver.round) -> r.check_s) timed);
  let med_int f = median_of (fun (r : Driver.round) -> float_of_int (f r.result)) fixed in
  emit "mem.preload_bytes" "bytes" (med_int (fun r -> r.Runner.r_mem_preload_bytes));
  emit "mem.live_bytes_per_key" "bytes/key"
    (median_of
       (fun (r : Driver.round) ->
         float_of_int r.result.r_mem_live_bytes /. float_of_int (max 1 r.live_keys))
       fixed);
  emit "mem.reserved_peak_bytes" "bytes" (med_int (fun r -> r.Runner.r_mem_reserved_peak_bytes));
  emit "mem.lock_bytes" "bytes" (med_int (fun r -> r.Runner.r_mem_lock_bytes));
  emit_time "workload.gen_ns_per_op" "ns"
    (median_of (fun (r : Driver.round) -> r.gen_s *. 1e9 /. float_of_int (max 1 r.final.s_ops)) timed);
  emit_time "workload.dist_create_s" "s" (median_of (fun (r : Driver.round) -> r.dist_create_s) timed);
  emit_time "workload.preload_keys_s" "s" (median_of (fun (r : Driver.round) -> r.preload_keys_s) timed)

(* Self time per span name, as a table on stdout. *)
let print_self spans =
  say "trace self time (s), by span name:";
  List.iter (fun (name, n, self) -> say "  %-14s n=%-7d self=%.6f" name n self) (Span.self_by_name spans)

let write_trace path spans =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  output_string oc (Json.to_string (Span.chrome spans));
  close_out oc;
  say "trace: %d spans written to %s" (List.length spans) path

let check_round ~what (r : Driver.round) =
  (match r.check with Ok () -> () | Error e -> fail "%s: %s" what e);
  if r.failed > 0 then fail "%s: %d ops failed" what r.failed

(* Simulated counters of a traced round must equal its untraced twin's. *)
let same_sim ~what (a : Driver.round) (b : Driver.round) =
  match Driver.snapshot_diffs a.final b.final @ Driver.result_diffs a.result b.result with
  | [] -> ()
  | d -> fail "%s: traced and untraced runs differ in %s" what (String.concat ", " d)

let faithful ~what spec (r : Driver.round) =
  match Driver.faithfulness spec r with
  | _, [] -> say "faithfulness %s: driver round = Runner.run on every counter" what
  | _, d -> fail "faithfulness %s: driver round differs from Runner.run in %s" what (String.concat ", " d)

(* ---------- single-world workloads ---------- *)

(* Run [step 0], [step 1], ... until [budget] host seconds have passed,
   and at least [min] steps. *)
let repeat ~budget ~min step =
  let t_start = Span.now () in
  let rec go i acc =
    if i < min || Span.now () -. t_start < budget then go (i + 1) (step i :: acc) else List.rev acc
  in
  go 0 []

type timed_round = {
  r : Driver.round;
  encode_s : float;
  validate_s : float;
  loop_s : float;  (** the round plus its checks and encoding *)
}

(* Round [i], checked and encoded as a campaign record; traced (as a
   child of span [root]) when [rc] is given. *)
let one_round ?rc ?(root = -1) ~seed make i =
  calibrate ();
  let spec = make (Calc.derive_seed seed i) in
  let tr = Option.map (fun rc -> { Driver.rc; sample_ops = i = 0 }) rc in
  let round_id = match rc with Some rc -> Span.open_ rc | None -> -1 in
  let t0 = Span.now () in
  let r = Driver.run ?tr ~round:i ~parent:round_id spec in
  let (encode_s, validate_s, verdict), _ =
    Driver.section tr ~parent:round_id "report" (fun _ -> Driver.encode_and_validate ~run:i r.result)
  in
  let t1 = Span.now () in
  (match rc with Some rc -> Span.close rc ~id:round_id ~parent:root ~name:"round" t0 t1 | None -> ());
  (match verdict with Ok () -> () | Error e -> fail "round %d record: %s" i e);
  check_round ~what:(Printf.sprintf "round %d" i) r;
  { r; encode_s; validate_s; loop_s = t1 -. t0 }

let e2e_single (rs : timed_round list) =
  let rounds = List.map (fun t -> t.r) rs in
  emit_rate "sim_ops_per_s" "1/s"
    (median_of (fun (r : Driver.round) -> float_of_int r.final.s_ops /. r.measure_s) rounds);
  emit_rate "rounds_per_s" "1/s" (float_of_int (List.length rs) /. sum (fun t -> t.loop_s) rs);
  timing "round_s" "s" (List.map Driver.round_s rounds);
  say "timing setup_s: n=%d (median reported)" (List.length rounds);
  emit_time "setup_s" "s" (median_of Driver.setup_s rounds);
  let fixed = take fixed_rounds rounds in
  (* latency percentiles over every op of the fixed rounds *)
  let lats =
    List.concat_map
      (fun (r : Driver.round) ->
        List.concat_map (fun a -> Array.to_list (Array.map float_of_int a)) (Array.to_list r.lat_by_kind))
      fixed
  in
  sim_metrics (List.map (fun (r : Driver.round) -> r.result) fixed)
    ~lat_p50:(Calc.percentile lats 50.0) ~lat_p99:(Calc.percentile lats 99.0)

let harness_single (rs : timed_round list) =
  let rounds = List.map (fun t -> t.r) rs in
  emit "harness.pool_busy_frac" "ratio" (sum Driver.round_s rounds /. sum (fun t -> t.loop_s) rs);
  emit_time "harness.cell_s" "s" (median_of Driver.round_s rounds);
  emit_time "stats.encode_us_per_record" "us" (median_of (fun t -> t.encode_s *. 1e6) rs);
  emit_time "stats.validate_us_per_record" "us" (median_of (fun t -> t.validate_s *. 1e6) rs)

(* The traced run alternates each untraced round with its traced twin (same
   seed), so host-speed drift hits both sides of trace.overhead_pct
   alike. *)
let run_single ~seed ~seconds ~trace ~trace_file make =
  let first = make (Calc.derive_seed seed 0) in
  if not trace then begin
    let rs = repeat ~budget:seconds ~min:fixed_rounds (one_round ~seed make) in
    faithful ~what:"round 0" first (List.hd rs).r;
    e2e_single rs;
    rs
  end
  else begin
    let rc = Span.recorder ~first_id:0 in
    let root = Span.open_ rc in
    let t0 = Span.now () in
    let pairs =
      repeat ~budget:seconds ~min:fixed_rounds (fun i ->
          let plain = one_round ~seed make i in
          (plain, one_round ~rc ~root ~seed make i))
    in
    Span.close rc ~id:root ~parent:(-1) ~name:"workload" t0 (Span.now ());
    let plain = List.map fst pairs and traced = List.map snd pairs in
    faithful ~what:"round 0" first (List.hd plain).r;
    List.iteri (fun i (a, b) -> same_sim ~what:(Printf.sprintf "round %d" i) a.r b.r) pairs;
    let rounds = List.map (fun t -> t.r) traced in
    layer_metrics ~fixed:(take fixed_rounds rounds) ~timed:rounds;
    harness_single traced;
    let med l = median_of (fun t -> Driver.round_s t.r) l in
    emit "trace.overhead_pct" "%" (100.0 *. ((med traced /. med plain) -. 1.0));
    print_self rc.spans;
    write_trace trace_file rc.spans;
    plain @ traced
  end

(* ---------- campaign grid ---------- *)

type cell = {
  idx : int;
  started : float;  (** host time the cell began on its worker *)
  result : Runner.result;
  cell_s : float;
  c_encode_s : float;
  c_validate_s : float;
  verdict : (unit, string) result;
  spans : Span.t list;
}

(* One campaign cell, as Figures runs it, on a pool worker: Runner.run,
   then the schema-v1 record encoded and validated. *)
let run_cell ~traced (idx, spec) =
  let rc = Span.recorder ~first_id:((idx + 1) * 8) in
  let t0 = Span.now () in
  let cell_id = Span.open_ rc in
  let result, t_run =
    let t = Span.now () in
    let r = Runner.run spec.Driver.kind spec.workload spec.setup in
    (r, (t, Span.now ()))
  in
  let c_encode_s, c_validate_s, verdict = Driver.encode_and_validate ~run:idx result in
  let t1 = Span.now () in
  let spans =
    if not traced then []
    else begin
      Span.add rc ~parent:cell_id ~name:"runner_run" (fst t_run) (snd t_run);
      Span.add rc ~parent:cell_id ~name:"report" (snd t_run) t1;
      Span.close rc ~id:cell_id ~parent:0 ~name:"round" t0 t1;
      rc.spans
    end
  in
  { idx; started = t0; result; cell_s = t1 -. t0; c_encode_s; c_validate_s; verdict; spans }

let n_cells = List.length grid_axes
let cell_spec seed idx = grid_cell (List.nth grid_axes (idx mod n_cells)) (Calc.derive_seed seed idx)

(* Grid pass [p]: 36 cells through Pool.map.  Also returns the pass's
   start-up (from preparing its cells to the first cell starting on a
   worker) and its wall time. *)
let grid_pass ~traced ~seed p =
  calibrate ();
  let t_call = Span.now () in
  let cells = List.init n_cells (fun c -> let i = (p * n_cells) + c in (i, cell_spec seed i)) in
  let out = Pool.map ~domains:grid_domains (run_cell ~traced) cells in
  let first = List.fold_left (fun m c -> Float.min m c.started) infinity out in
  (out, first -. t_call, Span.now () -. t_call)

let cells_of passes = List.concat_map (fun (cells, _, _) -> cells) passes
let wall_of passes = sum (fun (_, _, w) -> w) passes

let cell_ops idx = let s = (cell_spec 0 idx).setup in s.threads * s.ops_per_thread

(* A cell's record must validate and its op count must be exact. *)
let cell_ok c =
  match c.verdict with
  | Error e -> Error ("record: " ^ e)
  | Ok () when c.result.r_ops <> cell_ops c.idx ->
      Error (Printf.sprintf "r_ops = %d, expected %d" c.result.r_ops (cell_ops c.idx))
  | Ok () -> Ok ()

let check_cells cells =
  List.iter (fun c -> match cell_ok c with Ok () -> () | Error e -> fail "cell %d: %s" c.idx e) cells

(* The first cell of each tree kind, re-run through the driver: the
   driver round must equal Runner.run, and the pool's cell must equal
   the sequential Runner.run.  The driver rounds also feed the world-layer
   per-layer metrics. *)
let grid_driver_rounds ?rc ~seed cells =
  List.filteri (fun i _ -> i mod (n_cells / List.length Kv.all_kinds) = 0) (take n_cells cells)
  |> List.map (fun c ->
         let spec = cell_spec seed c.idx in
         let tr = Option.map (fun rc -> { Driver.rc; sample_ops = c.idx = 0 }) rc in
         let r = Driver.run ?tr ~round:c.idx ~parent:(-1) spec in
         check_round ~what:(Printf.sprintf "cell %d driver round" c.idx) r;
         let ref_result, diffs = Driver.faithfulness spec r in
         let what = Printf.sprintf "cell %d (%s)" c.idx c.result.r_name in
         (match diffs with
         | [] -> say "faithfulness %s: driver round = Runner.run on every counter" what
         | d -> fail "faithfulness %s: driver round differs from Runner.run in %s" what (String.concat ", " d));
         (match Driver.result_diffs c.result ref_result with
         | [] -> ()
         | d -> fail "%s: pool cell differs from sequential Runner.run in %s" what (String.concat ", " d));
         r)

let run_grid ~seed ~seconds ~trace ~trace_file =
  if not trace then begin
    let passes = repeat ~budget:seconds ~min:fixed_passes (grid_pass ~traced:false ~seed) in
    let cells = cells_of passes in
    check_cells cells;
    ignore (grid_driver_rounds ~seed cells);
    say "grid: %d passes of %d cells on %d domains" (List.length passes) n_cells grid_domains;
    emit_rate "sim_ops_per_s" "1/s" (median_of (fun c -> float_of_int c.result.r_ops /. c.cell_s) cells);
    emit_rate "rounds_per_s" "1/s" (float_of_int (List.length cells) /. wall_of passes);
    timing "round_s" "s" (List.map (fun c -> c.cell_s) cells);
    say "timing setup_s: n=%d pool start-ups (median reported)" (List.length passes);
    emit_time "setup_s" "s" (median_of (fun (_, startup, _) -> startup) passes);
    (* cells differ too much to pool their latencies: mean of per-cell
       percentiles *)
    let fixed = List.map (fun c -> c.result) (take (fixed_passes * n_cells) cells) in
    let mean f = sum (fun r -> float_of_int (f r)) fixed /. float_of_int (List.length fixed) in
    sim_metrics fixed ~lat_p50:(mean (fun r -> r.Runner.r_lat_p50))
      ~lat_p99:(mean (fun r -> r.Runner.r_lat_p99));
    cells
  end
  else begin
    let t0 = Span.now () in
    let pairs =
      repeat ~budget:seconds ~min:fixed_passes (fun p ->
          (grid_pass ~traced:false ~seed p, grid_pass ~traced:true ~seed p))
    in
    let t1 = Span.now () in
    let plain = cells_of (List.map fst pairs) and traced = cells_of (List.map snd pairs) in
    check_cells (plain @ traced);
    List.iter2
      (fun a b ->
        match Driver.result_diffs a.result b.result with
        | [] -> ()
        | d -> fail "cell %d: traced and untraced runs differ in %s" a.idx (String.concat ", " d))
      plain traced;
    let rc = Span.recorder ~first_id:1_000_000 in
    let rounds = grid_driver_rounds ~rc ~seed traced in
    let spans =
      { Span.id = 0; parent = -1; name = "workload"; t0; t1; req = None; sim = None }
      :: (rc.spans @ List.concat_map (fun c -> c.spans) traced)
    in
    layer_metrics ~fixed:rounds ~timed:rounds;
    emit "harness.pool_busy_frac" "ratio"
      (sum (fun c -> c.cell_s) traced /. (float_of_int grid_domains *. wall_of (List.map snd pairs)));
    emit_time "harness.cell_s" "s" (median_of (fun c -> c.cell_s) traced);
    emit_time "stats.encode_us_per_record" "us" (median_of (fun c -> c.c_encode_s *. 1e6) traced);
    emit_time "stats.validate_us_per_record" "us" (median_of (fun c -> c.c_validate_s *. 1e6) traced);
    let med l = median_of (fun c -> c.cell_s) l in
    emit "trace.overhead_pct" "%" (100.0 *. ((med traced /. med plain) -. 1.0));
    print_self spans;
    write_trace trace_file spans;
    plain @ traced
  end

(* ---------- main ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let trace_file = ref "" and profile = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of: " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--trace-file", Arg.Set_string trace_file, "PATH where the traced run writes its spans");
      ("--build-profile", Arg.Set_string profile, "NAME dune profile the binary was built with");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let traced = !trace = 1 in
  let trace_file =
    if !trace_file <> "" then !trace_file
    else Printf.sprintf ".bench_out/trace-%s-%d.json" !workload !seed
  in
  say "context: workload=%s seed=%d seconds=%g trace=%d ocaml=%s nproc=%d profile=%s domains=%d"
    !workload !seed !seconds !trace Sys.ocaml_version
    (Domain.recommended_domain_count ()) !profile
    (match w with Grid -> grid_domains | Single _ -> 1);
  let attempted, failed =
    match w with
    | Single make ->
        let rs = run_single ~seed:!seed ~seconds:!seconds ~trace:traced ~trace_file make in
        (isum (fun t -> t.r.attempted) rs, isum (fun t -> t.r.failed) rs)
    | Grid ->
        let cells = run_grid ~seed:!seed ~seconds:!seconds ~trace:traced ~trace_file in
        (isum (fun c -> cell_ops c.idx) cells,
         isum (fun c -> if Result.is_ok (cell_ok c) then 0 else cell_ops c.idx) cells)
  in
  let failed = if !failures <> [] then max failed 1 else failed in
  say "calibration: n=%d median sample %.6f s, nominal %g s: host times scaled by %.4f"
    (List.length !calib) (Calc.median !calib) Calib.nominal (host_factor ());
  if traced then begin
    emit "host.calib_s" "s" (Calc.median !calib);
    emit "op_fail_frac" "ratio" (float_of_int failed /. float_of_int (max 1 attempted))
  end;
  let ms = List.rev !metrics in
  List.iter
    (fun m ->
      if not (Calc.valid_name m.name) then fail "metric name %S breaks the name grammar" m.name;
      say "metric %-40s %.6g %s" m.name m.value m.unit_)
    ms;
  List.iter (fun f -> say "FAIL %s" f) (List.rev !failures);
  let correct = !failures = [] in
  let num v = if Float.is_finite v then Json.Float v else Json.Null in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m -> (m.name, Json.Obj [ ("value", num m.value); ("unit", Json.Str m.unit_) ]))
                   ms) );
          ]));
  if not correct then exit 1
