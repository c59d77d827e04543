(* One function per figure of the paper's evaluation (plus the Section 5.7
   memory analysis), each printing the table its plot is drawn from.
   Scale knobs shrink the runs for smoke tests; shapes, not absolute
   numbers, are the reproduction target (see EXPERIMENTS.md).

   Every figure separates compute from render: it first enumerates its
   simulation cells in the canonical (historical, sequential) order, runs
   them through [Pool.map] — sequential by default, fanned across worker
   domains under [--domains N] — and only then builds its tables from the
   merged results on the main domain.  Output is byte-identical at any
   domain count: the pool merges in enumeration order, rendering happens
   on one domain, and each cell's telemetry is replayed in cell order. *)

module Dist = Euno_workload.Dist
module Opgen = Euno_workload.Opgen
module Config = Eunomia.Config
module Table = Euno_stats.Table

type scale = {
  key_space : int;
  ops_per_thread : int;
  max_threads : int;
  seed : int;
  charts : bool; (* also render ASCII charts after the tables *)
  snapshot_window : int option;
      (* sample machine counters every N simulated cycles (telemetry) *)
  strategy : Euno_htm.Htm.strategy option;
      (* force every run's fallback strategy (None = the trees' default
         elision policy, byte-identical to the historical runs) *)
  capacity : Euno_sim.Cost.capacity_model option;
      (* force the capacity/conflict model (None = the setup's default) *)
}

let default_scale =
  {
    key_space = 1 lsl 17;
    ops_per_thread = 2500;
    max_threads = 20;
    seed = 42;
    charts = false;
    snapshot_window = None;
    strategy = None;
    capacity = None;
  }

let quick_scale = { default_scale with key_space = 1 lsl 12; ops_per_thread = 400; max_threads = 8 }

let theta_sweep = [ 0.0; 0.2; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.99 ]

let thread_sweep scale =
  List.filter (fun t -> t <= scale.max_threads) [ 1; 2; 4; 8; 12; 16; 20 ]

let workload_of scale dist mix =
  { Runner.default_workload with Runner.dist; mix; key_space = scale.key_space }

let setup_of scale threads =
  let setup =
    {
      Runner.default_setup with
      Runner.threads = min threads scale.max_threads;
      ops_per_thread = scale.ops_per_thread;
      seed = scale.seed;
      snapshot_window = scale.snapshot_window;
    }
  in
  let setup =
    match scale.strategy with
    | None -> setup
    | Some strategy ->
        {
          setup with
          Runner.policy =
            Some { Euno_htm.Htm.default_policy with Euno_htm.Htm.strategy };
        }
  in
  match scale.capacity with
  | None -> setup
  | Some cm ->
      { setup with Runner.cost = Euno_sim.Cost.with_capacity setup.Runner.cost cm }

let run scale kind ~dist ~mix ~threads =
  Runner.run kind (workload_of scale dist mix) (setup_of scale threads)

let theta_label theta = Printf.sprintf "theta=%.2f" theta

(* Split [l] into consecutive groups of [n] (render-side regrouping of a
   flat pool result list back into a figure's rows/columns). *)
let chunk n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  if n <= 0 then invalid_arg "Figures.chunk" else go [] [] 0 l

(* Optional CSV sink: when set, every printed table is also written to
   <dir>/<slug>.csv (output formatting only; no effect on the runs). *)
(* euno-lint: allow domain-shared-state: main-domain rendering state, never touched inside a pool cell *)
let csv_dir : string option ref = ref None

let emit table =
  Table.print table;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (Table.slug table ^ ".csv") in
      let oc = open_out path in
      output_string oc (Table.to_csv table);
      close_out oc

(* ---------- Figure 1: HTM-B+Tree throughput vs contention ---------- *)

let fig1 ?domains scale =
  let rs =
    Pool.map ?domains
      (fun theta ->
        run scale Kv.Htm_bptree ~dist:(Dist.Zipfian theta)
          ~mix:Opgen.ycsb_default ~threads:16)
      theta_sweep
  in
  let t =
    Table.create ~title:"Figure 1: HTM-B+Tree throughput under contention (16 threads)"
      ~headers:[ "skew"; "Mops/s"; "aborts/op"; "wasted CPU" ]
  in
  List.iter2
    (fun theta r ->
      Table.add_row t
        [
          theta_label theta;
          Table.cell_f r.Runner.r_mops;
          Table.cell_f r.Runner.r_aborts_per_op;
          Table.cell_pct r.Runner.r_wasted_pct;
        ])
    theta_sweep rs;
  emit t

(* ---------- Figure 2: abort decomposition vs contention ---------- *)

let fig2 ?domains scale =
  let rs =
    Pool.map ?domains
      (fun theta ->
        run scale Kv.Htm_bptree ~dist:(Dist.Zipfian theta)
          ~mix:Opgen.ycsb_default ~threads:16)
      theta_sweep
  in
  let t =
    Table.create
      ~title:
        "Figure 2: HTM-B+Tree aborts by cause (aborts/op; shares of conflict aborts)"
      ~headers:
        [
          "skew";
          "aborts/op";
          "false:diff-record";
          "false:metadata";
          "true:same-record";
          "lock-subscr";
          "other";
        ]
  in
  List.iter2
    (fun theta r ->
      let conflicts =
        Runner.class_true r +. Runner.class_false_record r
        +. Runner.class_false_meta r
      in
      let share x =
        if conflicts <= 0.0 then "-"
        else Printf.sprintf "%s (%.0f%%)" (Table.cell_f x) (100.0 *. x /. conflicts)
      in
      Table.add_row t
        [
          theta_label theta;
          Table.cell_f r.Runner.r_aborts_per_op;
          share (Runner.class_false_record r);
          share (Runner.class_false_meta r);
          share (Runner.class_true r);
          Table.cell_f (Runner.class_subscription r);
          Table.cell_f (Runner.class_other r);
        ])
    theta_sweep rs;
  emit t

(* ---------- Figure 8: throughput of the four trees vs contention ----- *)

let fig8 ?domains scale =
  let t =
    Table.create
      ~title:"Figure 8: throughput under different contention rates (16 threads, Mops/s)"
      ~headers:
        ("skew" :: List.map Kv.kind_name Kv.all_kinds)
  in
  let cells =
    List.concat_map
      (fun kind -> List.map (fun theta -> (kind, theta)) theta_sweep)
      Kv.all_kinds
  in
  let rs =
    Pool.map ?domains
      (fun (kind, theta) ->
        (run scale kind ~dist:(Dist.Zipfian theta) ~mix:Opgen.ycsb_default
           ~threads:16)
          .Runner.r_mops)
      cells
  in
  let columns =
    List.map2
      (fun kind col -> (Kv.kind_name kind, col))
      Kv.all_kinds
      (chunk (List.length theta_sweep) rs)
  in
  List.iteri
    (fun i theta ->
      Table.add_row t
        (theta_label theta
        :: List.map (fun (_, col) -> Table.cell_f (List.nth col i)) columns))
    theta_sweep;
  emit t;
  if scale.charts then
    Euno_stats.Chart.print ~title:"Figure 8 (Mops/s vs skew)"
      ~x_labels:(List.map theta_label theta_sweep)
      (List.map
         (fun (label, points) -> { Euno_stats.Chart.label; points })
         columns)

(* ---------- Figure 9: aborts per op, Euno vs HTM-B+Tree ---------- *)

let fig9 ?domains scale =
  let t =
    Table.create
      ~title:"Figure 9: HTM aborts per operation by cause (16 threads)"
      ~headers:
        [
          "skew";
          "tree";
          "aborts/op";
          "false:diff-record";
          "false:metadata";
          "true:same-record";
          "lock-subscr";
          "other";
        ]
  in
  let cells =
    List.concat_map
      (fun theta ->
        List.map (fun kind -> (theta, kind)) [ Kv.Htm_bptree; Kv.Euno Config.full ])
      [ 0.5; 0.7; 0.9; 0.99 ]
  in
  let rs =
    Pool.map ?domains
      (fun (theta, kind) ->
        run scale kind ~dist:(Dist.Zipfian theta) ~mix:Opgen.ycsb_default
          ~threads:16)
      cells
  in
  List.iter2
    (fun (theta, _) r ->
      Table.add_row t
        [
          theta_label theta;
          r.Runner.r_name;
          Table.cell_f r.Runner.r_aborts_per_op;
          Table.cell_f (Runner.class_false_record r);
          Table.cell_f (Runner.class_false_meta r);
          Table.cell_f (Runner.class_true r);
          Table.cell_f (Runner.class_subscription r);
          Table.cell_f (Runner.class_other r);
        ])
    cells rs;
  emit t

(* ---------- Figure 10: scalability panels ---------- *)

let scalability_panel ?domains scale ~title ~dist ~mix =
  let t =
    Table.create ~title ~headers:("threads" :: List.map Kv.kind_name Kv.all_kinds)
  in
  let sweep = thread_sweep scale in
  let cells =
    List.concat_map
      (fun kind -> List.map (fun threads -> (kind, threads)) sweep)
      Kv.all_kinds
  in
  let rs =
    Pool.map ?domains
      (fun (kind, threads) -> (run scale kind ~dist ~mix ~threads).Runner.r_mops)
      cells
  in
  let columns =
    List.map2
      (fun kind col -> (Kv.kind_name kind, col))
      Kv.all_kinds
      (chunk (List.length sweep) rs)
  in
  List.iteri
    (fun i threads ->
      Table.add_row t
        (string_of_int threads
        :: List.map (fun (_, col) -> Table.cell_f (List.nth col i)) columns))
    sweep;
  emit t;
  if scale.charts then
    Euno_stats.Chart.print ~title:(title ^ " [chart]")
      ~x_labels:(List.map string_of_int sweep)
      (List.map
         (fun (label, points) -> { Euno_stats.Chart.label; points })
         columns)

let fig10 ?domains scale =
  List.iter
    (fun (label, theta) ->
      scalability_panel ?domains scale
        ~title:
          (Printf.sprintf "Figure 10%s: scalability, %s contention (Zipfian %.2f, Mops/s)"
             (fst label) (snd label) theta)
        ~dist:(Dist.Zipfian theta) ~mix:Opgen.ycsb_default)
    [
      (("a", "low"), 0.2);
      (("b", "modest"), 0.6);
      (("c", "high"), 0.9);
      (("d", "extremely high"), 0.99);
    ]

(* ---------- Figure 11: get/put ratios at theta = 0.9 ---------- *)

let fig11 ?domains scale =
  List.iter
    (fun (panel, get_pct) ->
      scalability_panel ?domains scale
        ~title:
          (Printf.sprintf
             "Figure 11%s: %d%% get / %d%% put, Zipfian 0.9 (Mops/s)" panel
             get_pct (100 - get_pct))
        ~dist:(Dist.Zipfian 0.9)
        ~mix:(Opgen.read_write ~get_pct))
    [ ("a", 0); ("b", 20); ("c", 50); ("d", 70) ]

(* ---------- Figure 12: input distributions ---------- *)

let fig12 ?domains scale =
  List.iter
    (fun (panel, name, dist) ->
      scalability_panel ?domains scale
        ~title:(Printf.sprintf "Figure 12%s: %s distribution (Mops/s)" panel name)
        ~dist ~mix:Opgen.ycsb_default)
    [
      ("a", "Poisson",
       Dist.Poisson_hotspot { hot_frac = 0.1; hot_mass = 0.7 });
      ("b", "Normal", Dist.Normal_hotspot { sigma_frac = 0.003 });
      (* sigma covers a few dozen leaves: the paper sets the mean over "a
         moving range of leaf nodes", i.e. a very tight cluster *)
      ("c", "Self-Similar", Dist.Self_similar 0.2);
      ("d", "Zipfian (0.9)", Dist.Zipfian 0.9);
    ]

(* ---------- Figure 13: design-choice ablation ---------- *)

let fig13 ?domains scale =
  let thetas = [ ("high", 0.9); ("extreme", 0.99); ("low", 0.2) ] in
  let ladder = Config.ablation_ladder in
  (* One cell per (theta, design): the baseline run first, then the
     ablation ladder, exactly the sequential order. *)
  let cells =
    List.concat_map
      (fun (_, theta) ->
        (theta, None)
        :: List.map (fun (_, cfg) -> (theta, Some cfg)) ladder)
      thetas
  in
  let rs =
    Pool.map ?domains
      (fun (theta, design) ->
        let kind =
          match design with None -> Kv.Htm_bptree | Some cfg -> Kv.Euno cfg
        in
        run scale kind ~dist:(Dist.Zipfian theta) ~mix:Opgen.ycsb_default
          ~threads:20)
      cells
  in
  List.iter2
    (fun (label, theta) group ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf "Figure 13 (%s contention, Zipfian %.2f, 20 threads)"
               label theta)
          ~headers:[ "design"; "Mops/s"; "relative"; "aborts/op" ]
      in
      match group with
      | base :: ladder_rs ->
          Table.add_row t
            [
              "Baseline";
              Table.cell_f base.Runner.r_mops;
              "1.00x";
              Table.cell_f base.Runner.r_aborts_per_op;
            ];
          List.iter2
            (fun (name, _) r ->
              Table.add_row t
                [
                  name;
                  Table.cell_f r.Runner.r_mops;
                  Printf.sprintf "%.2fx" (r.Runner.r_mops /. base.Runner.r_mops);
                  Table.cell_f r.Runner.r_aborts_per_op;
                ])
            ladder ladder_rs;
          emit t
      | [] -> assert false)
    thetas
    (chunk (1 + List.length ladder) rs)

(* ---------- Section 5.7: memory consumption ---------- *)

let mem_row scale ~label ~dist ~mix =
  let euno =
    run scale (Kv.Euno Config.full) ~dist ~mix ~threads:16
  in
  let base = run scale Kv.Htm_bptree ~dist ~mix ~threads:16 in
  let b = float_of_int base.Runner.r_mem_live_bytes in
  let e = float_of_int euno.Runner.r_mem_live_bytes in
  [
    label;
    Printf.sprintf "%.2f" (e /. 1048576.0);
    Printf.sprintf "%.2f" (b /. 1048576.0);
    Table.cell_pct (100.0 *. (e -. b) /. b);
    Printf.sprintf "%.1f" (float_of_int euno.Runner.r_mem_reserved_peak_bytes /. 1024.0);
    Table.cell_pct
      (100.0 *. float_of_int euno.Runner.r_mem_reserved_peak_bytes /. e);
    Table.cell_pct (100.0 *. float_of_int euno.Runner.r_mem_lock_bytes /. e);
  ]

let mem ?domains scale =
  let t =
    Table.create
      ~title:
        "Section 5.7: memory consumption (Euno vs HTM-B+Tree; reserved keys are transient)"
      ~headers:
        [
          "workload";
          "euno MB";
          "base MB";
          "total ovh";
          "reserved peak KB";
          "reserved ovh";
          "CCM+locks ovh";
        ]
  in
  (* One cell per table row (= two runs, Euno first, base second). *)
  let cells =
    List.map
      (fun theta ->
        ( Printf.sprintf "zipf %.1f 50/50" theta,
          Dist.Zipfian theta,
          Opgen.ycsb_default ))
      [ 0.0; 0.5; 0.9 ]
    @ List.map
        (fun get_pct ->
          ( Printf.sprintf "zipf 0.9 %d/%d" get_pct (100 - get_pct),
            Dist.Zipfian 0.9,
            Opgen.read_write ~get_pct ))
        [ 20; 80 ]
    @ List.map
        (fun (name, dist) -> (name, dist, Opgen.ycsb_default))
        [
          ("self-similar", Dist.Self_similar 0.2);
          ("poisson", Dist.Poisson_hotspot { hot_frac = 0.1; hot_mass = 0.7 });
          ("uniform", Dist.Uniform);
        ]
  in
  let rows =
    Pool.map ?domains
      (fun (label, dist, mix) -> mem_row scale ~label ~dist ~mix)
      cells
  in
  List.iter (Table.add_row t) rows;
  emit t

(* ---------- extensions beyond the paper ---------- *)

(* Per-operation latency percentiles: a dimension the paper does not
   report, but the natural companion to its throughput story — the
   monolithic tree's collapse shows up as a two-order-of-magnitude p99
   blow-up while Eunomia's tail stays flat. *)
let latency ?domains scale =
  let t =
    Table.create
      ~title:"Extension: per-op latency (simulated cycles; 16 threads)"
      ~headers:[ "workload"; "tree"; "p50"; "p99"; "Mops/s" ]
  in
  let cells =
    List.concat_map
      (fun theta -> List.map (fun kind -> (theta, kind)) Kv.all_kinds)
      [ 0.2; 0.9 ]
  in
  let rs =
    Pool.map ?domains
      (fun (theta, kind) ->
        run scale kind ~dist:(Dist.Zipfian theta) ~mix:Opgen.ycsb_default
          ~threads:16)
      cells
  in
  List.iter2
    (fun (theta, _) r ->
      Table.add_row t
        [
          theta_label theta;
          r.Runner.r_name;
          Table.cell_i r.Runner.r_lat_p50;
          Table.cell_i r.Runner.r_lat_p99;
          Table.cell_f r.Runner.r_mops;
        ])
    cells rs;
  emit t

(* Retry-policy ablation: the collapse mechanism.  The paper-era policy
   (small conflict budget, naive retry against a held fallback lock)
   suffers the lemming effect; the post-fix "polite" policy (wait for the
   lock outside the transaction) resists it on the same tree. *)
let policy ?domains scale =
  let t =
    Table.create
      ~title:
        "Extension: HTM-B+Tree under DBX-era vs post-lemming-fix retry policy (16 threads)"
      ~headers:
        [
          "skew"; "policy"; "Mops/s"; "aborts/op"; "fallbacks/op"; "wasted";
          "convoys/op"; "starv/op";
        ]
  in
  let cells =
    List.concat_map
      (fun theta ->
        List.map
          (fun (name, p) -> (theta, name, p))
          [
            ("dbx-era", Euno_htm.Htm.default_policy);
            ("polite", Euno_htm.Htm.polite_policy);
          ])
      [ 0.2; 0.9; 0.99 ]
  in
  let rs =
    Pool.map ?domains
      (fun (theta, _, p) ->
        let workload = workload_of scale (Dist.Zipfian theta) Opgen.ycsb_default in
        let setup = { (setup_of scale 16) with Runner.policy = Some p } in
        Runner.run Kv.Htm_bptree workload setup)
      cells
  in
  List.iter2
    (fun (theta, name, _) r ->
      Table.add_row t
        [
          theta_label theta;
          name;
          Table.cell_f r.Runner.r_mops;
          Table.cell_f r.Runner.r_aborts_per_op;
          Table.cell_f r.Runner.r_fallbacks_per_op;
          Table.cell_pct r.Runner.r_wasted_pct;
          Table.cell_f r.Runner.r_convoy_events_per_op;
          Table.cell_f r.Runner.r_starvation_backoffs_per_op;
        ])
    cells rs;
  emit t

(* YCSB core workloads A-F across the four trees: the harness exercising
   its full op vocabulary (reads, updates, scans, read-modify-writes,
   recency-skewed inserts). *)
let ycsb ?domains scale =
  let t =
    Table.create
      ~title:"Extension: YCSB core workloads A-F (zipfian 0.9 unless noted; 16 threads, Mops/s)"
      ~headers:("workload" :: List.map Kv.kind_name Kv.all_kinds)
  in
  let presets =
    [
      ("A 50/50 update", Dist.Zipfian 0.9, Opgen.ycsb_a);
      ("B 95/5 read-mostly", Dist.Zipfian 0.9, Opgen.ycsb_b);
      ("C read-only", Dist.Zipfian 0.9, Opgen.ycsb_c);
      ("D read-latest", Dist.Latest 0.9, Opgen.ycsb_d);
      ("E scan-heavy", Dist.Zipfian 0.9, Opgen.ycsb_e);
      ("F read-modify-write", Dist.Zipfian 0.9, Opgen.ycsb_f);
    ]
  in
  let cells =
    List.concat_map
      (fun (name, dist, mix) ->
        List.map (fun kind -> (name, dist, mix, kind)) Kv.all_kinds)
      presets
  in
  let rs =
    Pool.map ?domains
      (fun (_, dist, mix, kind) ->
        Table.cell_f (run scale kind ~dist ~mix ~threads:16).Runner.r_mops)
      cells
  in
  List.iter2
    (fun (name, _, _) row -> Table.add_row t (name :: row))
    presets
    (chunk (List.length Kv.all_kinds) rs);
  emit t

(* Design-choice ablation the paper does not show: how many segments
   should a leaf have?  One segment is the conventional layout; more
   segments scatter contended keys across more cache lines but cost more
   search probes. *)
let segments ?domains scale =
  let t =
    Table.create
      ~title:"Extension: Euno-B+Tree segments-per-leaf ablation (16 threads, Mops/s)"
      ~headers:[ "layout"; "low (zipf 0.2)"; "high (zipf 0.9)" ]
  in
  let layouts = [ (1, 15); (3, 5); (5, 3); (7, 2) ] in
  let cells =
    List.concat_map
      (fun (nsegs, seg_slots) ->
        List.map (fun theta -> (nsegs, seg_slots, theta)) [ 0.2; 0.9 ])
      layouts
  in
  let rs =
    Pool.map ?domains
      (fun (nsegs, seg_slots, theta) ->
        let cfg =
          Config.validate { Config.full with Config.nsegs; seg_slots }
        in
        Table.cell_f
          (run scale (Kv.Euno cfg) ~dist:(Dist.Zipfian theta)
             ~mix:Opgen.ycsb_default ~threads:16)
            .Runner.r_mops)
      cells
  in
  List.iter2
    (fun (nsegs, seg_slots) row ->
      Table.add_row t
        (Printf.sprintf "%d segs x %d slots" nsegs seg_slots :: row))
    layouts (chunk 2 rs);
  emit t

(* What lock elision buys: the same conventional tree under a plain
   global spinlock (flat), under the elided lock (scales until the storm),
   and the Euno-B+Tree. *)
let coarse ?domains scale =
  let t =
    Table.create
      ~title:"Extension: coarse lock vs lock elision vs Eunomia (zipf 0.2, Mops/s)"
      ~headers:[ "threads"; "Lock-B+Tree"; "HTM-B+Tree"; "Euno-B+Tree" ]
  in
  let kinds = [ Kv.Lock_bptree; Kv.Htm_bptree; Kv.Euno Config.full ] in
  let sweep = thread_sweep scale in
  let cells =
    List.concat_map
      (fun threads -> List.map (fun kind -> (threads, kind)) kinds)
      sweep
  in
  let rs =
    Pool.map ?domains
      (fun (threads, kind) ->
        Table.cell_f
          (run scale kind ~dist:(Dist.Zipfian 0.2) ~mix:Opgen.ycsb_default
             ~threads)
            .Runner.r_mops)
      cells
  in
  List.iter2
    (fun threads row -> Table.add_row t (string_of_int threads :: row))
    sweep
    (chunk (List.length kinds) rs);
  emit t

(* Schedule sensitivity: every run is deterministic per seed, so variance
   across seeds is the simulator's analogue of run-to-run noise. *)
let variance ?domains scale =
  let t =
    Table.create
      ~title:"Extension: throughput variation over 5 seeds (16 threads, Mops/s)"
      ~headers:[ "workload"; "tree"; "mean"; "stddev"; "min"; "max" ]
  in
  let cells =
    List.concat_map
      (fun theta ->
        List.map
          (fun kind -> (theta, kind))
          [ Kv.Euno Config.full; Kv.Htm_bptree ])
      [ 0.2; 0.9 ]
  in
  let rs =
    Pool.map ?domains
      (fun (theta, kind) ->
        Runner.run_many ~seeds:5 kind
          (workload_of scale (Dist.Zipfian theta) Opgen.ycsb_default)
          (setup_of scale 16))
      cells
  in
  List.iter2
    (fun (theta, kind) a ->
      Table.add_row t
        [
          theta_label theta;
          Kv.kind_name kind;
          Table.cell_f a.Runner.a_mean_mops;
          Table.cell_f a.Runner.a_stddev_mops;
          Table.cell_f a.Runner.a_min_mops;
          Table.cell_f a.Runner.a_max_mops;
        ])
    cells rs;
  emit t

(* Does key adjacency matter?  The paper's false-sharing analysis assumes
   hot keys are consecutive; YCSB's scrambled variant hashes them apart.
   Comparing both isolates how much of the baseline's collapse is
   same-line sharing between *different* hot records. *)
let adjacency ?domains scale =
  let t =
    Table.create
      ~title:
        "Extension: adjacent vs scrambled hot keys (zipf 0.9, 16 threads)"
      ~headers:[ "tree"; "keys"; "Mops/s"; "aborts/op"; "false:diff-record" ]
  in
  let cells =
    List.concat_map
      (fun kind ->
        List.map
          (fun (label, scrambled) -> (kind, label, scrambled))
          [ ("adjacent", false); ("scrambled", true) ])
      [ Kv.Htm_bptree; Kv.Euno Config.full ]
  in
  let rs =
    Pool.map ?domains
      (fun (kind, _, scrambled) ->
        let workload =
          {
            (workload_of scale (Dist.Zipfian 0.9) Opgen.ycsb_default) with
            Runner.scrambled;
          }
        in
        Runner.run kind workload (setup_of scale 16))
      cells
  in
  List.iter2
    (fun (_, label, _) r ->
      Table.add_row t
        [
          r.Runner.r_name;
          label;
          Table.cell_f r.Runner.r_mops;
          Table.cell_f r.Runner.r_aborts_per_op;
          Table.cell_f (Runner.class_false_record r);
        ])
    cells rs;
  emit t

(* Replicate the paper's own Figure 2 estimation methodology — modify the
   workload so no two threads ever touch the same record (interleaved
   partitions keep hot keys adjacent) — and cross-validate it against the
   simulator's exact attribution. *)
let methodology ?domains scale =
  let t =
    Table.create
      ~title:
        "Extension: paper's Fig.2 methodology (partitioned keys) vs exact attribution (16 threads)"
      ~headers:
        [ "skew"; "keys"; "Mops/s"; "aborts/op"; "true:same-record" ]
  in
  let cells =
    List.concat_map
      (fun theta ->
        List.map
          (fun (label, partitioned) -> (theta, label, partitioned))
          [ ("shared", false); ("partitioned", true) ])
      [ 0.8; 0.9; 0.99 ]
  in
  let rs =
    Pool.map ?domains
      (fun (theta, _, partitioned) ->
        let workload =
          {
            (workload_of scale (Dist.Zipfian theta) Opgen.ycsb_default) with
            Runner.partitioned;
          }
        in
        Runner.run Kv.Htm_bptree workload (setup_of scale 16))
      cells
  in
  List.iter2
    (fun (theta, label, _) r ->
      Table.add_row t
        [
          theta_label theta;
          label;
          Table.cell_f r.Runner.r_mops;
          Table.cell_f r.Runner.r_aborts_per_op;
          Table.cell_f (Runner.class_true r);
        ])
    cells rs;
  emit t

(* ---------- strategy-sweep: {strategy} x {capacity} campaign ---------- *)

(* The Figure 1/8/10 cells re-run as the full {elision, three-path,
   lockfree} x {nominal, limited-read, coarse-grain} matrix.  The tables
   come out as GitHub markdown (they are comparison artifacts for
   EXPERIMENTS.md, not paper-figure reproductions) and every cell also
   lands in [sweep_acc] as a schema-validated "sweep" record, which
   euno_repro flushes into the --json document. *)

(* euno-lint: allow domain-shared-state: main-domain accumulator; cells return results, main appends in canonical order *)
let sweep_acc : Schema.Json.t list ref = ref []
let sweep_records () = List.rev !sweep_acc

(* One record per campaign cell: the figure cell (figure, tree, theta,
   threads) crossed with the {strategy} x {capacity model} matrix,
   flattened to the metrics the per-figure comparison tables and
   EXPERIMENTS.md's collapse-shape analysis read. *)
let sweep_record =
  let result names = Schema.(on (fun (_, _, r) -> r) (select names Runner.fields)) in
  Schema.(
    kind ~record:"sweep"
      ((F ("figure", Str, fun (figure, _, _) -> figure)
       :: result [ "tree"; "strategy"; "capacity_model"; "threads" ])
      @ F ("theta", Float, fun (_, theta, _) -> theta)
        :: result
             [
               "ops"; "mops"; "aborts_per_op"; "commits_per_op"; "wasted_pct";
               "fallbacks_per_op"; "lock_wait_pct"; "fast_path_wins_per_op";
               "middle_path_wins_per_op"; "software_path_wins_per_op";
               "helped_ops_per_op";
             ]))

let sweep_combos =
  List.concat_map
    (fun s -> List.map (fun (_, cm) -> (s, cm)) Euno_sim.Cost.capacity_models)
    Euno_htm.Htm.all_strategies

let combo_label (s, cm) =
  Printf.sprintf "%s/%s" (Euno_htm.Htm.strategy_name s) cm.Euno_sim.Cost.cm_name

(* Reduced cell sets: enough thetas/threads for the collapse shape to
   move, small enough that 9 combos per cell stay tractable. *)
let sweep_fig1_thetas = [ 0.0; 0.6; 0.9; 0.99 ]
let sweep_fig8_thetas = [ 0.2; 0.9 ]
let sweep_fig10_thetas = [ 0.2; 0.9 ]
let sweep_fig10_kinds = [ Kv.Htm_bptree; Kv.Euno Config.full ]
let sweep_fig10_threads scale =
  List.filter (fun t -> t <= scale.max_threads) [ 1; 4; 16 ]

let markdown_table ~title ~headers rows =
  Printf.printf "\n### %s\n\n" title;
  Printf.printf "| %s |\n" (String.concat " | " headers);
  Printf.printf "|%s|\n" (String.concat "|" (List.map (fun _ -> " --- ") headers));
  List.iter
    (fun row -> Printf.printf "| %s |\n" (String.concat " | " row))
    rows

let strategy_sweep ?domains scale =
  sweep_acc := [];
  let headers = "cell" :: List.map combo_label sweep_combos in
  let mops rs = List.map (fun r -> Table.cell_f r.Runner.r_mops) rs in
  (* One pool cell per (figure row, combo) run; the main domain appends
     each cell's "sweep" record in enumeration order after the batch, so
     record order — like the tables — is byte-identical to the
     sequential campaign. *)
  let batch cells =
    let rs =
      Pool.map ?domains
        (fun (_, kind, theta, threads, (s, cm)) ->
          let scale = { scale with strategy = Some s; capacity = Some cm } in
          run scale kind ~dist:(Dist.Zipfian theta) ~mix:Opgen.ycsb_default
            ~threads)
        cells
    in
    List.iter2
      (fun (figure, _, theta, _, _) r ->
        sweep_acc := Schema.encode sweep_record (figure, theta, r) :: !sweep_acc)
      cells rs;
    chunk (List.length sweep_combos) rs
  in
  let rows_of labels groups = List.map2 (fun l g -> (l, g)) labels groups in
  (* Figure 1 cells: the HTM-B+Tree contention storm at 16 threads.  Two
     tables, because the strategies differ most in *how* they spend the
     storm: throughput, then fallback entries per op. *)
  let fig1_rows =
    rows_of
      (List.map theta_label sweep_fig1_thetas)
      (batch
         (List.concat_map
            (fun theta ->
              List.map
                (fun combo -> ("fig1", Kv.Htm_bptree, theta, 16, combo))
                sweep_combos)
            sweep_fig1_thetas))
  in
  markdown_table
    ~title:"Strategy sweep, Figure 1 cells: HTM-B+Tree Mops/s (16 threads)"
    ~headers
    (List.map (fun (label, rs) -> label :: mops rs) fig1_rows);
  markdown_table
    ~title:"Strategy sweep, Figure 1 cells: fallbacks/op (16 threads)"
    ~headers
    (List.map
       (fun (label, rs) ->
         label
         :: List.map (fun r -> Table.cell_f r.Runner.r_fallbacks_per_op) rs)
       fig1_rows);
  (* Figure 8 cells: all four trees at low and high contention. *)
  let fig8_labels =
    List.concat_map
      (fun kind ->
        List.map
          (fun theta ->
            Printf.sprintf "%s %s" (Kv.kind_name kind) (theta_label theta))
          sweep_fig8_thetas)
      Kv.all_kinds
  in
  let fig8_rows =
    rows_of fig8_labels
      (batch
         (List.concat_map
            (fun kind ->
              List.concat_map
                (fun theta ->
                  List.map
                    (fun combo -> ("fig8", kind, theta, 16, combo))
                    sweep_combos)
                sweep_fig8_thetas)
            Kv.all_kinds))
  in
  markdown_table
    ~title:"Strategy sweep, Figure 8 cells: Mops/s (16 threads)" ~headers
    (List.map (fun (label, rs) -> label :: mops rs) fig8_rows);
  (* Figure 10 cells: scalability of the two B+Trees whose fallback
     discipline the strategies actually change. *)
  let fig10_labels =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun theta ->
            List.map
              (fun threads ->
                Printf.sprintf "%s %s t=%d" (Kv.kind_name kind)
                  (theta_label theta) threads)
              (sweep_fig10_threads scale))
          sweep_fig10_thetas)
      sweep_fig10_kinds
  in
  let fig10_rows =
    rows_of fig10_labels
      (batch
         (List.concat_map
            (fun kind ->
              List.concat_map
                (fun theta ->
                  List.map
                    (fun threads ->
                      List.map
                        (fun combo -> ("fig10", kind, theta, threads, combo))
                        sweep_combos)
                    (sweep_fig10_threads scale)
                  |> List.concat)
                sweep_fig10_thetas)
            sweep_fig10_kinds))
  in
  markdown_table ~title:"Strategy sweep, Figure 10 cells: Mops/s" ~headers
    (List.map (fun (label, rs) -> label :: mops rs) fig10_rows)

(* ---------- everything ---------- *)

let all ?domains scale =
  fig1 ?domains scale;
  print_newline ();
  fig2 ?domains scale;
  print_newline ();
  fig8 ?domains scale;
  print_newline ();
  fig9 ?domains scale;
  print_newline ();
  fig10 ?domains scale;
  print_newline ();
  fig11 ?domains scale;
  print_newline ();
  fig12 ?domains scale;
  print_newline ();
  fig13 ?domains scale;
  print_newline ();
  mem ?domains scale;
  print_newline ();
  latency ?domains scale;
  print_newline ();
  policy ?domains scale;
  print_newline ();
  ycsb ?domains scale;
  print_newline ();
  segments ?domains scale;
  print_newline ();
  coarse ?domains scale;
  print_newline ();
  variance ?domains scale;
  print_newline ();
  adjacency ?domains scale;
  print_newline ();
  methodology ?domains scale

let by_name : (string * (?domains:int -> scale -> unit)) list =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("mem", mem);
    ("latency", latency);
    ("policy", policy);
    ("ycsb", ycsb);
    ("segments", segments);
    ("coarse", coarse);
    ("variance", variance);
    ("adjacency", adjacency);
    ("methodology", methodology);
    ("strategy-sweep", strategy_sweep);
    ("all", all);
  ]
