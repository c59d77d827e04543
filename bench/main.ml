(* Benchmark entry point, in two parts:

   1. Bechamel micro-benchmarks of the building blocks (host-side cost of
      the simulator and of each substrate's hot path), one Test.make per
      component, printed as a table.
   2. The full paper reproduction: every figure of the evaluation section
      and the Section 5.7 memory analysis, printed as tables
      (Euno_harness.Figures), with every run's "result" record written to
      --json (default BENCH_results.json).

     dune exec bench/main.exe             # micro + all figures (~20 min)
     dune exec bench/main.exe -- --quick  # smoke-test scale
     dune exec bench/main.exe -- --micro-only
     dune exec bench/main.exe -- --figures-only [--domains N] [--json FILE]

   Nothing here gates performance: the perf gate is
   scripts/check_perf_counts.py over the perfbench/ workloads.
*)

open Bechamel
open Toolkit
module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module Alloc = Euno_mem.Alloc
module Machine = Euno_sim.Machine
module Api = Euno_sim.Api
module Rng = Euno_sim.Rng
module Dist = Euno_workload.Dist
module Htm = Euno_htm.Htm
module Ccm = Euno_ccm.Ccm
module Bptree = Euno_bptree.Bptree
module Euno = Eunomia.Euno_tree
module Masstree = Euno_masstree.Masstree

(* ---------- worlds reused across micro-benchmark iterations ---------- *)

type world = { mem : Memory.t; map : Linemap.t; alloc : Alloc.t }

let fresh_world () =
  let mem = Memory.create () in
  let map = Linemap.create () in
  let alloc = Alloc.create mem map in
  { mem; map; alloc }

let on_machine w f =
  Machine.run_single ~mem:w.mem ~map:w.map ~alloc:w.alloc f

(* Batched tree-operation benchmark: host nanoseconds per 100 simulated
   operations (one machine instantiation amortized across the batch). *)
let tree_op_bench name ~build ~op =
  let w = fresh_world () in
  let tree = on_machine w (fun () -> build w) in
  let counter = ref 0 in
  Test.make ~name:(name ^ " x100")
    (Staged.stage (fun () ->
         on_machine w (fun () ->
             for _ = 1 to 100 do
               incr counter;
               op tree !counter
             done)))

let micro_tests () =
  let simple name f = Test.make ~name (Staged.stage f) in
  [
    (* raw simulator effect dispatch: one thread that is always the
       scheduler's minimum, so every call is interpreted in place *)
    (let w = fresh_world () in
     let addr = Alloc.alloc w.alloc ~kind:Linemap.Scratch ~words:8 in
     simple "sim: 100 read/write effects" (fun () ->
         on_machine w (fun () ->
             for i = 0 to 49 do
               Api.write addr i;
               ignore (Api.read addr)
             done)));
    (* the same 100 effects split over two threads at unit cost: each
       effect leaves its thread behind the other, so every call yields
       and the threads alternate through the scheduler *)
    (let w = fresh_world () in
     let addr = Alloc.alloc w.alloc ~kind:Linemap.Scratch ~words:8 in
     simple "sim: 100 read/write effects, 2 threads" (fun () ->
         let m =
           Machine.create ~threads:2 ~seed:1 ~cost:Euno_sim.Cost.unit_costs
             ~mem:w.mem ~map:w.map ~alloc:w.alloc
         in
         Machine.run m (fun _ ->
             for i = 0 to 24 do
               Api.write addr i;
               ignore (Api.read addr)
             done)));
    (* 100 effects over 16 threads at unit cost: each call leaves its
       thread behind the parked ones, so every call but the very last
       yields and a scheduler turn sifts a heap of up to 15 entries.  The
       machine is built once ([run] resets its threads), so the probe
       times scheduler turns, not 16 threads' worth of construction. *)
    (let w = fresh_world () in
     let addr = Alloc.alloc w.alloc ~kind:Linemap.Scratch ~words:8 in
     let m =
       Machine.create ~threads:16 ~seed:1 ~cost:Euno_sim.Cost.unit_costs
         ~mem:w.mem ~map:w.map ~alloc:w.alloc
     in
     simple "sim: 100 effects, 16 threads, every call yields" (fun () ->
         Machine.run m (fun tid ->
             (* threads 0-3 take 7 effects, the rest 6: 100 in all *)
             for i = 1 to if tid < 4 then 7 else 6 do
               if i land 1 = 0 then Api.write addr i else ignore (Api.read addr)
             done)));
    (let w = fresh_world () in
     let lock = on_machine w (fun () -> Htm.alloc_lock ()) in
     let addr = Alloc.alloc w.alloc ~kind:Linemap.Scratch ~words:8 in
     simple "htm: one-write elided txn x100" (fun () ->
         on_machine w (fun () ->
             for _ = 1 to 100 do
               Htm.atomic ~lock (fun () -> Api.write addr 1)
             done)));
    (let rng = Rng.create 1 in
     simple "rng: splitmix64 draw" (fun () -> ignore (Rng.next rng)));
    (let d = Dist.create (Dist.Zipfian 0.99) ~n:1_000_000 ~seed:3 in
     simple "workload: zipfian(0.99) sample" (fun () -> ignore (Dist.next d)));
    (let d = Dist.create (Dist.Self_similar 0.2) ~n:1_000_000 ~seed:4 in
     simple "workload: self-similar sample" (fun () -> ignore (Dist.next d)));
    tree_op_bench "bptree: sequential put"
      ~build:(fun w -> Bptree.create ~fanout:16 ~map:w.map ())
      ~op:(fun t i -> Bptree.put t (i * 7919 mod 100_000) i);
    tree_op_bench "bptree: sequential get"
      ~build:(fun w ->
        let t = Bptree.create ~fanout:16 ~map:w.map () in
        for k = 0 to 9_999 do
          Bptree.put t k k
        done;
        t)
      ~op:(fun t i -> ignore (Bptree.get t (i mod 10_000)));
    tree_op_bench "euno: sequential put"
      ~build:(fun w -> Euno.create ~cfg:Eunomia.Config.default ~map:w.map ())
      ~op:(fun t i -> Euno.put t (i * 7919 mod 100_000) i);
    tree_op_bench "euno: sequential get"
      ~build:(fun w ->
        let t = Euno.create ~cfg:Eunomia.Config.default ~map:w.map () in
        for k = 0 to 9_999 do
          Euno.put t k k
        done;
        t)
      ~op:(fun t i -> ignore (Euno.get t (i mod 10_000)));
    tree_op_bench "masstree: sequential get"
      ~build:(fun w ->
        let t = Masstree.create ~fanout:16 ~map:w.map () in
        for k = 0 to 9_999 do
          Masstree.put t k k
        done;
        t)
      ~op:(fun t i -> ignore (Masstree.get t (i mod 10_000)));
    (let w = fresh_world () in
     let c =
       on_machine w (fun () ->
           let base = Alloc.alloc w.alloc ~kind:Linemap.Lock ~words:8 in
           Ccm.make ~base ~mode_addr:(base + 7) ~capacity:15)
     in
     simple "ccm: lock+mark+unlock slot x100" (fun () ->
         on_machine w (fun () ->
             for _ = 1 to 100 do
               let slot = Ccm.hash c 12345 in
               Ccm.lock_slot c slot;
               ignore (Ccm.marked c slot);
               Ccm.unlock_slot c slot
             done)));
  ]

(* Runs every micro-benchmark and prints its host ns/call estimate. *)
let run_micro () =
  print_endline "== Micro-benchmarks (host ns per simulated call) ==";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:true
             ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-36s %10.0f ns/call\n%!" name est
          | Some _ | None -> Printf.printf "  %-36s (no estimate)\n%!" name)
        ols)
    (micro_tests ());
  print_newline ()

(* ---------- figure reproduction ---------- *)

let run_figures ?domains scale =
  print_endline "== Paper reproduction: every figure of the evaluation ==";
  Printf.printf
    "(key space %d, %d ops/thread, up to %d simulated threads, seed %d)\n\n%!"
    scale.Euno_harness.Figures.key_space
    scale.Euno_harness.Figures.ops_per_thread
    scale.Euno_harness.Figures.max_threads scale.Euno_harness.Figures.seed;
  Euno_harness.Figures.all ?domains scale

(* ---------- command line ---------- *)

type opts = {
  quick : bool;
  micro_only : bool;
  figures_only : bool;
  json : string;
  domains : int option;
}

(* A bad argument is one line on stderr and exit 2, before any benchmark
   starts: a typo such as --quik must not silently start the full-scale
   run, nor a valueless --json or --domains fall back to its default. *)
let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench: " ^ m);
      exit 2)
    fmt

let is_value v = not (String.starts_with ~prefix:"--" v)

let rec parse o = function
  | [] -> o
  | "--quick" :: rest -> parse { o with quick = true } rest
  | "--micro-only" :: rest -> parse { o with micro_only = true } rest
  | "--figures-only" :: rest -> parse { o with figures_only = true } rest
  | "--json" :: path :: rest when is_value path -> parse { o with json = path } rest
  | "--domains" :: d :: rest when is_value d -> (
      match int_of_string_opt d with
      | Some d when d >= 1 -> parse { o with domains = Some d } rest
      | _ -> usage_error "--domains must be a positive integer")
  | (("--json" | "--domains") as flag) :: _ -> usage_error "%s needs a value" flag
  | arg :: _ -> usage_error "unknown argument '%s'" arg

module Report = Euno_harness.Report
module Schema = Euno_harness.Schema

let () =
  let o =
    parse
      {
        quick = false;
        micro_only = false;
        figures_only = false;
        json = "BENCH_results.json";
        domains = None;
      }
      (List.tl (Array.to_list Sys.argv))
  in
  (* Surface a malformed EUNO_DOMAINS as a usage error up front, not an
     uncaught exception from inside the figures phase. *)
  (if Option.is_none o.domains then
     match Euno_harness.Pool.default_domains () with
     | _ -> ()
     | exception Invalid_argument msg -> usage_error "%s" msg);
  if not o.figures_only then run_micro ();
  if not o.micro_only then begin
    let scale =
      if o.quick then Euno_harness.Figures.quick_scale
      else Euno_harness.Figures.default_scale
    in
    (* --domains parallelizes the deterministic figures phase only; the
       micro-benchmarks always run sequentially on the main domain. *)
    Report.start_collecting ();
    run_figures ?domains:o.domains scale;
    let records =
      List.mapi
        (fun i r -> Report.result_to_json ~run:i r)
        (Report.collected ())
    in
    Report.stop_collecting ();
    Schema.write_file o.json (Schema.document ~experiment:"bench" records);
    Printf.printf "wrote %s (%d records, schema v%d)\n%!" o.json
      (List.length records) Schema.schema_version
  end
