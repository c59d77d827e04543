(* Command-line entry point: regenerate any figure of the paper, or run
   one of the campaigns (chaos, crash, san, check).

     euno_repro fig8                    # paper-scale defaults
     euno_repro fig10 --quick          # smoke-test scale
     euno_repro all --keys 15 --ops 5000 --threads 20 --seed 7
     euno_repro san --quick --json san.json      # exit 1 on any finding
     euno_repro check --mutations                # exit 1 if a bug hides
     euno_repro check --repro 'tree=...'         # exit 0 iff it reproduces
*)

let () = Printexc.record_backtrace true

open Cmdliner
module Figures = Euno_harness.Figures
module Report = Euno_harness.Report
module Schema = Euno_harness.Schema
module Chaos = Euno_harness.Chaos
module Dura_run = Euno_harness.Dura_run
module San_run = Euno_harness.San_run
module Check_run = Euno_harness.Check_run
module History = Euno_harness.History
module Htm = Euno_htm.Htm
module Cost = Euno_sim.Cost

(* Campaigns: not figures, each handled by its own driver below. *)
let campaigns = [ "chaos"; "san"; "check"; "crash" ]

let experiment =
  let names = List.map fst Figures.by_name @ campaigns in
  let doc =
    Printf.sprintf "Experiment to run: one of %s." (String.concat ", " names)
  in
  Arg.(
    required
    & pos 0 (some (enum (List.map (fun n -> (n, n)) names))) None
    & info [] ~docv:"EXPERIMENT" ~doc)

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Small smoke-test scale.")

let min_keys_log2 = 5
let max_keys_log2 = 22

let keys_log2 =
  Arg.(
    value
    & opt (some int) None
    & info [ "keys" ] ~docv:"LOG2"
        ~doc:
          (Printf.sprintf
             "Key-space size as a power of two, from %d (room for the 20-thread \
              cap) to %d (4Mi keys: the preloaded tree then needs about 1 GB \
              of host memory).  Default: the experiment's own (2^17 keys for \
              the figures)."
             min_keys_log2 max_keys_log2))

let ops =
  Arg.(
    value
    & opt (some int) None
    & info [ "ops" ] ~docv:"N" ~doc:"Operations per simulated thread (at least 1).")

let max_threads =
  Arg.(
    value
    & opt (some int) None
    & info [ "threads" ] ~docv:"N"
        ~doc:"Cap on simulated thread counts (at least 1, max 20).")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let charts =
  Arg.(
    value & flag
    & info [ "charts" ] ~doc:"Render ASCII charts after the tables.")

let csv =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR"
        ~doc:"Also write every table to DIR/<name>.csv.")

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:
          "Write every run's result (a campaign's records) as a \
           schema-versioned JSON document to $(docv).")

let snapshots =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshots" ] ~docv:"PATH"
        ~doc:
          "Write windowed counter time series (one JSON object per sampling \
           window per run) to $(docv) as JSONL.  Implies periodic sampling; \
           see $(b,--window).")

let window =
  Arg.(
    value
    & opt (some int) None
    & info [ "window" ] ~docv:"CYCLES"
        ~doc:
          "Counter sampling window in simulated cycles (default 2000 when \
           $(b,--snapshots) or $(b,--json) is given).")

let strategy =
  let strat_conv =
    Arg.enum (List.map (fun s -> (Htm.strategy_name s, s)) Htm.all_strategies)
  in
  let doc =
    Printf.sprintf
      "HTM fallback strategy for every run: one of %s.  Default: the trees' \
       own elision policy.  For $(b,san) and $(b,check) this restricts the \
       sweep to the named strategy instead of covering all of them \
       ($(b,check --mutations) hunts each bug under its own strategy)."
      (String.concat ", " Htm.strategy_names)
  in
  Arg.(value & opt (some strat_conv) None & info [ "strategy" ] ~docv:"STRATEGY" ~doc)

let capacity =
  let models = List.map (fun (n, m) -> (n, [ m ])) Cost.capacity_models in
  let models = Arg.enum (models @ [ ("all", List.map snd Cost.capacity_models) ]) in
  let doc =
    Printf.sprintf
      "Capacity/conflict model of the simulated RTM: one of %s (default \
       nominal).  For $(b,san) this restricts the sweep to the named model, \
       and $(b,all) sweeps every model."
      (String.concat ", " Cost.capacity_model_names)
  in
  Arg.(value & opt (some models) None & info [ "capacity" ] ~docv:"MODEL" ~doc)

let domains =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Fan independent campaign cells across $(docv) worker domains.  \
           Output is byte-identical to the sequential run at any value.  \
           Default: the EUNO_DOMAINS environment variable, else 1 \
           (sequential).")

let mutations =
  Arg.(
    value & flag
    & info [ "mutations" ]
        ~doc:
          "For $(b,crash): validate the recovery checker against the three \
           seeded recovery mutants instead of running the tree campaign; \
           non-zero exit unless every mutant is caught with the expected \
           finding kind and the unmutated system is clean on the same cell.  \
           For $(b,check): hunt the seeded Testonly bugs instead of sweeping \
           the clean trees; non-zero exit if one survives undetected.")

let budget =
  Arg.(
    value & opt int 64
    & info [ "budget" ] ~docv:"N"
        ~doc:"(policy, seed) schedules per $(b,check --mutations) hunt.")

let repro =
  Arg.(
    value
    & opt (some string) None
    & info [ "repro" ] ~docv:"DESCRIPTOR"
        ~doc:
          "For $(b,check): replay one counterexample descriptor (as printed \
           after a violation) and exit 0 iff it reproduces.")

let usage fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("euno_repro: " ^ m);
      exit 2)
    fmt

(* --keys, --ops and --threads, checked once for every experiment and
   resolved against each experiment's own (key space, ops per thread,
   threads) defaults. *)
let sizes keys_log2 ops threads =
  Option.iter
    (fun k ->
      if k < min_keys_log2 || k > max_keys_log2 then
        usage "--keys must be between %d and %d" min_keys_log2 max_keys_log2)
    keys_log2;
  Option.iter (fun n -> if n < 1 then usage "--ops must be at least 1") ops;
  Option.iter (fun t -> if t < 1 then usage "--threads must be at least 1") threads;
  fun (key_space, ops_per_thread, max_threads) ->
    ( Option.fold ~none:key_space ~some:(fun k -> 1 lsl k) keys_log2,
      Option.value ops ~default:ops_per_thread,
      min 20 (Option.value threads ~default:max_threads) )

(* Every campaign runs the same steps: banner, run over --domains, print
   the verdict table, write the records, exit 1 unless [ok]. *)
type campaign =
  | Campaign : {
      banner : string;
      run : unit -> 'a;
      print : 'a -> unit;
      records : ('a -> Schema.Json.t list) option;
      ok : 'a -> bool;
    }
      -> campaign

let run_campaign name json (Campaign c) =
  print_endline c.banner;
  let outs = c.run () in
  c.print outs;
  (match (json, c.records) with
  | Some path, Some records ->
      Schema.write_file path (Schema.document ~experiment:name (records outs));
      Printf.printf "wrote %s\n%!" path
  | _ -> ());
  if not (c.ok outs) then exit 1

let campaign name ~quick ~seed ~size ~strategy ~capacities ~mutations ~budget
    ~domains =
  let strategies = Option.map (fun s -> [ s ]) strategy in
  let records kind = Some (List.map (Schema.encode ~experiment:name kind)) in
  let indexed kind = Some (Schema.encode_runs ~experiment:name kind) in
  match name with
  | "chaos" ->
      let base = if quick then Chaos.quick_config else Chaos.default_config in
      let key_space, ops_per_thread, threads =
        size (base.Chaos.key_space, base.ops_per_thread, base.threads)
      in
      let cfg = { base with Chaos.seed; key_space; ops_per_thread; threads } in
      Campaign
        {
          banner =
            "Chaos campaign: spurious storm, capacity squeeze, preemption, \
             lock-holder stall, clock skew, alloc pressure";
          run = (fun () -> Chaos.run_all ~domains cfg);
          print = Chaos.print_outcomes;
          records = records Chaos.record;
          ok = (fun _ -> true);
        }
  | "crash" when mutations ->
      Campaign
        {
          banner =
            "Recovery-mutation validation: skip-fallback-log, \
             skip-lock-reset, snapshot-while-pinned";
          run = (fun () -> Dura_run.run_mutants ~base_seed:seed ());
          print = Dura_run.print_mutants;
          records = None;
          ok = List.for_all (fun o -> o.Dura_run.m_caught && o.m_clean_on_fixed);
        }
  | "crash" ->
      let base = if quick then Dura_run.quick_config else Dura_run.default_config in
      let key_space, ops_per_thread, threads =
        size (base.Dura_run.key_space, base.ops_per_thread, base.threads)
      in
      let cfg = { base with Dura_run.seed; key_space; ops_per_thread; threads } in
      Campaign
        {
          banner =
            "Crash campaign: epoch-consistent snapshots + committed-op log; \
             power failure mid-run, then restore / replay / re-run and check";
          run = (fun () -> Dura_run.run_all ~domains cfg);
          print = Dura_run.print_cells;
          records = records Dura_run.record;
          ok = List.for_all (fun c -> c.Dura_run.d_findings = []);
        }
  | "san" ->
      Campaign
        {
          banner =
            "EunoSan sweep: race / lockset / atomicity / txn-hygiene lint \
             over all trees";
          run =
            (fun () ->
              San_run.run ~quick ~seed ?strategies ?capacities ~domains ());
          print = San_run.print stdout;
          records = indexed San_run.record;
          ok = San_run.clean;
        }
  (* EunoCheck mutation campaign: not finding a seeded bug is the failure. *)
  | "check" when mutations ->
      Campaign
        {
          banner =
            "EunoCheck mutation campaign: every seeded Testonly bug must \
             surface as a non-linearizable history";
          run = (fun () -> Check_run.hunt_mutations ~budget ~seed ~domains ());
          print =
            (fun outs ->
              Check_run.print stdout outs;
              List.iter
                (fun (o : Check_run.outcome) ->
                  if o.o_violation = None then
                    Printf.printf
                      "MISSED: mutation %s survived %d runs undetected\n"
                      o.o_config.mutation o.o_runs)
                outs);
          records = indexed Check_run.record;
          ok = List.for_all (fun (o : Check_run.outcome) -> o.o_violation <> None);
        }
  (* EunoCheck sweep: any non-linearizable history is a real tree (or
     checker) bug, since the Testonly mutations stay off. *)
  | _ ->
      Campaign
        {
          banner =
            "EunoCheck sweep: adversarial schedule exploration + \
             linearizability checking over all trees";
          run = (fun () -> Check_run.sweep ~quick ~seed ?strategies ~domains ());
          print = Check_run.print stdout;
          records = indexed Check_run.record;
          ok = Check_run.clean;
        }

(* Replay one EunoCheck counterexample; exit 0 iff it reproduces. *)
let replay descriptor =
  let config, policy =
    try Check_run.repro_of_string descriptor
    with Invalid_argument msg | Failure msg -> usage "--repro: %s" msg
  in
  Printf.printf "replaying %s\n%!" (Check_run.config_to_string config);
  let x = Check_run.execute config ~policy in
  match x.Check_run.x_verdict with
  | History.Illegal core ->
      Printf.printf "REPRODUCED: non-linearizable core\n%s\n"
        (History.to_string core)
  | History.Linearizable _ ->
      Printf.printf "did not reproduce: %d events linearizable\n"
        x.Check_run.x_events;
      exit 1

let run_figure name ~size ~quick ~seed ~charts ~csv ~json ~snapshots ~window
    ~strategy ~capacity ~domains =
  (match csv with
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Figures.csv_dir := Some dir
  | None -> ());
  let capacity =
    match capacity with
    | Some [ m ] -> Some m
    | Some _ -> usage "--capacity all applies only to san"
    | None -> None
  in
  let telemetry = json <> None || snapshots <> None in
  let base = if quick then Figures.quick_scale else Figures.default_scale in
  let key_space, ops_per_thread, max_threads =
    size (base.Figures.key_space, base.ops_per_thread, base.max_threads)
  in
  let scale =
    {
      Figures.key_space;
      ops_per_thread;
      max_threads;
      seed;
      charts;
      snapshot_window =
        (match window with
        | Some w -> Some w
        | None -> if telemetry then Some 2000 else None);
      strategy;
      capacity;
    }
  in
  if telemetry then Report.start_collecting ();
  let f = List.assoc name Figures.by_name in
  f ~domains scale;
  if telemetry then begin
    (* strategy-sweep's own per-cell "sweep" records are the document the
       campaign is about; the generic per-run "result" records would bury
       them, so the sweep document replaces them (snapshots still flow). *)
    if name = "strategy-sweep" then begin
      Report.flush_collected ~experiment:name ?snapshots ();
      Option.iter
        (fun path ->
          Schema.write_file path
            (Schema.document ~experiment:name (Figures.sweep_records ())))
        json
    end
    else Report.flush_collected ~experiment:name ?json ?snapshots ();
    Report.stop_collecting ();
    Option.iter (Printf.printf "wrote %s\n%!") json;
    Option.iter (Printf.printf "wrote %s\n%!") snapshots
  end

let run_experiment name quick keys_log2 ops max_threads seed charts csv json
    snapshots window strategy capacities mutations domains budget repro =
  (* Explicit --domains wins over the EUNO_DOMAINS environment knob. *)
  let domains =
    match domains with
    | Some d ->
        if d < 1 then usage "--domains must be at least 1";
        d
    | None -> (
        match Euno_harness.Pool.default_domains () with
        | d -> d
        | exception Invalid_argument msg -> usage "%s" msg)
  in
  Option.iter (fun w -> if w < 1 then usage "--window must be at least 1 cycle") window;
  let size = sizes keys_log2 ops max_threads in
  match repro with
  | Some descriptor when name = "check" -> replay descriptor
  | _ ->
      if List.mem name campaigns then
        run_campaign name json
          (campaign name ~quick ~seed ~size ~strategy ~capacities ~mutations
             ~budget ~domains)
      else
        run_figure name ~size ~quick ~seed ~charts ~csv ~json ~snapshots
          ~window ~strategy ~capacity:capacities ~domains

let cmd =
  let doc =
    "Reproduce the evaluation of 'Eunomia: Scaling Concurrent Search Trees \
     under Contention Using HTM' (PPoPP'17) on a simulated RTM multicore."
  in
  Cmd.v
    (Cmd.info "euno_repro" ~version:"1.0.0" ~doc)
    Term.(
      const run_experiment $ experiment $ quick $ keys_log2 $ ops $ max_threads
      $ seed $ charts $ csv $ json $ snapshots $ window $ strategy $ capacity
      $ mutations $ domains $ budget $ repro)

let () = exit (Cmd.eval cmd)
