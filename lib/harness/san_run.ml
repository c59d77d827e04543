module Dist = Euno_workload.Dist
module Plan = Euno_fault.Plan
module Cost = Euno_sim.Cost
module Htm = Euno_htm.Htm

type outcome = {
  o_tree : string;
  o_workload : string;
  o_strategy : string;
  o_capacity_model : string;
  o_threads : int;
  o_seed : int;
  o_summary : Euno_san.San.summary;
}

(* Wider than ycsb_default so the lint exercises the scan (seqlock /
   optimistic traversal) and delete (merge / GC) paths too. *)
let coverage_mix : Euno_workload.Opgen.mix =
  { get = 40; put = 35; scan = 10; delete = 10; rmw = 5 }

let thetas = [ 0.2; 0.8; 0.99 ]

let outcome_of ~tree ~label ~strategy ~capacity ~seed (r : Runner.result) =
  match r.Runner.r_san with
  | Some s ->
      {
        o_tree = tree;
        o_workload = label;
        o_strategy = Htm.strategy_name strategy;
        o_capacity_model = capacity.Cost.cm_name;
        o_threads = r.Runner.r_threads;
        o_seed = seed;
        o_summary = s;
      }
  | None -> invalid_arg "San_run: result carries no sanitizer summary"

(* One campaign cell = (strategy, capacity model, tree): the zipf ladder
   plus a chaos run, sanitized.  The chaos horizon depends on the cell's
   own mid-contention zipf run, so the whole quadruple stays inside one
   cell — cells are independent and [Pool.map] can fan them across
   domains with the canonical (strategy, capacity, tree) nesting order
   preserved by the index merge.  [run] sweeps the requested grid; the
   default covers every strategy under the nominal capacity model (the
   capacity ladder is a perf question more than a protocol one, but
   limited-read cells catch fallback-path bugs that only fire when
   capacity aborts force operations off the fast path). *)
let run ?(quick = false) ?(seed = 42) ?(strategies = Htm.all_strategies)
    ?(capacities = [ Cost.nominal ]) ?domains () =
  let base = Runner.default_setup in
  let cell (strategy, capacity, kind) =
    let setup =
      {
        base with
        Runner.sanitize = true;
        check_after = true;
        seed;
        cost = Cost.with_capacity Cost.default capacity;
        (* Elision cells keep each tree's own default policy (the
           pre-strategy behaviour); other strategies override just the
           strategy selector. *)
        policy =
          (match strategy with
          | Htm.Elision -> None
          | s -> Some { Htm.default_policy with Htm.strategy = s });
        threads = (if quick then 8 else base.Runner.threads);
        ops_per_thread = (if quick then 300 else base.Runner.ops_per_thread);
      }
    in
    let workload theta =
      {
        Runner.default_workload with
        Runner.dist = Dist.Zipfian theta;
        mix = coverage_mix;
        key_space =
          (if quick then 1 lsl 12
           else Runner.default_workload.Runner.key_space);
      }
    in
    let tree = Kv.kind_name kind in
    let zipf_runs =
      List.map (fun theta -> (theta, Runner.run kind (workload theta) setup))
        thetas
    in
    (* Chaos horizon from this tree's own mid-contention run, so the
       campaign windows line up with where the run actually spends its
       cycles. *)
    let horizon =
      match zipf_runs with
      | _ :: (_, mid) :: _ -> mid.Runner.r_cycles
      | _ -> 200_000
    in
    let chaos_setup =
      {
        setup with
        Runner.fault_plan = Plan.campaign ~threads:setup.Runner.threads ~horizon;
      }
    in
    let chaos = Runner.run kind (workload 0.8) chaos_setup in
    List.map
      (fun (theta, r) ->
        outcome_of ~tree
          ~label:(Printf.sprintf "zipf-%.2f" theta)
          ~strategy ~capacity ~seed r)
      zipf_runs
    @ [
        outcome_of ~tree ~label:"chaos-zipf-0.80" ~strategy ~capacity ~seed
          chaos;
      ]
  in
  let cells =
    List.concat_map
      (fun strategy ->
        List.concat_map
          (fun capacity ->
            List.map (fun kind -> (strategy, capacity, kind)) Kv.all_kinds)
          capacities)
      strategies
  in
  List.concat (Pool.map ?domains cell cells)

let clean outcomes =
  List.for_all (fun o -> o.o_summary.Euno_san.San.total = 0) outcomes

let print oc outcomes =
  Printf.fprintf oc "%-14s %-16s %-10s %-12s %8s %10s %9s\n" "tree" "workload"
    "strategy" "capacity" "threads" "events" "findings";
  List.iter
    (fun o ->
      Printf.fprintf oc "%-14s %-16s %-10s %-12s %8d %10d %9d\n" o.o_tree
        o.o_workload o.o_strategy o.o_capacity_model o.o_threads
        o.o_summary.Euno_san.San.events o.o_summary.total)
    outcomes;
  List.iter
    (fun o ->
      List.iter
        (fun (f : Euno_san.San.finding) ->
          Printf.fprintf oc "  [%s/%s] %s %s (tid %d, clock %d): %s\n" o.o_tree
            o.o_workload
            (Euno_san.San.kind_name f.Euno_san.San.f_kind)
            f.f_subject f.f_tid f.f_clock f.f_detail)
        o.o_summary.Euno_san.San.findings)
    outcomes;
  if clean outcomes then Printf.fprintf oc "san: clean\n"
  else Printf.fprintf oc "san: FINDINGS PRESENT\n"

(* One record per sanitized run: the verdict of the EunoSan pass. *)
let record =
  Schema.(
    kind ~record:"san"
      [
        F ("tree", Str, fun o -> o.o_tree);
        F ("workload", Str, fun o -> o.o_workload);
        strategy (fun o -> o.o_strategy);
        capacity_model (fun o -> o.o_capacity_model);
        F ("threads", Int, fun o -> o.o_threads);
        F ("seed", Int, fun o -> o.o_seed);
        F ("events", Int, fun o -> o.o_summary.Euno_san.San.events);
        F ("findings_total", Int, fun o -> o.o_summary.total);
        F ( "findings",
            List
              [
                F ( "kind",
                    Str,
                    fun (f : Euno_san.San.finding) -> Euno_san.San.kind_name f.f_kind );
                F ("subject", Str, fun f -> f.f_subject);
                F ("tid", Int, fun f -> f.f_tid);
                F ("clock", Int, fun f -> f.f_clock);
                F ("detail", Str, fun f -> f.f_detail);
              ],
            fun o -> o.o_summary.findings );
      ])
