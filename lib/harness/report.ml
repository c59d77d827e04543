(* Machine-readable telemetry: the run-level record kinds ("result",
   "window", "aggregate", "lint") and the dispatch that validates every
   schema-v1 record kind by its discriminator.

   Everything the ASCII tables print is derived from Runner.result; these
   records are the durable counterpart — the figure CLI and the bench
   driver write them so perf trajectories and figure shapes can be
   diffed and plotted instead of eyeballed.  The campaign drivers
   own their kinds (Chaos, Dura_run, San_run, Check_run, Figures);
   Schema interprets every table. *)

module Json = Euno_stats.Json
open Schema

let result = kind ~record:"result" Runner.fields
let result_to_json ?experiment ?run r = encode ?experiment ?run result r

(* One JSONL line per window of one run, self-describing (schema version,
   experiment, tree, threads) so lines from different runs can be
   concatenated and still grouped downstream. *)
let window =
  kind ~record:"window"
    (on fst (select [ "tree"; "threads" ] Runner.fields) @ on snd window_fields)

let snapshot_lines ?experiment ?run (r : Runner.result) =
  List.map
    (fun w -> encode ?experiment ?run window (r, w))
    (windows_of_snapshots r.r_snapshots)

let aggregate =
  kind ~record:"aggregate"
    [
      F ("runs", Int, fun (a : Runner.aggregate) -> List.length a.a_runs);
      F ("mean_mops", Float, fun a -> a.a_mean_mops);
      F ("stddev_mops", Float, fun a -> a.a_stddev_mops);
      F ("min_mops", Float, fun a -> a.a_min_mops);
      F ("max_mops", Float, fun a -> a.a_max_mops);
      F ( "results",
          Raw
            (function
            | Json.List rs -> List.for_all (fun r -> validate result r = Ok ()) rs
            | _ -> false),
          fun a -> Json.List (List.map (encode result) a.a_runs) );
    ]

(* One EunoLint finding (bin/euno_lint --json): the source coordinate,
   the rule-id (closed vocabulary — drift between the engine and the
   schema is itself a schema error), and the reason of the allow
   directive that muted it, if one did. *)
let lint =
  kind ~record:"lint"
    ~rule:(fun j ->
      match (Json.member "suppressed" j, Json.member "reason" j) with
      | Some (Json.Bool true), None -> Error "missing field 'reason'"
      | Some (Json.Bool false), Some _ ->
          Error "field 'reason' present on an unsuppressed lint finding"
      | _ -> Ok ())
    [
      F ("file", Str, fun ((f : Eunolint.Rules.finding), _) -> f.file);
      F ("line", Int, fun (f, _) -> f.line);
      F ("col", Int, fun (f, _) -> f.col);
      F ("rule", Enum Eunolint.Lint.rule_names, fun (f, _) -> f.rule);
      F ("msg", Str, fun (f, _) -> f.msg);
      F ("suppressed", Bool, fun (_, reason) -> reason <> None);
      F ("reason", Opt Str, snd);
    ]

(* A literal match on the discriminator, so EunoLint's schema-drift rule
   can see which kinds are dispatched. *)
let validate_record obj =
  match Json.member "record" obj with
  | Some (Json.Str kind) -> (
      match kind with
      | "result" -> validate result obj
      | "window" -> validate window obj
      | "aggregate" -> validate aggregate obj
      | "chaos" -> validate Chaos.record obj
      | "recovery" -> validate Dura_run.record obj
      | "san" -> validate San_run.record obj
      | "check" -> validate Check_run.record obj
      | "sweep" -> validate Figures.sweep_record obj
      | "lint" -> validate lint obj
      | other -> Error (Printf.sprintf "unknown record type '%s'" other))
  | _ -> Error "field 'record' is missing or not a string"

let validate_document = Schema.validate_document validate_record

(* ---------- collection ---------- *)

(* The collector observes Runner.on_result, so every run — whatever figure
   helper or ad-hoc path produced it — lands in the document.  Both the
   collector slot and the observer it installs are domain-local: a pool
   worker that needs local collection gets its own, and the main domain's
   document only ever contains results delivered on the main domain (its
   own runs plus the pool's canonical-order replay). *)
type collector = { mutable results : Runner.result list (* newest first *) }

let active : collector option Euno_sim.Domain_ref.t =
  Euno_sim.Domain_ref.create (fun () -> None)

let start_collecting () =
  let c = { results = [] } in
  Euno_sim.Domain_ref.set active (Some c);
  Euno_sim.Domain_ref.set Runner.on_result
    (Some (fun r -> c.results <- r :: c.results))

let collected () =
  match Euno_sim.Domain_ref.get active with
  | Some c -> List.rev c.results
  | None -> []

let stop_collecting () =
  Euno_sim.Domain_ref.set active None;
  Euno_sim.Domain_ref.set Runner.on_result None

(* Write everything collected since [start_collecting]:
   [json] gets the full schema-versioned document, [snapshots] gets the
   windowed time series as JSONL (one line per window per run). *)
let flush_collected ~experiment ?json ?snapshots () =
  let results = collected () in
  Option.iter
    (fun path ->
      write_file path (document ~experiment (encode_runs ~experiment result results)))
    json;
  Option.iter
    (fun path ->
      write_jsonl path
        (List.concat
           (List.mapi (fun i r -> snapshot_lines ~experiment ~run:i r) results)))
    snapshots
