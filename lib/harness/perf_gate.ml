(* The perf-regression gate's comparison logic.

   The bench driver writes "perf" probe records (engine micro timings and
   fixed-scale tree throughput) into BENCH_results.json; a baseline copy of
   those probes is committed as bench/baseline.json.  This module compares
   the two by probe name inside a multiplicative tolerance band, and
   bin/euno_perf_check turns the verdicts into an exit code.

   Verdicts are expressed through a single "degradation factor" regardless
   of the metric's direction: for lower-is-better metrics (nanoseconds) it
   is current/baseline, for higher-is-better (throughput) it is
   baseline/current — so factor > band means "worse than allowed" either
   way, and re-baselining is a plain copy of the current probe set. *)

module Json = Euno_stats.Json

type direction = Lower_is_better | Higher_is_better

(* The metric string names the unit and implies the direction; unknown
   metrics default to lower-is-better, the conservative reading for the
   cost-like units we are likely to add next. *)
let direction_of_metric = function
  | "sim_ops_per_wall_sec" | "campaign_cells_per_wall_sec" -> Higher_is_better
  | "ns_per_call" | _ -> Lower_is_better

type probe = {
  p_name : string;
  p_strategy : string;
  p_capacity_model : string;
  p_metric : string;
  p_value : float;
}

type comparison = {
  c_name : string;
  c_metric : string;
  c_baseline : float option;  (* None: probe new in current, informational *)
  c_current : float option;  (* None: probe disappeared, always a failure *)
  c_factor : float option;  (* degradation factor; > band fails *)
  c_ok : bool;
}

(* One probe per record; [metric] names the unit and implies the
   direction of "worse". *)
let record =
  Schema.(
    kind ~record:"perf"
      [
        F ("name", Str, fun p -> p.p_name);
        strategy (fun p -> p.p_strategy);
        capacity_model (fun p -> p.p_capacity_model);
        F ("metric", Str, fun p -> p.p_metric);
        F ("value", Float, fun p -> p.p_value);
      ])

(* Engine micro-benchmark timings (bench/main.exe): (name, ns per call). *)
let micro =
  Schema.(kind ~record:"micro" [ F ("name", Str, fst); F ("ns_per_call", Float, snd) ])

let probes_of_document json =
  match Json.member "records" json with
  | Some (Json.List records) ->
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | r :: rest -> (
            match Json.member "record" r with
            | Some (Json.Str "perf") -> (
                match Schema.validate record r with
                | Error e -> Error e
                | Ok () ->
                    let str f = Option.get (Json.as_string (Option.get (Json.member f r))) in
                    let num f = Option.get (Json.as_float (Option.get (Json.member f r))) in
                    let p =
                      {
                        p_name = str "name";
                        p_strategy = str "strategy";
                        p_capacity_model = str "capacity_model";
                        p_metric = str "metric";
                        p_value = num "value";
                      }
                    in
                    collect (p :: acc) rest)
            | _ -> collect acc rest)
      in
      collect [] records
  | _ -> Error "missing records list"

let factor ~baseline ~current ~metric =
  match direction_of_metric metric with
  | Lower_is_better -> current /. baseline
  | Higher_is_better -> baseline /. current

(* Compare every baseline probe against the current set (matched by name),
   then append current-only probes as informational passes.  [band] is the
   allowed degradation factor, e.g. 1.5 = up to 50% worse. *)
let compare_probes ~band ~baseline ~current =
  if band < 1.0 then invalid_arg "Perf_gate.compare_probes: band < 1.0";
  let find name probes = List.find_opt (fun p -> p.p_name = name) probes in
  let of_baseline b =
    match find b.p_name current with
    | None ->
        {
          c_name = b.p_name;
          c_metric = b.p_metric;
          c_baseline = Some b.p_value;
          c_current = None;
          c_factor = None;
          c_ok = false;
        }
    | Some c ->
        let f = factor ~baseline:b.p_value ~current:c.p_value ~metric:b.p_metric in
        {
          c_name = b.p_name;
          c_metric = b.p_metric;
          c_baseline = Some b.p_value;
          c_current = Some c.p_value;
          c_factor = Some f;
          c_ok = f <= band;
        }
  in
  let new_probes =
    List.filter_map
      (fun c ->
        match find c.p_name baseline with
        | Some _ -> None
        | None ->
            Some
              {
                c_name = c.p_name;
                c_metric = c.p_metric;
                c_baseline = None;
                c_current = Some c.p_value;
                c_factor = None;
                c_ok = true;
              })
      current
  in
  List.map of_baseline baseline @ new_probes

let all_ok = List.for_all (fun c -> c.c_ok)

(* A baseline file is itself a schema-versioned document holding only perf
   records, so euno_schema_check validates it too. *)
let baseline_document probes =
  Schema.document ~experiment:"perf-baseline" (List.map (Schema.encode record) probes)
