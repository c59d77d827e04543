(* Schema-v1 records: the encoders' exact bytes and the validator's
   contract, for every record kind.

   - Golden bytes: the hand-built values of Record_samples must encode to
     exactly the lines of golden/records.jsonl — field order, int vs
     float, and which optional header fields appear.  Changing those
     bytes on purpose is a schema change: bump Schema.schema_version and
     replace the line with the one this test reports.
   - Generic schema test: each sample validates; dropping any single
     field, or changing its JSON type, fails with an error that names the
     field; the two cross-field rules (check's [violation] object, lint's
     [reason]) hold in both directions. *)

module S = Record_samples
module H = Euno_harness
module Report = H.Report
module Schema = H.Schema
module Json = Euno_stats.Json

let records () =
  [
    Report.result_to_json ~experiment:"golden" ~run:3 S.result;
    Report.result_to_json S.result;
  ]
  @ Report.snapshot_lines ~experiment:"golden" ~run:3 S.result
  @ [
      Schema.encode ~experiment:"golden" Report.aggregate S.aggregate;
      Schema.encode ~experiment:"chaos" H.Chaos.record S.chaos_recovered;
      Schema.encode H.Chaos.record S.chaos_unrecovered;
      Schema.encode ~experiment:"crash" H.Dura_run.record S.recovery;
    ]
  @ Schema.encode_runs ~experiment:"san" H.San_run.record [ S.san ]
  @ Schema.encode_runs ~experiment:"check" H.Check_run.record
      [ S.check_clean; S.check_violation ]
  @ [
      Schema.encode H.Figures.sweep_record S.sweep;
      Schema.encode Report.lint (S.lint_finding, None);
      Schema.encode Report.lint (S.lint_finding, Some "host-only timing");
    ]

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      String.split_on_char '\n' (really_input_string ic (in_channel_length ic)))

let test_golden_bytes () =
  let got = List.map Json.to_string (records ()) in
  let want = List.filter (( <> ) "") (read_lines "golden/records.jsonl") in
  Alcotest.(check int) "one golden line per record" (List.length want)
    (List.length got);
  List.iteri
    (fun i (w, g) ->
      Alcotest.(check string) (Printf.sprintf "golden line %d" (i + 1)) w g)
    (List.combine want got)

(* ---------- generic schema test ---------- *)

let validates r =
  match Report.validate_record r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sample rejected: %s" e

let rejects_naming name r =
  match Report.validate_record r with
  | Ok () -> Alcotest.failf "accepted a record with '%s' broken" name
  | Error e ->
      if not (Util.contains e ("'" ^ name ^ "'")) then
        Alcotest.failf "error for '%s' does not name it: %s" name e

(* A value of a different JSON type than [v]. *)
let retyped = function
  | Json.Int _ | Json.Float _ -> Json.Str "x"
  | _ -> Json.Int 0

(* Header fields a record may omit. *)
let optional = [ "experiment"; "run" ]

(* Fields validated as a whole, by their own codecs: a fault plan
   (Plan.of_json, tested with the fault plans) and the embedded result
   records of an aggregate.  Only the field itself is broken here. *)
let whole = [ "plan"; "results" ]

(* Every way to break one of an object's [fields] — drop it or retype it,
   then recurse into nested objects and list elements — as (path the
   error must name, broken record); [rebuild] turns the object's edited
   field list back into the whole record. *)
let rec breakages ~top prefix rebuild fields =
  List.concat
    (List.mapi
       (fun i (k, v) ->
         let path = prefix ^ k in
         let others = List.filteri (fun j _ -> j <> i) fields in
         let set v' = rebuild (List.mapi (fun j f -> if j = i then (k, v') else f) fields) in
         let drop = if top && List.mem k optional then [] else [ (path, rebuild others) ] in
         let inner =
           if List.mem k whole then []
           else
             match v with
             | Json.Obj inner -> breakages ~top:false (path ^ ".") (fun o -> set (Json.Obj o)) inner
             | Json.List items ->
                 List.concat
                   (List.mapi
                      (fun n item ->
                        match item with
                        | Json.Obj inner ->
                            breakages ~top:false
                              (Printf.sprintf "%s[%d]." path n)
                              (fun o ->
                                set (Json.List (List.mapi (fun m x -> if m = n then Json.Obj o else x) items)))
                              inner
                        | _ -> [])
                      items)
             | _ -> []
         in
         drop @ [ (path, set (retyped v)) ] @ inner)
       fields)

let test_every_field_checked () =
  List.iter
    (fun r ->
      validates r;
      match r with
      | Json.Obj fields ->
          List.iter
            (fun (name, broken) -> rejects_naming name broken)
            (breakages ~top:true "" (fun o -> Json.Obj o) fields)
      | _ -> Alcotest.fail "record is not an object")
    (records ())

let test_optional_header_fields () =
  match Report.result_to_json ~experiment:"e" ~run:1 S.result with
  | Json.Obj fields ->
      validates (Json.Obj (List.filter (fun (k, _) -> not (List.mem k optional)) fields))
  | _ -> Alcotest.fail "record is not an object"

let with_field k v = function
  | Json.Obj fields ->
      Json.Obj
        (if List.mem_assoc k fields then
           List.map (fun (k', v') -> if k' = k then (k', v) else (k', v')) fields
         else fields @ [ (k, v) ])
  | j -> j

let test_cross_field_rules () =
  let check_rec o = Schema.encode H.Check_run.record o in
  let lint_rec reason = Schema.encode Report.lint (S.lint_finding, reason) in
  (* check: the violation object is present iff violations > 0 *)
  rejects_naming "violation"
    (with_field "violations" (Json.Int 1) (check_rec S.check_clean));
  rejects_naming "violation"
    (with_field "violations" (Json.Int 0) (check_rec S.check_violation));
  (* lint: reason is present iff suppressed *)
  rejects_naming "reason" (with_field "suppressed" (Json.Bool true) (lint_rec None));
  rejects_naming "reason"
    (with_field "suppressed" (Json.Bool false) (lint_rec (Some "why")))

(* The bench driver's retired "perf" and "micro" kinds are rejected by
   name, so an old document fails with an explained error. *)
let test_retired_kinds_rejected () =
  List.iter
    (fun kind ->
      match
        Report.validate_record
          (Json.Obj
             [
               ("schema_version", Json.Int Schema.schema_version);
               ("record", Json.Str kind);
               ("name", Json.Str "x");
             ])
      with
      | Ok () -> Alcotest.failf "accepted a '%s' record" kind
      | Error e ->
          Alcotest.(check string) "error" (Printf.sprintf "unknown record type '%s'" kind) e)
    [ "perf"; "micro" ]

let suite =
  [
    Alcotest.test_case "golden record bytes" `Quick test_golden_bytes;
    Alcotest.test_case "every field of every kind checked" `Quick
      test_every_field_checked;
    Alcotest.test_case "experiment/run optional" `Quick
      test_optional_header_fields;
    Alcotest.test_case "cross-field rules" `Quick test_cross_field_rules;
    Alcotest.test_case "retired perf/micro kinds rejected" `Quick
      test_retired_kinds_rejected;
  ]
