(* CI schema gate: parse telemetry output back and validate it against the
   current schema version.

     euno_schema_check out.json            # document
     euno_schema_check --jsonl out.jsonl   # one window/record object per line

   Exits non-zero on the first parse error or schema violation, so the CI
   smoke run catches a renamed or dropped field before a plotting script
   does. *)

module Json = Euno_stats.Json
module Report = Euno_harness.Report

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  let ic = try open_in_bin path with Sys_error e -> fail "%s" e in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_document path =
  match Json.of_string (read_file path) with
  | Error e -> fail "%s: parse error: %s" path e
  | Ok json -> (
      match Report.validate_document json with
      | Ok () -> ()
      | Error e -> fail "%s: schema error: %s" path e)

let check_jsonl path =
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filteri (fun _ l -> String.trim l <> "")
  in
  if lines = [] then fail "%s: no records" path;
  List.iteri
    (fun i line ->
      match Json.of_string line with
      | Error e -> fail "%s:%d: parse error: %s" path (i + 1) e
      | Ok json -> (
          match Report.validate_record json with
          | Ok () -> ()
          | Error e -> fail "%s:%d: schema error: %s" path (i + 1) e))
    lines

let () =
  let jsonl = ref false in
  let paths = ref [] in
  Arg.parse
    [ ("--jsonl", Arg.Set jsonl, " validate as JSONL (one record per line)") ]
    (fun p -> paths := p :: !paths)
    "euno_schema_check [--jsonl] FILE...";
  let paths = List.rev !paths in
  if paths = [] then fail "usage: euno_schema_check [--jsonl] FILE...";
  List.iter (if !jsonl then check_jsonl else check_document) paths;
  Printf.printf "%d file(s) valid (schema v%d)\n" (List.length paths)
    Euno_harness.Schema.schema_version
