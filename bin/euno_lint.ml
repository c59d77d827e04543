(* EunoLint CLI: static analysis of the repo's concurrency/determinism
   conventions (see docs/LINT.md for the rule catalog).

     euno_lint lib/ bin/ test/                 # human-readable findings
     euno_lint --json lint.json lib/ bin/      # + schema-v1 "lint" document
     euno_lint --list-rules                    # rule-id vocabulary

   Directories expand recursively to .ml files (skipping _build, .git and
   lint_fixtures); cross-file rules (counter ownership, schema drift) see
   the whole set at once, so lint the tree in one invocation.  Exits 1 on
   any unsuppressed finding, 2 on a parse/IO error. *)

module Lint = Eunolint.Lint
module Rules = Eunolint.Rules
module Report = Euno_harness.Report
module Schema = Euno_harness.Schema

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let json_of_outcome (o : Lint.outcome) =
  Schema.document ~experiment:"lint"
    (List.map (fun f -> Schema.encode Report.lint (f, None)) o.Lint.findings
    @ List.map
        (fun (s : Lint.suppressed) ->
          Schema.encode Report.lint (s.Lint.s_finding, Some s.Lint.s_reason))
        o.Lint.suppressed)

let () =
  let json_out = ref "" in
  let quiet = ref false in
  let list_rules = ref false in
  let paths = ref [] in
  Arg.parse
    [
      ( "--json",
        Arg.Set_string json_out,
        "FILE write all findings (active + suppressed) as a schema-v1 \
         \"lint\" document" );
      ("--quiet", Arg.Set quiet, " print only the summary line");
      ("--list-rules", Arg.Set list_rules, " print the rule-ids and exit");
    ]
    (fun p -> paths := p :: !paths)
    "euno_lint [--json FILE] [--quiet] [--list-rules] PATH...";
  if !list_rules then begin
    List.iter print_endline Lint.rule_names;
    exit 0
  end;
  let paths = List.rev !paths in
  if paths = [] then
    fail "usage: euno_lint [--json FILE] [--quiet] [--list-rules] PATH...";
  match Lint.run_paths paths with
  | Error e -> fail "euno-lint: %s" e
  | Ok o ->
      if not !quiet then
        List.iter
          (fun (f : Rules.finding) ->
            Printf.printf "%s:%d:%d: [%s] %s\n" f.file f.line f.col f.rule
              f.msg)
          o.Lint.findings;
      if !json_out <> "" then
        Schema.write_file !json_out (json_of_outcome o);
      Printf.printf "euno-lint: %d finding(s), %d suppressed, %d file(s)\n"
        (List.length o.Lint.findings)
        (List.length o.Lint.suppressed)
        o.Lint.files_scanned;
      if o.Lint.findings <> [] then exit 1
