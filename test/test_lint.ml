(* Tests of the EunoLint rule engine: the fixture corpus must produce
   exactly the expected (file, rule-id) multiset — including the
   re-created PR 2 lock-leak and PR 4 release-ordering bugs — the
   suppression grammar must reject reason-free directives, output must
   be byte-identical across runs, and the emitted "lint" records must
   validate against the schema. *)

module Lint = Eunolint.Lint
module Rules = Eunolint.Rules
module Suppress = Eunolint.Suppress
module Report = Euno_harness.Report
module Schema = Euno_harness.Schema
module Json = Euno_stats.Json

let fixture_files =
  [
    "fix_clean.ml";
    "fix_counter_theft.ml";
    "fix_det_poly.ml";
    "fix_det_wallclock.ml";
    "fix_domain_shared.ml";
    "fix_domain_suppressed.ml";
    "fix_lock_branch.ml";
    "fix_lock_leak_pr2.ml";
    "fix_san_order_pr4.ml";
    "fix_schema_drift.ml";
    "fix_suppressed_noreason.ml";
    "fix_suppressed_ok.ml";
  ]

(* The exact (basename, rule-id) multiset the corpus must produce; see
   the "Expected:" header comment in each fixture. *)
let expected_active =
  [
    ("fix_counter_theft.ml", "counter-ownership");
    ("fix_counter_theft.ml", "counter-ownership");
    ("fix_det_poly.ml", "determinism");
    ("fix_det_poly.ml", "determinism");
    ("fix_det_poly.ml", "determinism");
    ("fix_det_poly.ml", "determinism");
    ("fix_det_wallclock.ml", "determinism");
    ("fix_det_wallclock.ml", "determinism");
    ("fix_det_wallclock.ml", "determinism");
    ("fix_domain_shared.ml", "domain-shared-state");
    ("fix_domain_shared.ml", "domain-shared-state");
    ("fix_domain_shared.ml", "domain-shared-state");
    ("fix_domain_shared.ml", "domain-shared-state");
    ("fix_lock_branch.ml", "lock-paths");
    ("fix_lock_leak_pr2.ml", "lock-paths");
    ("fix_san_order_pr4.ml", "san-release-order");
    ("fix_schema_drift.ml", "schema-drift");
    ("fix_schema_drift.ml", "schema-drift");
    ("fix_suppressed_noreason.ml", "determinism");
    ("fix_suppressed_noreason.ml", "suppression");
    ("fix_suppressed_noreason.ml", "suppression");
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus () =
  List.map
    (fun f ->
      let path = Filename.concat "lint_fixtures" f in
      (path, read_file path))
    fixture_files

let run_corpus () =
  match Lint.run_files (corpus ()) with
  | Ok o -> o
  | Error e -> Alcotest.failf "corpus did not lint: %s" e

let pair_list = Alcotest.(list (pair string string))

let test_corpus_sweep () =
  let o = run_corpus () in
  let got =
    List.map
      (fun (f : Rules.finding) -> (Filename.basename f.file, f.rule))
      o.Lint.findings
  in
  Alcotest.check pair_list "exact (file, rule) multiset"
    (List.sort compare expected_active)
    (List.sort compare got);
  (* the clean control must not appear even once *)
  Alcotest.(check bool)
    "clean fixture is silent" false
    (List.exists (fun (f, _) -> f = "fix_clean.ml") got)

let test_corpus_suppressed () =
  let o = run_corpus () in
  let got =
    List.sort compare
      (List.map
         (fun s ->
           ( Filename.basename s.Lint.s_finding.Rules.file,
             s.Lint.s_finding.Rules.rule,
             s.Lint.s_reason ))
         o.Lint.suppressed)
  in
  Alcotest.(check (list (triple string string string)))
    "exact suppressed (file, rule, reason) multiset"
    (List.sort compare
       [
         ( "fix_suppressed_ok.ml",
           "determinism",
           "fixture exercises reasoned suppression" );
         ( "fix_domain_suppressed.ml",
           "domain-shared-state",
           "written only before any worker domain is spawned; workers \
            read-only" );
       ])
    got

(* ---------- suppression grammar ---------- *)

let scan src = Suppress.scan ~known_rules:Rules.rule_names src

(* Directive sources are assembled from parts so this file's own string
   literals never contain the live marker — otherwise euno_lint would
   flag its own grammar tests when linting test/. *)
let directive body = "(* " ^ "euno-lint: " ^ body ^ " *)\n"

let test_suppress_reasoned () =
  let info =
    scan (directive "allow lock-paths: handler proven unreachable")
  in
  match (info.Suppress.allows, info.Suppress.malformed) with
  | [ a ], [] ->
      Alcotest.(check int) "line" 1 a.Suppress.al_line;
      Alcotest.(check string) "rule" "lock-paths" a.al_rule;
      Alcotest.(check string) "reason" "handler proven unreachable" a.al_reason
  | _ -> Alcotest.fail "expected one well-formed allow"

let test_suppress_missing_reason () =
  let info = scan (directive "allow lock-paths") in
  Alcotest.(check int) "no allows" 0 (List.length info.Suppress.allows);
  (match info.Suppress.malformed with
  | [ (1, msg) ] ->
      Alcotest.(check bool)
        "message names the reason requirement" true
        (String.length msg > 0
        && String.lowercase_ascii msg |> fun m ->
           String.length m >= 6 && String.sub m 0 6 = "suppre")
  | _ -> Alcotest.fail "expected one malformed directive");
  let empty = scan (directive "allow determinism:   ") in
  Alcotest.(check int) "empty reason rejected too" 1
    (List.length empty.Suppress.malformed)

let test_suppress_unknown_rule () =
  let info = scan (directive "allow no-such-rule: because") in
  Alcotest.(check int) "rejected" 1 (List.length info.Suppress.malformed)

let test_suppress_pragma () =
  Alcotest.(check bool)
    "pragma detected" true
    (scan (directive "scope sim")).Suppress.sim_pragma;
  Alcotest.(check bool)
    "no pragma" false (scan "let x = 1\n").Suppress.sim_pragma

(* A directive inside a string literal is not a directive: the comment
   opener is part of the marker. *)
let test_suppress_not_in_strings () =
  let info = scan "let s = \"euno-lint: allow determinism: nope\"\n" in
  Alcotest.(check int) "no allows" 0 (List.length info.Suppress.allows);
  Alcotest.(check int) "no malformed" 0 (List.length info.Suppress.malformed)

(* ---------- scope pragma vs. path scoping ---------- *)

let test_pragma_scoping () =
  let src = "let t () = Sys.time ()\n" in
  let without =
    match Lint.run_files [ ("synthetic/foo.ml", src) ] with
    | Ok o -> o
    | Error e -> Alcotest.failf "parse: %s" e
  in
  Alcotest.(check int)
    "outside lib/, no pragma: rule does not apply" 0
    (List.length without.Lint.findings);
  let with_pragma =
    match
      Lint.run_files
        [ ("synthetic/foo.ml", directive "scope sim" ^ src) ]
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "parse: %s" e
  in
  Alcotest.(check int)
    "pragma opts the file in" 1
    (List.length with_pragma.Lint.findings)

(* ---------- output determinism ---------- *)

let render (o : Lint.outcome) =
  let record f reason = Schema.encode Report.lint (f, reason) in
  let records =
    List.map (fun f -> record f None) o.Lint.findings
    @ List.map
        (fun (s : Lint.suppressed) ->
          record s.Lint.s_finding (Some s.s_reason))
        o.Lint.suppressed
  in
  Json.to_string ~pretty:true (Schema.document ~experiment:"lint" records)

let test_byte_identical_runs () =
  let a = render (run_corpus ()) in
  let b = render (run_corpus ()) in
  Alcotest.(check string) "two runs render identically" a b

let test_findings_sorted () =
  let o = run_corpus () in
  let keys =
    List.map
      (fun (f : Rules.finding) -> (f.file, f.line, f.col, f.rule, f.msg))
      o.Lint.findings
  in
  Alcotest.(check bool)
    "findings are sorted" true
    (List.sort compare keys = keys)

(* ---------- schema ---------- *)

let test_lint_records_validate () =
  let o = run_corpus () in
  let check_record r =
    match Report.validate_record r with
    | Ok () -> ()
    | Error e -> Alcotest.failf "record rejected: %s" e
  in
  List.iter
    (fun f -> check_record (Schema.encode Report.lint (f, None)))
    o.Lint.findings;
  List.iter
    (fun (s : Lint.suppressed) ->
      check_record (Schema.encode Report.lint (s.Lint.s_finding, Some s.s_reason)))
    o.Lint.suppressed

let test_lint_schema_rejects () =
  let bad_rule =
    Schema.encode Report.lint
      ({ Rules.file = "x.ml"; line = 1; col = 0; rule = "no-such-rule"; msg = "m" }, None)
  in
  (match Report.validate_record bad_rule with
  | Ok () -> Alcotest.fail "unknown rule-id must be rejected"
  | Error _ -> ());
  (* reason on an unsuppressed finding is a contradiction *)
  let contradictory =
    Json.Obj
      [
        ("schema_version", Json.Int Schema.schema_version);
        ("record", Json.Str "lint");
        ("file", Json.Str "x.ml");
        ("line", Json.Int 1);
        ("col", Json.Int 0);
        ("rule", Json.Str "determinism");
        ("msg", Json.Str "m");
        ("suppressed", Json.Bool false);
        ("reason", Json.Str "but why");
      ]
  in
  match Report.validate_record contradictory with
  | Ok () -> Alcotest.fail "reason without suppressed=true must be rejected"
  | Error _ -> ()

(* schema-drift reads the dispatch of the real validate_record: linting
   lib/harness/report.ml next to a file that defines an undispatched
   record kind yields exactly that one finding. *)
let test_schema_drift_real_dispatch () =
  let report = String.concat Filename.dir_sep [ ".."; "lib"; "harness"; "report.ml" ] in
  let zap = ("synthetic/zap.ml", "let zap = Schema.kind ~record:\"zap\" []\n") in
  match Lint.run_files [ (report, read_file report); zap ] with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok o ->
      Alcotest.(check (list string))
        "one schema-drift finding, at the zap kind" [ "synthetic/zap.ml" ]
        (List.filter_map
           (fun (f : Rules.finding) ->
             if f.rule = "schema-drift" then Some f.file else None)
           o.Lint.findings)

(* ---------- path expansion ---------- *)

let test_expand_skips_fixture_dir () =
  (match Lint.expand_paths [ "." ] with
  | Error e -> Alcotest.failf "expand: %s" e
  | Ok files ->
      Alcotest.(check bool)
        "directory expansion skips lint_fixtures" false
        (List.exists
           (fun f ->
             List.mem "lint_fixtures" (String.split_on_char '/' f))
           files));
  match Lint.expand_paths [ "lint_fixtures" ] with
  | Error e -> Alcotest.failf "expand: %s" e
  | Ok files ->
      Alcotest.(check bool)
        "explicitly-named directory is taken" true
        (List.length files >= List.length fixture_files)

let suite =
  [
    Alcotest.test_case "fixture corpus sweep" `Quick test_corpus_sweep;
    Alcotest.test_case "corpus suppression audit" `Quick
      test_corpus_suppressed;
    Alcotest.test_case "suppress: reasoned allow" `Quick
      test_suppress_reasoned;
    Alcotest.test_case "suppress: missing reason rejected" `Quick
      test_suppress_missing_reason;
    Alcotest.test_case "suppress: unknown rule rejected" `Quick
      test_suppress_unknown_rule;
    Alcotest.test_case "suppress: scope pragma" `Quick test_suppress_pragma;
    Alcotest.test_case "suppress: string literals inert" `Quick
      test_suppress_not_in_strings;
    Alcotest.test_case "pragma vs. path scoping" `Quick test_pragma_scoping;
    Alcotest.test_case "byte-identical runs" `Quick test_byte_identical_runs;
    Alcotest.test_case "findings sorted" `Quick test_findings_sorted;
    Alcotest.test_case "lint records validate" `Quick
      test_lint_records_validate;
    Alcotest.test_case "lint schema rejections" `Quick
      test_lint_schema_rejects;
    Alcotest.test_case "schema-drift on the real dispatch" `Quick
      test_schema_drift_real_dispatch;
    Alcotest.test_case "expansion skips fixtures" `Quick
      test_expand_skips_fixture_dir;
  ]
