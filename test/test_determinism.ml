(* Determinism regressions: the engine must reproduce the recorded golden
   outputs byte for byte.

   The fixtures under test/golden/ were recorded before the fast-path
   engine rewrite (flat versioned read/write sets, array line table,
   indexed scheduler), so these tests prove the optimized engine is
   observationally identical: same trace-event stream, same abort-cause
   accounting, same clocks.  To re-record after an *intentional* semantic
   change: dune exec test/gen_golden.exe -- test/golden *)

open Util

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let check_identical name expected actual =
  check_int
    (Printf.sprintf "%s: line count" name)
    (List.length expected) (List.length actual);
  List.iteri
    (fun i (e, a) ->
      if e <> a then
        Alcotest.failf "%s: first divergence at line %d:\n  golden:   %s\n  measured: %s"
          name (i + 1) e a)
    (List.combine expected actual)

(* [~yield_every_call] replays the scenario under an inert injector,
   which makes every Api call yield to the scheduler: running on while the
   thread is the minimum and taking a scheduler turn after every call must
   produce the same bytes. *)
let scenario_case ~yield_every_call (name, scenario) =
  let label = if yield_every_call then name ^ " (yield every call)" else name in
  Alcotest.test_case label `Slow (fun () ->
      let out =
        scenario
          ~injector:
            (if yield_every_call then inert_injector else Machine.no_injector)
      in
      let golden file = read_lines (Filename.concat "golden" file) in
      check_identical
        (name ^ " trace")
        (golden (Golden_scenarios.trace_file name))
        out.Golden_scenarios.trace;
      check_identical
        (name ^ " summary")
        (golden (Golden_scenarios.summary_file name))
        out.Golden_scenarios.summary)

(* Two in-process runs of the same scenario must also agree with each
   other (no hidden host state, e.g. physical hashing or GC effects). *)
let rerun_stable () =
  let name, scenario = List.hd Golden_scenarios.all in
  let a = scenario ~injector:Machine.no_injector in
  let b = scenario ~injector:Machine.no_injector in
  check_identical (name ^ " rerun trace") a.Golden_scenarios.trace
    b.Golden_scenarios.trace;
  check_identical (name ^ " rerun summary") a.Golden_scenarios.summary
    b.Golden_scenarios.summary

(* An Api call needs a running machine: outside any run it fails the way
   an unhandled effect does. *)
let api_outside_run_unhandled () =
  match Api.read 0 with
  | _ -> Alcotest.fail "Api.read outside Machine.run returned"
  | exception Effect.Unhandled _ -> ()

let suite =
  List.map (scenario_case ~yield_every_call:false) Golden_scenarios.all
  @ List.map (scenario_case ~yield_every_call:true) Golden_scenarios.all
  @ [
      Alcotest.test_case "rerun is bit-stable" `Quick rerun_stable;
      Alcotest.test_case "Api outside a run is unhandled" `Quick
        api_outside_run_unhandled;
    ]
