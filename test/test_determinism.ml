(* Determinism regressions: the engine must reproduce the recorded golden
   outputs byte for byte.

   The fixtures under test/golden/ were recorded before the fast-path
   engine rewrite (flat versioned read/write sets, array line table,
   indexed scheduler), so these tests prove the optimized engine is
   observationally identical: same trace-event stream, same abort-cause
   accounting, same clocks.  To re-record after an *intentional* semantic
   change: dune exec test/gen_golden.exe -- test/golden *)

open Util
module Sev = Euno_sim.Sev
module Explore = Euno_sim.Explore

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

let golden file = read_lines (Filename.concat "golden" file)

(* The observer stream and the figure counters are two views of one run:
   every op, commit, abort and conflict the counters record reaches the
   observer as exactly one event. *)
let check_stream (out : Golden_scenarios.output) =
  let count p =
    List.length
      (List.filter (fun (e : Sev.event) -> p e.body) out.Golden_scenarios.events)
  in
  let agg = out.Golden_scenarios.agg in
  check_int "Op_exit = s_ops" agg.Machine.s_ops
    (count (function Sev.Op_exit _ -> true | _ -> false));
  check_int "Txn_commit = s_commits" agg.Machine.s_commits
    (count (function Sev.Txn_commit _ -> true | _ -> false));
  check_int "Txn_aborted = total_aborts" (Machine.total_aborts agg)
    (count (function Sev.Txn_aborted _ -> true | _ -> false));
  check_int "Conflict = sum of s_conflict_kinds"
    (Array.fold_left ( + ) 0 agg.Machine.s_conflict_kinds)
    (count (function Sev.Conflict _ -> true | _ -> false))

(* [~yield_every_call] replays the scenario under an inert injector,
   which makes every Api call yield to the scheduler: running on while the
   thread is the minimum and taking a scheduler turn after every call must
   produce the same bytes. *)
let scenario_case ~yield_every_call (name, scenario) =
  let label = if yield_every_call then name ^ " (yield every call)" else name in
  Alcotest.test_case label `Slow (fun () ->
      let out =
        scenario
          ~setup:
            (if yield_every_call then fun m -> Machine.set_injector m inert_injector
             else ignore)
      in
      check_identical
        (name ^ " trace")
        (golden (Golden_scenarios.trace_file name))
        out.Golden_scenarios.trace;
      check_identical
        (name ^ " summary")
        (golden (Golden_scenarios.summary_file name))
        out.Golden_scenarios.summary;
      check_stream out)

(* With no observer installed no event is built at all: the unobserved
   path every figure and campaign run takes must reach the same counters
   and clocks as the recorded, observed one. *)
let unobserved_case (name, scenario) =
  Alcotest.test_case (name ^ " (no observer)") `Slow (fun () ->
      let out = scenario ~setup:(fun m -> Machine.set_observer m None) in
      check_int (name ^ ": no events") 0 (List.length out.Golden_scenarios.events);
      check_identical
        (name ^ " summary")
        (golden (Golden_scenarios.summary_file name))
        out.Golden_scenarios.summary)

(* The exploration loop's min-clock pick keeps the stream and the
   counters in step too. *)
let explorer_case (name, scenario) =
  Alcotest.test_case (name ^ " stream = counters (min-clock explorer)") `Slow
    (fun () ->
      check_stream
        (scenario ~setup:(fun m ->
             Machine.set_explorer m
               (Some (Explore.choose (Explore.create ~seed:42 Explore.Min_clock))))))

(* Two in-process runs of the same scenario must also agree with each
   other (no hidden host state, e.g. physical hashing or GC effects). *)
let rerun_stable () =
  let name, scenario = List.hd Golden_scenarios.all in
  let a = scenario ~setup:ignore in
  let b = scenario ~setup:ignore in
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
  @ List.map unobserved_case Golden_scenarios.all
  @ [
      explorer_case (List.nth Golden_scenarios.all 1);
      Alcotest.test_case "rerun is bit-stable" `Quick rerun_stable;
      Alcotest.test_case "Api outside a run is unhandled" `Quick
        api_outside_run_unhandled;
    ]
