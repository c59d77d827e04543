(* CI perf gate: compare the perf probes of a fresh bench run against the
   committed baseline.

     euno_perf_check                        # BENCH_results.json vs bench/baseline.json
     euno_perf_check --band 3 --current out.json --baseline bench/baseline.json
     euno_perf_check --write-baseline       # re-baseline from --current

   A probe fails when its degradation factor (direction-normalized, see
   Euno_harness.Perf_gate) exceeds the band; any failure exits non-zero.
   [--write-baseline] instead rewrites the baseline file from the current
   run's probes — commit the result together with the change that moved
   the numbers (see docs/EXPERIMENTS.md for when that is legitimate). *)

module Json = Euno_stats.Json
module Gate = Euno_harness.Perf_gate
module Schema = Euno_harness.Schema

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_probes path =
  let contents =
    let ic = try open_in_bin path with Sys_error e -> fail "%s" e in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  match Json.of_string contents with
  | Error e -> fail "%s: parse error: %s" path e
  | Ok json -> (
      match Gate.probes_of_document json with
      | Error e -> fail "%s: %s" path e
      | Ok [] -> fail "%s: no perf records" path
      | Ok probes -> probes)

let () =
  let current = ref "BENCH_results.json" in
  let baseline = ref "bench/baseline.json" in
  let band = ref 1.5 in
  let write_baseline = ref false in
  Arg.parse
    [
      ("--current", Arg.Set_string current, "FILE bench output to check (default BENCH_results.json)");
      ("--baseline", Arg.Set_string baseline, "FILE committed baseline (default bench/baseline.json)");
      ("--band", Arg.Set_float band, "N allowed degradation factor (default 1.5)");
      ("--write-baseline", Arg.Set write_baseline, " rewrite the baseline from --current and exit");
    ]
    (fun a -> fail "unexpected argument '%s'" a)
    "euno_perf_check [--band N] [--current FILE] [--baseline FILE] [--write-baseline]";
  let probes = read_probes !current in
  if !write_baseline then begin
    Schema.write_file !baseline (Gate.baseline_document probes);
    Printf.printf "wrote %s (%d probes)\n" !baseline (List.length probes)
  end
  else begin
    let comparisons =
      Gate.compare_probes ~band:!band ~baseline:(read_probes !baseline)
        ~current:probes
    in
    Printf.printf "perf gate: band %.2fx, %s vs %s\n" !band !current !baseline;
    List.iter
      (fun c ->
        let show = function Some v -> Printf.sprintf "%14.1f" v | None -> "             -" in
        Printf.printf "  %-4s %-44s %s -> %s%s\n"
          (if c.Gate.c_ok then "ok" else "FAIL")
          c.Gate.c_name
          (show c.Gate.c_baseline)
          (show c.Gate.c_current)
          (match c.Gate.c_factor with
          | Some f -> Printf.sprintf "  (x%.2f)" f
          | None -> if c.Gate.c_baseline = None then "  (new probe)" else "  (missing)"))
      comparisons;
    if not (Gate.all_ok comparisons) then begin
      prerr_endline
        "perf gate FAILED: a probe degraded beyond the tolerance band \
         (re-baseline only with a justified bench/baseline.json update)";
      exit 1
    end;
    print_endline "perf gate passed"
  end
