(* Usage errors of euno_repro and bench/main.exe: a bad --threads, --keys
   or --ops value, a bad --repro policy, an unknown flag or a flag missing
   its value is rejected up front with one line on stderr and exit status
   2, for every experiment that takes the flag, before any simulation
   starts. *)

let euno_repro = Filename.concat ".." (Filename.concat "bin" "euno_repro.exe")
let bench = Filename.concat ".." (Filename.concat "bench" "main.exe")

(* Run [exe] with [args]; return its exit status and stderr lines. *)
let run ?(exe = euno_repro) args =
  let err = Filename.temp_file "euno_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote exe)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote err)
      in
      let code = Sys.command cmd in
      let ic = open_in_bin err in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (code, List.filter (( <> ) "") (String.split_on_char '\n' text)))

let usage_error ?exe args flag () =
  let code, lines = run ?exe args in
  Alcotest.(check int) "exit status" 2 code;
  match lines with
  | [ line ] ->
      if not (Util.contains line flag) then
        Alcotest.failf "message does not name %s: %s" flag line
  | _ ->
      Alcotest.failf "expected one stderr line, got %d:\n%s" (List.length lines)
        (String.concat "\n" lines)

let case ?exe name args flag =
  Alcotest.test_case name `Quick (usage_error ?exe args flag)

let bench_case name args flag = case ~exe:bench ("bench " ^ name) args flag

(* A --repro descriptor with a malformed or out-of-range field must be
   refused before the replay starts, naming the field. *)
let repro_case name ?(threads = "4") ?(mix = "point") policy field =
  let descriptor =
    Printf.sprintf
      "tree=HTM-B+Tree;mix=%s;dist=zipf;strategy=elision;threads=%s;ops=12;\
       keys=8;seed=23799;mut=none;policy=%s"
      mix threads policy
  in
  case ("check --repro " ^ name) [ "check"; "--repro"; descriptor ] field

let suite =
  [
    case "chaos --threads 0" [ "chaos"; "--quick"; "--threads"; "0" ] "--threads";
    case "fig1 --threads 0" [ "fig1"; "--quick"; "--threads"; "0" ] "--threads";
    case "fig1 --keys 63" [ "fig1"; "--quick"; "--keys"; "63" ] "--keys";
    case "crash --keys 0" [ "crash"; "--quick"; "--keys"; "0" ] "--keys";
    case "fig1 --ops=-5" [ "fig1"; "--quick"; "--ops=-5" ] "--ops";
    case "fig1 --ops 0" [ "fig1"; "--quick"; "--ops"; "0" ] "--ops";
    case "fig1 --capacity all" [ "fig1"; "--quick"; "--capacity"; "all" ] "--capacity";
    case "check --repro garbage" [ "check"; "--repro"; "garbage" ] "--repro";
    repro_case "pct depth=-1" "pct:depth=-1,span=3,horizon=10" "depth=";
    repro_case "walk per=x" "walk:per=x,span=3" "per=";
    repro_case "replay span=-5" "replay:0@1:step*-5" "span=";
    repro_case "replay tid 4 of 4 threads" "replay:1@3:step*4,4@1:step*5" "tid=";
    repro_case "threads=0" ~threads:"0" "min-clock" "threads=";
    repro_case "mix=bogus" ~mix:"bogus" "min-clock" "mix";
    bench_case "--quik" [ "--quik" ] "--quik";
    bench_case "--json with no value" [ "--quick"; "--json" ] "--json";
    bench_case "--domains with no value" [ "--domains"; "--quick" ] "--domains";
    bench_case "--domains 0" [ "--quick"; "--domains"; "0" ] "--domains";
  ]
