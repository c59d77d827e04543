(* Tests of the statistics utilities: table rendering and summary
   statistics. *)

open Util
module Table = Euno_stats.Table
module Summary = Euno_stats.Summary
module Json = Euno_stats.Json

let contains = Util.contains

let test_table_alignment () =
  let t = Table.create ~title:"T" ~headers:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1.00" ];
  Table.add_row t [ "a-much-longer-name"; "2.50" ];
  let out = Table.render t in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | title :: header :: rule :: row1 :: row2 :: _ ->
      check_bool "title marker" true (String.length title > 0 && title.[0] = '=');
      check_int "header and rule same width" (String.length header)
        (String.length rule);
      check_int "rows same width" (String.length row1) (String.length row2)
  | _ -> Alcotest.fail "unexpected shape");
  check_bool "contains first row" true (contains out "alpha")

let test_table_rows_in_order () =
  let t = Table.create ~title:"T" ~headers:[ "k" ] in
  Table.add_row t [ "first" ];
  Table.add_row t [ "second" ];
  let out = Table.render t in
  let pos needle =
    let n = String.length needle in
    let rec find i =
      if i + n > String.length out then -1
      else if String.sub out i n = needle then i
      else find (i + 1)
    in
    find 0
  in
  check_bool "rows render in insertion order" true
    (pos "first" >= 0 && pos "second" > pos "first")

let test_table_cells () =
  check_bool "cell_f" true (Table.cell_f 1.234 = "1.23");
  check_bool "cell_f1" true (Table.cell_f1 1.26 = "1.3");
  check_bool "cell_i" true (Table.cell_i 42 = "42");
  check_bool "cell_pct" true (Table.cell_pct 12.34 = "12.3%")

let test_summary_basic () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_int "count" 8 (Summary.count s);
  check_bool "mean" true (abs_float (Summary.mean s -. 5.0) < 1e-9);
  check_bool "stddev" true (abs_float (Summary.stddev s -. 2.13809) < 1e-3);
  check_bool "min" true (Summary.min_value s = 2.0);
  check_bool "max" true (Summary.max_value s = 9.0)

let test_summary_percentiles () =
  let s = Summary.create () in
  for i = 1 to 100 do
    Summary.add s (float_of_int i)
  done;
  check_bool "p50" true (abs_float (Summary.percentile s 50.0 -. 50.5) < 1e-9);
  check_bool "p0" true (Summary.percentile s 0.0 = 1.0);
  check_bool "p100" true (Summary.percentile s 100.0 = 100.0);
  check_bool "p99 close to 99" true
    (abs_float (Summary.percentile s 99.0 -. 99.01) < 0.1)

let test_summary_no_sample () =
  let s = Summary.create ~keep_sample:false () in
  Summary.add s 1.0;
  match Summary.percentile s 50.0 with
  | (_ : float) -> Alcotest.fail "percentile without sample"
  | exception Invalid_argument _ -> ()

let prop_summary_mean_matches_naive =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"welford mean = naive mean"
       QCheck.(list_of_size Gen.(1 -- 100) (float_range 0.0 1000.0))
       (fun xs ->
         let s = Summary.create ~keep_sample:false () in
         List.iter (Summary.add s) xs;
         let naive =
           List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
         in
         abs_float (Summary.mean s -. naive) < 1e-6))

module Chart = Euno_stats.Chart

let test_chart_renders () =
  let out =
    Chart.render ~width:40 ~height:8 ~title:"T" ~x_labels:[ "a"; "b"; "c" ]
      [
        { Chart.label = "up"; points = [ 1.0; 2.0; 3.0 ] };
        { Chart.label = "down"; points = [ 3.0; 2.0; 1.0 ] };
      ]
  in
  check_bool "has title" true (contains out "T");
  check_bool "has legend up" true (contains out "* up");
  check_bool "has legend down" true (contains out "o down");
  check_bool "has x labels" true (contains out "a" && contains out "c");
  check_bool "has marks" true (contains out "*" && contains out "o");
  (* every line bounded by the grid width *)
  List.iter
    (fun l ->
      if String.length l > 8 + 40 + 2 then
        Alcotest.failf "line too long: %d" (String.length l))
    (String.split_on_char '
' out)

let test_chart_rejects_single_point () =
  match
    Chart.render ~title:"T" ~x_labels:[ "a" ]
      [ { Chart.label = "s"; points = [ 1.0 ] } ]
  with
  | (_ : string) -> Alcotest.fail "accepted single point"
  | exception Invalid_argument _ -> ()

let test_chart_axis_rounding () =
  (* max 23 should give a 25-high axis, not 50 *)
  let out =
    Chart.render ~width:30 ~height:6 ~title:"T" ~x_labels:[]
      [ { Chart.label = "s"; points = [ 3.0; 23.0 ] } ]
  in
  check_bool "nice axis top" true (contains out "25.0")

(* ---------- percentile caching (regression) ---------- *)

(* Naive reference: sort a fresh copy on every query. *)
let naive_percentile values p =
  let a = Array.copy values in
  Array.sort compare a;
  let n = Array.length a in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)

(* Regression: percentile used to re-sort the whole retained sample on
   every call; now the sorted array is cached and invalidated by add.
   Interleave queries and adds to prove the cache never serves stale
   data. *)
let test_percentile_cache_invalidation () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 5.0; 1.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "p50 of 3" 5.0 (Summary.percentile s 50.0);
  Summary.add s 0.0;
  (* after invalidation the new minimum must be visible *)
  Alcotest.(check (float 1e-9)) "p0 sees new min" 0.0 (Summary.percentile s 0.0);
  Summary.add s 100.0;
  Alcotest.(check (float 1e-9)) "p100 sees new max" 100.0
    (Summary.percentile s 100.0);
  (* repeated queries (cache hits) agree with the naive reference *)
  let values = [| 5.0; 1.0; 9.0; 0.0; 100.0 |] in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%.0f matches naive" p)
        (naive_percentile values p) (Summary.percentile s p))
    [ 25.0; 50.0; 75.0; 99.0 ]

let prop_percentile_matches_naive =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"cached percentile = naive re-sort"
       QCheck.(
         pair
           (list_of_size Gen.(1 -- 64) (float_range 0.0 1e6))
           (float_range 0.0 100.0))
       (fun (values, p) ->
         let values = Array.of_list values in
         let s = Summary.of_array values in
         let reference = naive_percentile values p in
         let got = Summary.percentile s p in
         Float.abs (got -. reference) <= 1e-6 *. (1.0 +. Float.abs reference)))

(* ---------- JSON codec ---------- *)

let rec json_equal a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Float.abs (x -. y) <= 1e-9 *. (1.0 +. Float.abs x)
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2)
           xs ys
  | _ -> a = b

let sample_json =
  Json.Obj
    [
      ("int", Json.Int (-42));
      ("float", Json.Float 3.25);
      ("string", Json.Str "quote \" slash \\ newline \n tab \t");
      ("null", Json.Null);
      ("flags", Json.List [ Json.Bool true; Json.Bool false ]);
      ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
    ]

let test_json_roundtrip () =
  List.iter
    (fun pretty ->
      match Json.of_string (Json.to_string ~pretty sample_json) with
      | Ok parsed ->
          check_bool
            (Printf.sprintf "roundtrip pretty:%b" pretty)
            true
            (json_equal sample_json parsed)
      | Error e -> Alcotest.failf "parse failed: %s" e)
    [ false; true ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "{\"a\":1} x" ]

let test_json_member_access () =
  match Json.of_string {|{"a": {"b": [1, 2.5, "x"]}, "n": null}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j -> (
      check_bool "missing member" true (Json.member "zz" j = None);
      match Json.member "a" j with
      | Some inner -> (
          match Option.bind (Json.member "b" inner) Json.as_list with
          | Some [ one; _; three ] ->
              check_bool "int elem" true (Json.as_int one = Some 1);
              check_bool "str elem" true (Json.as_string three = Some "x")
          | _ -> Alcotest.fail "bad list shape")
      | None -> Alcotest.fail "missing a")

let test_summary_to_json () =
  let s = Summary.of_array [| 1.0; 2.0; 3.0; 4.0 |] in
  let j = Summary.to_json s in
  check_bool "count" true
    (Option.bind (Json.member "count" j) Json.as_int = Some 4);
  check_bool "mean" true
    (match Option.bind (Json.member "mean" j) Json.as_float with
    | Some m -> Float.abs (m -. 2.5) < 1e-9
    | None -> false);
  check_bool "p50 present" true (Json.member "p50" j <> None)

let test_table_to_json () =
  let t = Table.create ~title:"T" ~headers:[ "k"; "v" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "b" ];
  match Table.to_json t with
  | Json.Obj _ as j -> (
      match Option.bind (Json.member "rows" j) Json.as_list with
      | Some [ r1; r2 ] ->
          check_bool "row value" true
            (Option.bind (Json.member "v" r1) Json.as_string = Some "1");
          (* short rows pad with null *)
          check_bool "padded" true (Json.member "v" r2 = Some Json.Null)
      | _ -> Alcotest.fail "bad rows")
  | _ -> Alcotest.fail "not an object"

let suite =
  [
    Alcotest.test_case "chart renders" `Quick test_chart_renders;
    Alcotest.test_case "chart rejects single point" `Quick
      test_chart_rejects_single_point;
    Alcotest.test_case "chart axis rounding" `Quick test_chart_axis_rounding;
    Alcotest.test_case "table alignment" `Quick test_table_alignment;
    Alcotest.test_case "table row order" `Quick test_table_rows_in_order;
    Alcotest.test_case "table cells" `Quick test_table_cells;
    Alcotest.test_case "summary basics" `Quick test_summary_basic;
    Alcotest.test_case "summary percentiles" `Quick test_summary_percentiles;
    Alcotest.test_case "summary without sample" `Quick test_summary_no_sample;
    prop_summary_mean_matches_naive;
    Alcotest.test_case "percentile cache invalidation" `Quick
      test_percentile_cache_invalidation;
    prop_percentile_matches_naive;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json member access" `Quick test_json_member_access;
    Alcotest.test_case "summary to_json" `Quick test_summary_to_json;
    Alcotest.test_case "table to_json" `Quick test_table_to_json;
  ]
