(* Self-tests for the benchmark's own arithmetic (Calc): span self time,
   the tail-percentile choice and the metric-name grammar.  Exits non-zero
   on the first failure. *)

let check name cond = if not cond then failwith ("selftest: " ^ name)
let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* self time: duration minus child coverage, overlapping children merged *)
  check "no children" (close (Calc.self_time ~start:0.0 ~stop:10.0 []) 10.0);
  check "disjoint children" (close (Calc.self_time ~start:0.0 ~stop:10.0 [ (1.0, 2.0); (5.0, 7.0) ]) 7.0);
  check "overlapping children merged"
    (close (Calc.self_time ~start:0.0 ~stop:10.0 [ (1.0, 4.0); (3.0, 6.0); (2.0, 5.0) ]) 5.0);
  check "nested child counted once" (close (Calc.self_time ~start:0.0 ~stop:10.0 [ (1.0, 9.0); (2.0, 3.0) ]) 2.0);
  check "touching children" (close (Calc.self_time ~start:0.0 ~stop:10.0 [ (1.0, 2.0); (2.0, 3.0) ]) 8.0);
  check "children clipped to parent" (close (Calc.self_time ~start:2.0 ~stop:6.0 [ (0.0, 3.0); (5.0, 9.0) ]) 2.0);
  check "child outside parent" (close (Calc.self_time ~start:2.0 ~stop:6.0 [ (7.0, 9.0) ]) 4.0);
  (* tail percentile: the highest ladder rung with >= 10 samples beyond *)
  check "beyond p90 of 100" (Calc.beyond ~n:100 90.0 = 10);
  check "beyond p95 of 100" (Calc.beyond ~n:100 95.0 = 5);
  check "beyond p99 of 1000" (Calc.beyond ~n:1000 99.0 = 10);
  check "tail of 1000 is p99" (Calc.tail_percentile 1000 = 99.0);
  check "tail of 999 is p95" (Calc.tail_percentile 999 = 95.0);
  check "tail of 200 is p95" (Calc.tail_percentile 200 = 95.0);
  check "tail of 199 is p90" (Calc.tail_percentile 199 = 90.0);
  check "tail of 100 is p90" (Calc.tail_percentile 100 = 90.0);
  check "tail of 40 is p75" (Calc.tail_percentile 40 = 75.0);
  check "tail of 39 falls back to p50" (Calc.tail_percentile 39 = 50.0);
  check "tail of 3 falls back to p50" (Calc.tail_percentile 3 = 50.0);
  check "tail of 10000 is p99.9" (Calc.tail_percentile 10000 = 99.9);
  (* percentiles *)
  check "median odd" (close (Calc.median [ 3.0; 1.0; 2.0 ]) 2.0);
  check "median even" (close (Calc.median [ 4.0; 1.0; 2.0; 3.0 ]) 2.5);
  check "p90 interpolated" (close (Calc.percentile (List.init 11 float_of_int) 90.0) 9.0);
  check "empty is nan" (Float.is_nan (Calc.median []));
  (* metric-name grammar *)
  List.iter
    (fun n -> check ("valid " ^ n) (Calc.valid_name n))
    [ "sim_ops_per_s"; "round_s.p50"; "htm.abort.false_record_per_op"; "sim.conflict.node_meta_per_op";
      "a-b"; "9lives"; String.make 64 'x' ];
  List.iter
    (fun n -> check ("invalid " ^ n) (not (Calc.valid_name n)))
    [ ""; ".hidden"; "_x"; "-x"; "has space"; "slash/name"; "colon:name"; "pct%"; String.make 65 'x' ];
  (* round seeds: deterministic, non-negative, distinct across rounds *)
  check "seed deterministic" (Calc.derive_seed 7 3 = Calc.derive_seed 7 3);
  let seeds = List.init 1000 (Calc.derive_seed 7) in
  check "seeds non-negative" (List.for_all (fun s -> s >= 0) seeds);
  check "seeds distinct" (List.length (List.sort_uniq compare seeds) = 1000);
  print_endline "perfbench selftest: ok"
