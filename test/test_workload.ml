(* Statistical tests of the workload generators and op-mix streams. *)

open Util
module Dist = Euno_workload.Dist
module Opgen = Euno_workload.Opgen

let exact_zipf_mass ~n ~theta ~frac =
  let zeta m =
    let acc = ref 0.0 in
    for i = 1 to m do
      acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    !acc
  in
  zeta (int_of_float (frac *. float_of_int n)) /. zeta n

let check_close name expected actual tol =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.3f, got %.3f" name expected actual

let test_zipf_matches_analytic () =
  List.iter
    (fun theta ->
      let n = 10_000 in
      let d = Dist.create (Dist.Zipfian theta) ~n ~seed:1 in
      let expected = exact_zipf_mass ~n ~theta ~frac:0.1 in
      let actual = Dist.hot_mass d ~samples:60_000 ~frac:0.1 in
      check_close (Printf.sprintf "zipf %.2f" theta) expected actual 0.04)
    [ 0.5; 0.9; 0.99 ]

let test_zipf_zero_is_uniform () =
  let n = 1000 in
  let d = Dist.create (Dist.Zipfian 0.0) ~n ~seed:2 in
  let actual = Dist.hot_mass d ~samples:50_000 ~frac:0.1 in
  check_close "uniform hottest 10%" 0.1 actual 0.03

let test_self_similar_80_20 () =
  let n = 10_000 in
  let d = Dist.create (Dist.Self_similar 0.2) ~n ~seed:3 in
  (* P(X in hottest 20%) = 80% by construction. *)
  let actual = Dist.hot_mass d ~samples:60_000 ~frac:0.2 in
  check_close "80-20" 0.8 actual 0.04

let test_poisson_hotspot_calibration () =
  let n = 10_000 in
  let d =
    Dist.create (Dist.Poisson_hotspot { hot_frac = 0.1; hot_mass = 0.7 })
      ~n ~seed:4
  in
  let actual = Dist.hot_mass d ~samples:60_000 ~frac:0.1 in
  (* Paper calibration: hottest 10% receives ~70% of requests. *)
  check_close "poisson 10%%->70%%" 0.7 actual 0.05

let test_normal_hotspot_is_tight () =
  let n = 100_000 in
  let d = Dist.create (Dist.Normal_hotspot { sigma_frac = 0.01 }) ~n ~seed:5 in
  (* sigma = 1% of mean; nearly all mass within the hottest 10% of keys. *)
  let actual = Dist.hot_mass d ~samples:30_000 ~frac:0.1 in
  if actual < 0.9 then Alcotest.failf "normal hotspot too wide: %.3f" actual

let test_all_keys_in_range () =
  List.iter
    (fun spec ->
      let n = 500 in
      let d = Dist.create spec ~n ~seed:6 in
      for _ = 1 to 20_000 do
        let k = Dist.next d in
        if k < 0 || k >= n then
          Alcotest.failf "%s: key %d out of range" (Dist.spec_to_string spec) k
      done)
    [
      Dist.Uniform;
      Dist.Zipfian 0.99;
      Dist.Self_similar 0.2;
      Dist.Poisson_hotspot { hot_frac = 0.1; hot_mass = 0.7 };
      Dist.Normal_hotspot { sigma_frac = 0.01 };
    ]

let test_determinism_same_seed () =
  let mk () = Dist.create (Dist.Zipfian 0.9) ~n:1000 ~seed:7 in
  let a = mk () and b = mk () in
  for _ = 1 to 1000 do
    check_int "same stream" (Dist.next a) (Dist.next b)
  done

let test_scrambled_spreads_hot_keys () =
  let n = 10_000 in
  let plain = Dist.create (Dist.Zipfian 0.99) ~n ~seed:8 in
  let scrambled = Dist.create ~scrambled:true (Dist.Zipfian 0.99) ~n ~seed:8 in
  (* Plain: hot keys adjacent, so hottest 1% of *key space positions*
     0..n/100 catches a lot of traffic.  Scrambled: it should not. *)
  let low_region_mass d =
    let hits = ref 0 and total = 30_000 in
    for _ = 1 to total do
      if Dist.next d < n / 100 then incr hits
    done;
    float_of_int !hits /. float_of_int total
  in
  let p = low_region_mass plain and s = low_region_mass scrambled in
  check_bool "plain concentrates at low keys" true (p > 0.5);
  check_bool "scrambled spreads" true (s < 0.2)

let test_latest_follows_frontier () =
  let n = 1000 in
  let d = Dist.create (Dist.Latest 0.99) ~n ~seed:11 in
  (* With the frontier at n-1, most draws should be near the end. *)
  let near_end = ref 0 in
  for _ = 1 to 5000 do
    if Dist.next d > n - 100 then incr near_end
  done;
  check_bool "draws cluster at the frontier" true (!near_end > 2500);
  (* Move the frontier half way round; draws should follow. *)
  for _ = 1 to n / 2 do
    Dist.advance d
  done;
  let near_mid = ref 0 in
  for _ = 1 to 5000 do
    let k = Dist.next d in
    if k > (n / 2) - 100 && k <= n / 2 then incr near_mid
  done;
  check_bool "draws follow the frontier" true (!near_mid > 2500)

let test_opgen_mix () =
  let dist = Dist.create Dist.Uniform ~n:1000 ~seed:9 in
  let g =
    Opgen.create ~dist
      ~mix:{ Opgen.get = 60; put = 20; scan = 5; delete = 5; rmw = 10 }
      ~seed:10 ()
  in
  let counts = Array.make 5 0 in
  let total = 50_000 in
  for _ = 1 to total do
    let i =
      match Opgen.next g with
      | Opgen.Get _ -> 0
      | Opgen.Put _ -> 1
      | Opgen.Scan _ -> 2
      | Opgen.Delete _ -> 3
      | Opgen.Rmw _ -> 4
    in
    counts.(i) <- counts.(i) + 1
  done;
  let pct i = float_of_int counts.(i) /. float_of_int total *. 100.0 in
  check_close "get pct" 60.0 (pct 0) 1.5;
  check_close "put pct" 20.0 (pct 1) 1.5;
  check_close "scan pct" 5.0 (pct 2) 1.0;
  check_close "delete pct" 5.0 (pct 3) 1.0;
  check_close "rmw pct" 10.0 (pct 4) 1.0

let test_opgen_rejects_bad_mix () =
  let dist = Dist.create Dist.Uniform ~n:10 ~seed:1 in
  match
    Opgen.create ~dist
      ~mix:{ Opgen.get = 50; put = 20; scan = 0; delete = 0; rmw = 0 }
      ~seed:1 ()
  with
  | _ -> Alcotest.fail "bad mix accepted"
  | exception Invalid_argument _ -> ()

let prop_put_values_distinct =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"successive put values are distinct"
       QCheck.(int_bound 1_000_000)
       (fun seed ->
         let dist = Dist.create Dist.Uniform ~n:100 ~seed in
         let g =
           Opgen.create ~dist ~mix:(Opgen.read_write ~get_pct:0) ~seed ()
         in
         let seen = Hashtbl.create 64 in
         let ok = ref true in
         for _ = 1 to 200 do
           match Opgen.next g with
           | Opgen.Put (_, v) | Opgen.Rmw (_, v) ->
               if Hashtbl.mem seen v then ok := false;
               Hashtbl.replace seen v ()
           | Opgen.Get _ | Opgen.Scan _ | Opgen.Delete _ -> ()
         done;
         !ok))

(* Regression: the old scramble was [hash rank mod n], which both left
   rank 0 on key 0 (the hottest key never moved) and collapsed distinct
   ranks onto one key.  The fix must be a bijection that displaces 0. *)
let test_scramble_is_bijective () =
  List.iter
    (fun n ->
      let seen = Array.make n false in
      for rank = 0 to n - 1 do
        let key = Dist.scramble n rank in
        if key < 0 || key >= n then
          Alcotest.failf "n=%d rank=%d out of range: %d" n rank key;
        if seen.(key) then Alcotest.failf "n=%d collision on key %d" n key;
        seen.(key) <- true
      done)
    [ 2; 16; 100; 777; 1024; 4096 ]

let test_scramble_moves_rank_zero () =
  List.iter
    (fun n ->
      if Dist.scramble n 0 = 0 then
        Alcotest.failf "n=%d: hottest rank still maps to key 0" n)
    [ 16; 64; 1024; 65536 ]

let prop_scramble_distinct_ranks_distinct_keys =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"scramble keeps distinct ranks distinct"
       QCheck.(triple (int_range 2 8192) (int_bound 100_000) (int_bound 100_000))
       (fun (n, a, b) ->
         let a = a mod n and b = b mod n in
         a = b || Dist.scramble n a <> Dist.scramble n b))

(* The first 16 keys of each sampler at seed 19, as computed before the
   Zipf constants were shared per (n, theta).  The samplers run in this
   order, twice on this domain and once on a pool worker (a fresh table),
   so a table keyed on n alone (the second row) or on theta alone (the
   third) would hand out the wrong constants. *)
let pinned_zipf_streams =
  [
    ( Dist.Zipfian 0.99,
      65536,
      [ 3190; 1; 38; 1; 5602; 40985; 152; 458; 9; 270; 22217; 28442; 7811;
        15529; 5305; 3662 ] );
    ( Dist.Zipfian 0.8,
      65536,
      [ 16541; 19; 868; 8; 21961; 54034; 2593; 5470; 208; 3877; 41578; 46281;
        25792; 35463; 21380; 17755 ] );
    ( Dist.Zipfian 0.99,
      4096,
      [ 391; 1; 13; 0; 605; 2841; 37; 87; 4; 58; 1764; 2138; 783; 1336; 580;
        435 ] );
    ( Dist.Latest 0.99,
      4096,
      [ 3704; 4094; 4082; 4095; 3490; 1254; 4058; 4008; 4091; 4037; 2331;
        1957; 3312; 2759; 3515; 3660 ] );
  ]

let test_zipf_streams_pinned () =
  let draw_all () =
    List.map
      (fun (spec, n, _) ->
        let d = Dist.create spec ~n ~seed:19 in
        List.init 16 (fun _ -> Dist.next d))
      pinned_zipf_streams
  in
  let check where got =
    List.iter2
      (fun (spec, n, want) got ->
        Alcotest.(check (list int))
          (Printf.sprintf "%s n=%d, %s" (Dist.spec_to_string spec) n where)
          want got)
      pinned_zipf_streams got
  in
  check "first creation" (draw_all ());
  check "second creation" (draw_all ());
  match Euno_harness.Pool.map ~domains:2 draw_all [ () ] with
  | [ got ] -> check "pool worker" got
  | _ -> Alcotest.fail "one cell, one result"

let suite =
  [
    Alcotest.test_case "zipf streams pinned across domains" `Quick
      test_zipf_streams_pinned;
    Alcotest.test_case "zipfian matches analytic mass" `Quick
      test_zipf_matches_analytic;
    Alcotest.test_case "zipfian(0) is uniform" `Quick test_zipf_zero_is_uniform;
    Alcotest.test_case "self-similar 80-20" `Quick test_self_similar_80_20;
    Alcotest.test_case "poisson hotspot calibration" `Quick
      test_poisson_hotspot_calibration;
    Alcotest.test_case "normal hotspot is tight" `Quick
      test_normal_hotspot_is_tight;
    Alcotest.test_case "keys always in range" `Quick test_all_keys_in_range;
    Alcotest.test_case "deterministic given seed" `Quick
      test_determinism_same_seed;
    Alcotest.test_case "scrambled variant spreads hot keys" `Quick
      test_scrambled_spreads_hot_keys;
    Alcotest.test_case "latest follows the frontier" `Quick
      test_latest_follows_frontier;
    Alcotest.test_case "op mix proportions" `Quick test_opgen_mix;
    Alcotest.test_case "bad mix rejected" `Quick test_opgen_rejects_bad_mix;
    prop_put_values_distinct;
    Alcotest.test_case "scramble is bijective" `Quick test_scramble_is_bijective;
    Alcotest.test_case "scramble moves rank zero" `Quick
      test_scramble_moves_rank_zero;
    prop_scramble_distinct_ranks_distinct_keys;
  ]
