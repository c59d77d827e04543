(* Direct tests of the shared internal-node index, including negative
   tests that corrupt a tree in simulated memory and check that the
   structural validator actually catches each class of violation. *)

open Util
module Api = Euno_sim.Api
module Memory = Euno_mem.Memory
module Bptree = Euno_bptree.Bptree
module Index = Euno_bptree.Index
module L = Euno_bptree.Layout

let build_tree w ~n =
  run_one w (fun () ->
      let t = Bptree.create ~fanout:8 ~map:w.map () in
      for k = 0 to n - 1 do
        Bptree.put t k k
      done;
      t)

let expect_invariant ?(msg = "") w t =
  Util.expect_invariant w ~msg (fun () -> Bptree.check_invariants t)

let test_checker_accepts_valid () =
  let w = fresh_world () in
  let t = build_tree w ~n:300 in
  run_one w (fun () -> Bptree.check_invariants t)

let test_checker_catches_unsorted_leaf () =
  let w = fresh_world () in
  let t = build_tree w ~n:300 in
  (* Swap two record keys in some leaf, behind the API's back. *)
  let leaf = run_one w (fun () -> Bptree.find_leaf t 150) in
  let lay = L.make ~fanout:8 in
  let k0 = Memory.get w.mem (L.record_key lay leaf 0) in
  let k1 = Memory.get w.mem (L.record_key lay leaf 1) in
  Memory.set w.mem (L.record_key lay leaf 0) k1;
  Memory.set w.mem (L.record_key lay leaf 1) k0;
  expect_invariant w t

let test_checker_catches_bad_parent () =
  let w = fresh_world () in
  let t = build_tree w ~n:300 in
  let leaf = run_one w (fun () -> Bptree.find_leaf t 42) in
  Memory.set w.mem (L.parent leaf) 12345;
  expect_invariant w t

let test_checker_catches_bound_violation () =
  let w = fresh_world () in
  let t = build_tree w ~n:300 in
  let leaf = run_one w (fun () -> Bptree.find_leaf t 150) in
  let lay = L.make ~fanout:8 in
  (* A key far outside the leaf's separator bounds. *)
  Memory.set w.mem (L.record_key lay leaf 0) 100_000;
  expect_invariant w t

let test_checker_catches_broken_chain () =
  let w = fresh_world () in
  let t = build_tree w ~n:300 in
  let leaf = run_one w (fun () -> Bptree.find_leaf t 0) in
  (* Truncate the leaf chain: scan will miss records. *)
  Memory.set w.mem (L.next leaf) 0;
  expect_invariant w t

(* Swap the last key of one leaf with the first of the next: each leaf
   stays sorted, but the pair crosses the separator between them. *)
let test_checker_catches_order_across_leaves () =
  let w = fresh_world () in
  let t = build_tree w ~n:300 in
  let lay = L.make ~fanout:8 in
  let a = run_one w (fun () -> Bptree.find_leaf t 100) in
  let b = Memory.get w.mem (L.next a) in
  let last = L.record_key lay a (Memory.get w.mem (L.nkeys a) - 1) in
  let first = L.record_key lay b 0 in
  let ka = Memory.get w.mem last in
  Memory.set w.mem last (Memory.get w.mem first);
  Memory.set w.mem first ka;
  expect_invariant ~msg:"above bound" w t

(* Point a leaf's next pointer past its successor: every leaf is still
   reachable through the index, but the chain misses one. *)
let test_checker_catches_chain_skip () =
  let w = fresh_world () in
  let t = build_tree w ~n:300 in
  let a = run_one w (fun () -> Bptree.find_leaf t 100) in
  Memory.set w.mem (L.next a) (Memory.get w.mem (L.next (Memory.get w.mem (L.next a))));
  expect_invariant ~msg:"leaf chain misses records" w t

let test_lower_bound_matches_model () =
  let w = fresh_world () in
  run_one w (fun () ->
      let t = Bptree.create ~fanout:16 ~map:w.map () in
      let idx =
        (* exercise Index.lower_bound through an internal node once the
           tree has grown some *)
        for k = 0 to 999 do
          Bptree.put t (2 * k) k
        done;
        Bptree.root t
      in
      ignore idx;
      (* every present key resolves, every absent neighbour does not *)
      for k = 0 to 999 do
        if Bptree.get t (2 * k) <> Some k then Alcotest.failf "missing %d" (2 * k);
        if Bptree.get t ((2 * k) + 1) <> None then
          Alcotest.failf "phantom %d" ((2 * k) + 1)
      done)

let test_split_internal_on_alloc_hook () =
  let w = fresh_world () in
  run_one w (fun () ->
      let t = Bptree.create ~fanout:4 ~map:w.map () in
      (* Grow enough to force internal splits. *)
      let seen = ref 0 in
      ignore seen;
      for k = 0 to 199 do
        Bptree.put t k k
      done;
      (* on_alloc fires on the fresh node before it is linked *)
      let idx_depth = Bptree.depth t in
      check_bool "internal splits happened" true (idx_depth >= 3))

(* Bulk loads pack [per_leaf] records a leaf (70 % of capacity) and put
   the remainder, even a single record, in a last leaf of its own: one
   more record than a leaf takes gives two leaves, the last holding one.
   That shape is part of every preloaded world. *)
let test_bulk_load_chunking () =
  let module Masstree = Euno_masstree.Masstree in
  let module Euno = Eunomia.Euno_tree in
  let module Leaf = Eunomia.Leaf in
  let module Config = Eunomia.Config in
  let records n = List.init n (fun k -> (k, k)) in
  let nkeys leaf = Api.read (L.nkeys leaf) in
  List.iter
    (fun (family, per_leaf, load) ->
      let w = fresh_world () in
      let find_leaf, count =
        run_one w (fun () -> load w (records (per_leaf + 1)))
      in
      run_one w (fun () ->
          let first = find_leaf 0 and last = find_leaf per_leaf in
          check_bool (family ^ ": two leaves") true (first <> last);
          check_int (family ^ ": full first leaf") per_leaf (count first);
          check_int (family ^ ": lone last record") 1 (count last)))
    [
      ( "B+Tree",
        11,
        fun w rs ->
          let t = Bptree.bulk_load ~fanout:16 ~map:w.map rs in
          (Bptree.find_leaf t, nkeys) );
      ( "Masstree",
        11,
        fun w rs ->
          let t = Masstree.bulk_load ~fanout:16 ~map:w.map rs in
          (Index.find_leaf (Masstree.index t), nkeys) );
      ( "Euno-B+Tree",
        10,
        fun w rs ->
          let t = Euno.bulk_load ~cfg:Config.default ~map:w.map rs in
          let shape = Leaf.shape Config.default ~map:w.map in
          (Euno.find_leaf t, Leaf.total_count shape) );
    ]

let suite =
  [
    Alcotest.test_case "bulk loads leave a lone trailing record" `Quick
      test_bulk_load_chunking;
    Alcotest.test_case "checker accepts valid tree" `Quick
      test_checker_accepts_valid;
    Alcotest.test_case "checker catches unsorted leaf" `Quick
      test_checker_catches_unsorted_leaf;
    Alcotest.test_case "checker catches bad parent" `Quick
      test_checker_catches_bad_parent;
    Alcotest.test_case "checker catches bound violation" `Quick
      test_checker_catches_bound_violation;
    Alcotest.test_case "checker catches broken chain" `Quick
      test_checker_catches_broken_chain;
    Alcotest.test_case "checker catches order across leaves" `Quick
      test_checker_catches_order_across_leaves;
    Alcotest.test_case "checker catches a chain skipping a leaf" `Quick
      test_checker_catches_chain_skip;
    Alcotest.test_case "lookups match model through internal levels" `Quick
      test_lower_bound_matches_model;
    Alcotest.test_case "internal splits grow depth" `Quick
      test_split_internal_on_alloc_hook;
  ]
