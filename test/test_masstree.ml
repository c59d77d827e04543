(* Tests of the Masstree-like OLC baseline and HTM-Masstree: model-based
   correctness, invariants, and concurrent atomicity of both sync modes. *)

open Util
module Api = Euno_sim.Api
module Cost = Euno_sim.Cost
module Machine = Euno_sim.Machine
module Mt = Euno_masstree.Masstree
module Hmt = Euno_masstree.Htm_masstree
module IntMap = Map.Make (Int)

let with_tree ?(fanout = 8) w f =
  run_one w (fun () ->
      let t = Mt.create ~fanout ~map:w.map () in
      f t)

let test_insert_get () =
  let w = fresh_world () in
  with_tree w (fun t ->
      for k = 0 to 499 do
        Mt.put t k (k * 5)
      done;
      for k = 0 to 499 do
        if Mt.get t k <> Some (k * 5) then Alcotest.failf "missing %d" k
      done;
      check_bool "absent" true (Mt.get t 9999 = None);
      Mt.check_invariants t;
      check_int "size" 500 (Mt.size t))

let test_update_delete () =
  let w = fresh_world () in
  with_tree w (fun t ->
      for k = 0 to 99 do
        Mt.put t k k
      done;
      Mt.put t 50 1234;
      check_bool "updated" true (Mt.get t 50 = Some 1234);
      check_bool "delete" true (Mt.delete t 50);
      check_bool "gone" true (Mt.get t 50 = None);
      check_bool "re-delete" false (Mt.delete t 50);
      Mt.check_invariants t)

let test_scan () =
  let w = fresh_world () in
  with_tree w (fun t ->
      for k = 0 to 299 do
        Mt.put t (k * 3) k
      done;
      let r = Mt.scan t ~from:30 ~count:10 in
      check_int "length" 10 (List.length r);
      check_bool "starts at 30" true (fst (List.hd r) = 30);
      check_bool "sorted" true
        (List.map fst r = List.sort compare (List.map fst r)))

let prop_model_based =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"masstree matches Map model"
       QCheck.(
         pair (int_bound 1_000_000)
           (list_of_size Gen.(50 -- 300) (pair (int_bound 150) (int_bound 3))))
       (fun (salt, ops) ->
         let w = fresh_world () in
         with_tree w (fun t ->
             let model = ref IntMap.empty in
             let ok = ref true in
             List.iteri
               (fun i (key, kind) ->
                 let key = (key + salt) mod 150 in
                 match kind with
                 | 0 | 3 ->
                     Mt.put t key i;
                     model := IntMap.add key i !model
                 | 1 ->
                     if Mt.get t key <> IntMap.find_opt key !model then
                       ok := false
                 | _ ->
                     if Mt.delete t key <> IntMap.mem key !model then
                       ok := false;
                     model := IntMap.remove key !model)
               ops;
             Mt.check_invariants t;
             !ok && Mt.to_list t = IntMap.bindings !model)))

(* ---------- concurrent, locked mode ---------- *)

let test_concurrent_disjoint_inserts () =
  let w = fresh_world () in
  let t = run_one w (fun () -> Mt.create ~fanout:8 ~map:w.map ()) in
  let threads = 8 and per = 80 in
  let (_ : Machine.t) =
    run_threads ~threads ~cost:Cost.default ~seed:73 w (fun tid ->
        for i = 0 to per - 1 do
          let k = (tid * 10_000) + i in
          Mt.put t k (k * 2)
        done)
  in
  run_one w (fun () ->
      Mt.check_invariants t;
      check_int "all inserted" (threads * per) (Mt.size t);
      for tid = 0 to threads - 1 do
        for i = 0 to per - 1 do
          let k = (tid * 10_000) + i in
          if Mt.get t k <> Some (k * 2) then Alcotest.failf "missing %d" k
        done
      done)

let test_concurrent_hot_updates () =
  let w = fresh_world () in
  let t = run_one w (fun () -> Mt.create ~fanout:8 ~map:w.map ()) in
  run_one w (fun () ->
      for k = 0 to 63 do
        Mt.put t k k
      done);
  let threads = 6 and per = 60 in
  let (_ : Machine.t) =
    run_threads ~threads ~cost:Cost.default ~seed:79 w (fun tid ->
        for i = 1 to per do
          Mt.put t (i mod 4) ((tid * 1000) + i)
        done)
  in
  run_one w (fun () ->
      Mt.check_invariants t;
      for k = 0 to 3 do
        match Mt.get t k with
        | Some v ->
            let tid = v / 1000 and i = v mod 1000 in
            if not (tid >= 0 && tid < threads && i >= 1 && i <= per) then
              Alcotest.failf "impossible value %d at %d" v k
        | None -> Alcotest.failf "key %d vanished" k
      done)

let test_concurrent_readers_during_inserts () =
  let w = fresh_world () in
  let t = run_one w (fun () -> Mt.create ~fanout:8 ~map:w.map ()) in
  run_one w (fun () ->
      for k = 0 to 199 do
        Mt.put t k k
      done);
  let bad = ref 0 in
  let (_ : Machine.t) =
    run_threads ~threads:6 ~cost:Cost.default ~seed:83 w (fun tid ->
        if tid < 3 then
          for i = 0 to 60 do
            Mt.put t (200 + (tid * 1000) + i) i
          done
        else
          for k = 0 to 60 do
            (* Preloaded keys must remain visible through concurrent
               structural changes. *)
            if Mt.get t (k * 3) <> Some (k * 3) then incr bad
          done)
  in
  check_int "readers never miss preloaded keys" 0 !bad

(* Scans racing inserts: versioned hand-over-hand must stay sorted and
   never lose preloaded keys. *)
let test_concurrent_scan_under_churn () =
  let w = fresh_world () in
  let t = run_one w (fun () -> Mt.create ~fanout:8 ~map:w.map ()) in
  run_one w (fun () ->
      for k = 0 to 99 do
        Mt.put t (k * 2) k
      done);
  let bad = ref 0 in
  let (_ : Machine.t) =
    run_threads ~threads:4 ~cost:Cost.default ~seed:87 w (fun tid ->
        if tid < 2 then
          for i = 0 to 60 do
            Mt.put t ((2 * ((tid * 200) + i)) + 1) i
          done
        else
          for _ = 0 to 15 do
            let r = Mt.scan t ~from:0 ~count:80 in
            let keys = List.map fst r in
            if keys <> List.sort_uniq compare keys then incr bad;
            (* even preloaded keys inside the scanned range must appear *)
            (match keys with
            | [] -> incr bad
            | _ ->
                let upto = List.nth keys (List.length keys - 1) in
                for k = 0 to 99 do
                  if 2 * k <= upto && not (List.mem (2 * k) keys) then incr bad
                done)
          done)
  in
  check_int "scans sorted and complete" 0 !bad

let test_bulk_load_roundtrip () =
  let w = fresh_world () in
  let records = List.init 700 (fun i -> (i * 5, i)) in
  let t = run_one w (fun () -> Mt.bulk_load ~fanout:16 ~map:w.map records) in
  run_one w (fun () ->
      Mt.check_invariants t;
      check_bool "contents" true (Mt.to_list t = records);
      Mt.put t 3 33;
      check_bool "insert after bulk load" true (Mt.get t 3 = Some 33);
      Mt.check_invariants t)

(* ---------- HTM-Masstree ---------- *)

let test_htm_masstree_sequential () =
  let w = fresh_world () in
  let t = run_one w (fun () -> Hmt.create ~fanout:8 ~map:w.map ()) in
  run_one w (fun () ->
      for k = 0 to 299 do
        Hmt.put t k (k * 7)
      done;
      for k = 0 to 299 do
        if Hmt.get t k <> Some (k * 7) then Alcotest.failf "missing %d" k
      done;
      check_bool "delete" true (Hmt.delete t 5);
      check_bool "gone" true (Hmt.get t 5 = None);
      Mt.check_invariants (Hmt.tree t))

let test_htm_masstree_concurrent () =
  let w = fresh_world () in
  let t = run_one w (fun () -> Hmt.create ~fanout:8 ~map:w.map ()) in
  let threads = 6 and per = 50 in
  let m =
    run_threads ~threads ~cost:Cost.default ~seed:89 w (fun tid ->
        for i = 0 to per - 1 do
          let k = (tid * 10_000) + i in
          Hmt.put t k k
        done)
  in
  run_one w (fun () ->
      Mt.check_invariants (Hmt.tree t);
      check_int "all inserted" (threads * per) (Mt.size (Hmt.tree t)));
  ignore m

let test_htm_masstree_hot_contention () =
  let w = fresh_world () in
  let t = run_one w (fun () -> Hmt.create ~fanout:8 ~map:w.map ()) in
  run_one w (fun () ->
      for k = 0 to 63 do
        Hmt.put t k k
      done);
  let m =
    run_threads ~threads:8 ~cost:Cost.default ~seed:97 w (fun tid ->
        for i = 1 to 40 do
          Hmt.put t (i mod 4) ((tid * 1000) + i)
        done)
  in
  let s = Machine.aggregate m in
  check_bool "hot contention causes aborts" true (Machine.total_aborts s > 0);
  run_one w (fun () -> Mt.check_invariants (Hmt.tree t))

let test_deterministic_replay () =
  let run () =
    let w = fresh_world () in
    let t = run_one w (fun () -> Mt.create ~fanout:8 ~map:w.map ()) in
    let m =
      run_threads ~threads:4 ~cost:Cost.default ~seed:101 w (fun tid ->
          for i = 0 to 60 do
            Mt.put t ((tid * 500) + i) i
          done)
    in
    (Machine.elapsed m, run_one w (fun () -> Mt.to_list t))
  in
  check_bool "identical replay" true (run () = run ())

(* ---------- negative checker tests ---------- *)

module Memory = Euno_mem.Memory
module Index = Euno_bptree.Index
module L = Euno_bptree.Layout

(* A 300-record tree, its leaf layout, and the leaf covering key 100. *)
let corruptible w =
  let t = with_tree w (fun t ->
      for k = 0 to 299 do
        Mt.put t k k
      done;
      t)
  in
  let leaf = run_one w (fun () -> Index.find_leaf (Mt.index t) 100) in
  (t, L.make ~fanout:8, leaf)

let test_checker_catches_locked_leaf () =
  let w = fresh_world () in
  let t, _, leaf = corruptible w in
  Memory.set w.mem (L.version leaf) (Memory.get w.mem (L.version leaf) lor 1);
  expect_invariant w ~msg:"left locked" (fun () -> Mt.check_invariants t)

let test_checker_catches_overfull_leaf () =
  let w = fresh_world () in
  let t, _, leaf = corruptible w in
  Memory.set w.mem (L.nkeys leaf) 9;
  expect_invariant w ~msg:"overfull" (fun () -> Mt.check_invariants t)

let test_checker_catches_order_across_leaves () =
  let w = fresh_world () in
  let t, lay, a = corruptible w in
  let b = Memory.get w.mem (L.next a) in
  let last = L.record_key lay a (Memory.get w.mem (L.nkeys a) - 1) in
  let first = L.record_key lay b 0 in
  let ka = Memory.get w.mem last in
  Memory.set w.mem last (Memory.get w.mem first);
  Memory.set w.mem first ka;
  expect_invariant w ~msg:"above bound" (fun () -> Mt.check_invariants t)

let suite =
  [
    Alcotest.test_case "insert+get" `Quick test_insert_get;
    Alcotest.test_case "update+delete" `Quick test_update_delete;
    Alcotest.test_case "checker catches a leaf left locked" `Quick
      test_checker_catches_locked_leaf;
    Alcotest.test_case "checker catches an overfull leaf" `Quick
      test_checker_catches_overfull_leaf;
    Alcotest.test_case "checker catches order across leaves" `Quick
      test_checker_catches_order_across_leaves;
    Alcotest.test_case "scan" `Quick test_scan;
    prop_model_based;
    Alcotest.test_case "concurrent disjoint inserts" `Quick
      test_concurrent_disjoint_inserts;
    Alcotest.test_case "concurrent hot updates" `Quick
      test_concurrent_hot_updates;
    Alcotest.test_case "readers during inserts" `Quick
      test_concurrent_readers_during_inserts;
    Alcotest.test_case "scan under churn" `Quick
      test_concurrent_scan_under_churn;
    Alcotest.test_case "bulk load roundtrip" `Quick test_bulk_load_roundtrip;
    Alcotest.test_case "htm-masstree sequential" `Quick
      test_htm_masstree_sequential;
    Alcotest.test_case "htm-masstree concurrent inserts" `Quick
      test_htm_masstree_concurrent;
    Alcotest.test_case "htm-masstree hot contention aborts" `Quick
      test_htm_masstree_hot_contention;
    Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
  ]
