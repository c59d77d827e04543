(* Unit tests of the scattered-leaf machinery (Eunomia.Leaf): segment
   primitives, locate, reorganization round-trips, and the round-robin
   scatter property that underpins the false-sharing reduction. *)

open Util
module Api = Euno_sim.Api
module Memory = Euno_mem.Memory
module Config = Eunomia.Config
module Leaf = Eunomia.Leaf
module Ccm = Euno_ccm.Ccm

let with_leaf ?(cfg = Config.part_leaf) w f =
  run_one w (fun () ->
      let s = Leaf.shape cfg ~map:w.map in
      let leaf = Leaf.alloc s in
      f s leaf)

let test_fresh_leaf_empty () =
  let w = fresh_world () in
  with_leaf w (fun s leaf ->
      check_int "total count" 0 (Leaf.total_count s leaf);
      check_bool "locate misses" true (Leaf.locate s leaf 42 = None);
      check_bool "gather empty" true (Leaf.gather s leaf = []))

let test_insert_and_locate () =
  let w = fresh_world () in
  with_leaf w (fun s leaf ->
      Leaf.insert_into_seg s leaf 0 10 100;
      Leaf.insert_into_seg s leaf 0 5 50;
      Leaf.insert_into_seg s leaf 2 7 70;
      check_int "count" 3 (Leaf.total_count s leaf);
      (match Leaf.locate s leaf 5 with
      | Some pos -> check_int "value of 5" 50 (Api.read (Leaf.value_addr_of s leaf pos))
      | None -> Alcotest.fail "missing 5");
      (match Leaf.locate s leaf 7 with
      | Some pos -> check_int "value of 7" 70 (Api.read (Leaf.value_addr_of s leaf pos))
      | None -> Alcotest.fail "missing 7");
      check_bool "absent key" true (Leaf.locate s leaf 6 = None);
      (* keys sorted within segment 0 after out-of-order insert *)
      check_int "seg0 first key" 5 (Api.read (Leaf.seg_key_addr s leaf 0 0));
      check_int "seg0 second key" 10 (Api.read (Leaf.seg_key_addr s leaf 0 1)))

let test_remove_at () =
  let w = fresh_world () in
  with_leaf w (fun s leaf ->
      Leaf.insert_into_seg s leaf 1 1 10;
      Leaf.insert_into_seg s leaf 1 2 20;
      Leaf.insert_into_seg s leaf 1 3 30;
      (match Leaf.locate s leaf 2 with
      | Some pos -> Leaf.remove_at s leaf pos
      | None -> Alcotest.fail "missing 2");
      check_int "count after remove" 2 (Leaf.total_count s leaf);
      check_bool "2 gone" true (Leaf.locate s leaf 2 = None);
      check_bool "1 stays" true (Leaf.locate s leaf 1 <> None);
      check_bool "3 stays" true (Leaf.locate s leaf 3 <> None))

let test_gather_sorted () =
  let w = fresh_world () in
  with_leaf w (fun s leaf ->
      List.iteri
        (fun i k -> Leaf.insert_into_seg s leaf (i mod 5) k (k * 2))
        [ 50; 10; 40; 20; 30 ];
      let g = Leaf.gather s leaf in
      check_bool "gather sorted" true
        (List.map fst g = [ 10; 20; 30; 40; 50 ]);
      check_bool "values follow" true (List.map snd g = [ 20; 40; 60; 80; 100 ]))

let check_segments_sorted s leaf =
  for i = 0 to 4 do
    let c = Leaf.seg_count s leaf i in
    for j = 1 to c - 1 do
      if
        Api.read (Leaf.seg_key_addr s leaf i j)
        <= Api.read (Leaf.seg_key_addr s leaf i (j - 1))
      then Alcotest.failf "segment %d unsorted" i
    done
  done

(* The scatter property: after redistribution, keys adjacent in sort
   order land in different segments (hence different cache lines). *)
let test_round_robin_scatter () =
  let w = fresh_world () in
  with_leaf w (fun s leaf ->
      for k = 1 to 10 do
        Leaf.insert_into_seg s leaf (k mod 5) (k * 100) k
      done;
      Leaf.compact s leaf;
      check_int "nothing lost" 10 (Leaf.total_count s leaf);
      let seg_of k =
        match Leaf.locate s leaf k with
        | Some (i, _) -> i
        | None -> Alcotest.failf "lost key %d" k
      in
      let segs = List.init 10 (fun i -> seg_of ((i + 1) * 100)) in
      List.iteri
        (fun i seg ->
          if i > 0 && seg = List.nth segs (i - 1) then
            Alcotest.failf "adjacent keys %d,%d share segment %d" i (i + 1) seg)
        segs;
      (* segments stay internally sorted *)
      check_segments_sorted s leaf)

let test_compact_makes_room () =
  let w = fresh_world () in
  with_leaf w (fun s leaf ->
      (* Fill segment 0 completely, leave others empty: the draw can fail
         even though the leaf has room — compaction must fix that. *)
      Leaf.insert_into_seg s leaf 0 1 1;
      Leaf.insert_into_seg s leaf 0 2 2;
      Leaf.insert_into_seg s leaf 0 3 3;
      check_bool "seg0 full" true (Leaf.seg_full s leaf 0);
      Leaf.compact s leaf;
      check_bool "seg0 no longer full" false (Leaf.seg_full s leaf 0);
      check_int "all kept" 3 (Leaf.total_count s leaf);
      List.iter
        (fun k -> check_bool "still present" true (Leaf.locate s leaf k <> None))
        [ 1; 2; 3 ])

let test_stash_reserved_roundtrip_and_accounting () =
  let w = fresh_world () in
  with_leaf w (fun s leaf ->
      ignore leaf;
      ignore s;
      let live0 = Euno_mem.Alloc.live_words w.alloc in
      let stash =
        Leaf.stash_reserved
          { Leaf.keys = [| 1; 2; 3 |]; vals = [| 10; 20; 30 |]; n = 3 }
      in
      let buf, _ = stash in
      check_int "stash key" 2 (Api.read (buf + 2));
      check_int "stash value" 20 (Api.read (buf + 3));
      check_bool "reserved memory live" true
        (Euno_mem.Alloc.live_words w.alloc > live0);
      Leaf.free_reserved stash;
      check_int "reserved memory freed" live0 (Euno_mem.Alloc.live_words w.alloc))

let test_marks_word_and_collision () =
  let w = fresh_world () in
  with_leaf w (fun s leaf ->
      let c = Leaf.ccm s leaf in
      Leaf.insert_into_seg s leaf 0 11 1;
      Leaf.insert_into_seg s leaf 1 22 2;
      let word = Leaf.marks_word_for c [ 11; 22 ] in
      check_bool "covers key 11" true (word land (1 lsl Ccm.hash c 11) <> 0);
      check_bool "covers key 22" true (word land (1 lsl Ccm.hash c 22) <> 0);
      (* collision query: another key mapping to 11's slot? *)
      let collides =
        Leaf.slot_collision s leaf c ~key:11 ~slot:(Ccm.hash c 11)
      in
      check_bool "collision matches ground truth" true
        (collides = (Ccm.hash c 22 = Ccm.hash c 11)))

let prop_segment_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"leaf segments match a set model"
       QCheck.(list_of_size Gen.(1 -- 14) (int_bound 1000))
       (fun keys ->
         let keys = List.sort_uniq compare keys in
         let w = fresh_world () in
         with_leaf w (fun s leaf ->
             List.iteri
               (fun i k -> Leaf.insert_into_seg s leaf (i mod 5) k (k + 1))
               keys;
             Leaf.compact s leaf;
             List.for_all
               (fun k ->
                 match Leaf.locate s leaf k with
                 | Some pos -> Api.read (Leaf.value_addr_of s leaf pos) = k + 1
                 | None -> false)
               keys
             && Leaf.gather s leaf = List.map (fun k -> (k, k + 1)) keys)))

let suite =
  [
    Alcotest.test_case "fresh leaf empty" `Quick test_fresh_leaf_empty;
    Alcotest.test_case "insert and locate" `Quick test_insert_and_locate;
    Alcotest.test_case "remove at" `Quick test_remove_at;
    Alcotest.test_case "gather sorted" `Quick test_gather_sorted;
    Alcotest.test_case "round-robin scatter" `Quick test_round_robin_scatter;
    Alcotest.test_case "compaction makes room" `Quick test_compact_makes_room;
    Alcotest.test_case "reserved stash roundtrip" `Quick
      test_stash_reserved_roundtrip_and_accounting;
    Alcotest.test_case "marks word and collision" `Quick
      test_marks_word_and_collision;
    prop_segment_model;
  ]
