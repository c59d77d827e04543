(* Tests of the Euno-B+Tree: model-based correctness under every ablation
   configuration, structural invariants, concurrent atomicity, range
   queries, the CCM, and the adaptive contention detector. *)

open Util
module Api = Euno_sim.Api
module Cost = Euno_sim.Cost
module Machine = Euno_sim.Machine
module Euno = Eunomia.Euno_tree
module Config = Eunomia.Config
module Ccm = Euno_ccm.Ccm
module IntMap = Map.Make (Int)

let all_configs =
  ("full", Config.full)
  :: List.map (fun (n, c) -> (n, c)) Config.ablation_ladder

let with_tree ?(cfg = Config.default) w f =
  run_one w (fun () ->
      let t = Euno.create ~cfg ~map:w.map () in
      f t)

let test_empty () =
  let w = fresh_world () in
  with_tree w (fun t ->
      check_bool "get on empty" true (Euno.get t 7 = None);
      check_bool "delete on empty" false (Euno.delete t 7);
      check_int "size" 0 (Euno.size t);
      Euno.check_invariants t)

let test_insert_get_all_configs () =
  List.iter
    (fun (name, cfg) ->
      let w = fresh_world () in
      with_tree ~cfg w (fun t ->
          for k = 0 to 399 do
            Euno.put t k (k * 3)
          done;
          for k = 0 to 399 do
            if Euno.get t k <> Some (k * 3) then
              Alcotest.failf "[%s] missing key %d" name k
          done;
          if Euno.get t 1_000_000 <> None then
            Alcotest.failf "[%s] phantom key" name;
          Euno.check_invariants t;
          check_int (name ^ " size") 400 (Euno.size t)))
    all_configs

let test_update_overwrites () =
  let w = fresh_world () in
  with_tree w (fun t ->
      Euno.put t 5 1;
      Euno.put t 5 2;
      check_bool "updated" true (Euno.get t 5 = Some 2);
      check_int "no duplicate" 1 (Euno.size t))

let test_descending_inserts () =
  let w = fresh_world () in
  with_tree w (fun t ->
      for k = 299 downto 0 do
        Euno.put t k k
      done;
      Euno.check_invariants t;
      check_int "all present" 300 (Euno.size t))

let test_delete_all_configs () =
  List.iter
    (fun (name, cfg) ->
      let w = fresh_world () in
      with_tree ~cfg w (fun t ->
          for k = 0 to 149 do
            Euno.put t k k
          done;
          for k = 0 to 149 do
            if k mod 3 = 0 then
              if not (Euno.delete t k) then
                Alcotest.failf "[%s] delete %d failed" name k
          done;
          for k = 0 to 149 do
            let expect = if k mod 3 = 0 then None else Some k in
            if Euno.get t k <> expect then
              Alcotest.failf "[%s] wrong presence for %d" name k
          done;
          check_bool "re-delete fails" false (Euno.delete t 0);
          (* Deleted keys can be reinserted. *)
          Euno.put t 0 77;
          check_bool "reinsert" true (Euno.get t 0 = Some 77);
          Euno.check_invariants t))
    all_configs

let test_scan_sorted_and_complete () =
  let w = fresh_world () in
  with_tree w (fun t ->
      for k = 0 to 499 do
        Euno.put t (k * 2) k
      done;
      let r = Euno.scan t ~from:100 ~count:20 in
      check_int "scan length" 20 (List.length r);
      check_bool "starts at 100" true (fst (List.hd r) = 100);
      let keys = List.map fst r in
      check_bool "sorted" true (keys = List.sort compare keys);
      check_bool "consecutive evens" true
        (keys = List.init 20 (fun i -> 100 + (2 * i)));
      let tail = Euno.scan t ~from:990 ~count:50 in
      check_int "tail clipped" 5 (List.length tail))

let prop_model_all_configs =
  List.map
    (fun (name, cfg) ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:30
           ~name:(Printf.sprintf "euno[%s] matches Map model" name)
           QCheck.(
             pair (int_bound 1_000_000)
               (list_of_size Gen.(50 -- 300) (pair (int_bound 150) (int_bound 4))))
           (fun (salt, ops) ->
             let w = fresh_world () in
             with_tree ~cfg w (fun t ->
                 let model = ref IntMap.empty in
                 let ok = ref true in
                 List.iteri
                   (fun i (key, kind) ->
                     let key = (key + salt) mod 150 in
                     match kind with
                     | 0 | 3 ->
                         Euno.put t key i;
                         model := IntMap.add key i !model
                     | 1 ->
                         if Euno.get t key <> IntMap.find_opt key !model then
                           ok := false
                     | 2 ->
                         if Euno.delete t key <> IntMap.mem key !model then
                           ok := false;
                         model := IntMap.remove key !model
                     | _ ->
                         let got = Euno.scan t ~from:key ~count:5 in
                         let expect =
                           IntMap.bindings !model
                           |> List.filter (fun (k, _) -> k >= key)
                           |> List.filteri (fun i _ -> i < 5)
                         in
                         if got <> expect then ok := false)
                   ops;
                 Euno.check_invariants t;
                 !ok && Euno.to_list t = IntMap.bindings !model))))
    all_configs

let prop_invariants_every_step =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"euno invariants after every op"
       QCheck.(list_of_size Gen.(10 -- 150) (int_bound 80))
       (fun keys ->
         let w = fresh_world () in
         with_tree w (fun t ->
             List.iter
               (fun k ->
                 Euno.put t k k;
                 Euno.check_invariants t)
               keys;
             true)))

(* ---------- concurrent ---------- *)

let make_tree w cfg = run_one w (fun () -> Euno.create ~cfg ~map:w.map ())

let preload w t ~n =
  run_one w (fun () ->
      for k = 0 to n - 1 do
        Euno.put t k k
      done)

let test_concurrent_disjoint_inserts_all_configs () =
  List.iter
    (fun (name, cfg) ->
      let w = fresh_world () in
      let t = make_tree w cfg in
      let threads = 6 and per = 80 in
      let (_ : Machine.t) =
        run_threads ~threads ~cost:Cost.default ~seed:31 w (fun tid ->
            for i = 0 to per - 1 do
              let k = (tid * 10_000) + i in
              Euno.put t k (k * 2)
            done)
      in
      run_one w (fun () ->
          Euno.check_invariants t;
          if Euno.size t <> threads * per then
            Alcotest.failf "[%s] lost inserts: %d of %d" name (Euno.size t)
              (threads * per);
          for tid = 0 to threads - 1 do
            for i = 0 to per - 1 do
              let k = (tid * 10_000) + i in
              if Euno.get t k <> Some (k * 2) then
                Alcotest.failf "[%s] missing %d" name k
            done
          done))
    all_configs

let test_concurrent_hot_conflicts () =
  let w = fresh_world () in
  let t = make_tree w Config.full in
  preload w t ~n:64;
  let threads = 8 and per = 60 in
  let (_ : Machine.t) =
    run_threads ~threads ~cost:Cost.default ~seed:37 w (fun tid ->
        for i = 1 to per do
          let k = i mod 4 in
          Euno.put t k ((tid * 1000) + i)
        done)
  in
  run_one w (fun () ->
      Euno.check_invariants t;
      for k = 0 to 3 do
        match Euno.get t k with
        | Some v ->
            let tid = v / 1000 and i = v mod 1000 in
            if not (tid >= 0 && tid < threads && i >= 1 && i <= per) then
              Alcotest.failf "impossible value %d at key %d" v k
        | None -> Alcotest.failf "key %d vanished" k
      done)

(* Concurrent same-key inserts from many threads must never duplicate the
   key (the race the slot locks/HTM must close). *)
let test_concurrent_same_key_insert_no_duplicates () =
  List.iter
    (fun (name, cfg) ->
      let w = fresh_world () in
      let t = make_tree w cfg in
      let (_ : Machine.t) =
        run_threads ~threads:8 ~cost:Cost.default ~seed:41 w (fun tid ->
            for i = 0 to 30 do
              Euno.put t (i mod 8) ((tid * 100) + i)
            done)
      in
      run_one w (fun () ->
          Euno.check_invariants t;
          if Euno.size t <> 8 then
            Alcotest.failf "[%s] duplicates or losses: size %d" name
              (Euno.size t)))
    all_configs

let test_concurrent_mixed_with_deletes () =
  let w = fresh_world () in
  let t = make_tree w Config.full in
  preload w t ~n:200;
  let (_ : Machine.t) =
    run_threads ~threads:6 ~cost:Cost.default ~seed:43 w (fun tid ->
        for i = 1 to 70 do
          let k = Api.rand 300 in
          match (tid + i) mod 4 with
          | 0 -> ignore (Euno.get t k)
          | 1 | 2 -> Euno.put t k ((tid * 10_000) + i)
          | _ -> ignore (Euno.delete t k)
        done)
  in
  run_one w (fun () -> Euno.check_invariants t)

let test_concurrent_scans_sorted () =
  let w = fresh_world () in
  let t = make_tree w Config.full in
  preload w t ~n:150;
  let bad = ref 0 in
  let (_ : Machine.t) =
    run_threads ~threads:4 ~cost:Cost.default ~seed:47 w (fun tid ->
        if tid < 2 then
          for i = 0 to 50 do
            Euno.put t (150 + (tid * 1000) + i) i
          done
        else
          for _ = 0 to 15 do
            let r = Euno.scan t ~from:0 ~count:60 in
            let keys = List.map fst r in
            if keys <> List.sort_uniq compare keys then incr bad
          done)
  in
  check_int "scans always sorted, no duplicates" 0 !bad

(* Mark bits: a get for an absent key on an engaged leaf should be turned
   away without entering the lower region. *)
let test_mark_fastpath_counts () =
  let w = fresh_world () in
  let cfg = Config.ccm_markbits in
  (* adaptive off => CCM always engaged *)
  let t = make_tree w cfg in
  preload w t ~n:10;
  let m =
    run_threads ~threads:1 ~cost:Cost.default ~seed:53 w (fun _ ->
        for k = 1000 to 1063 do
          ignore (Euno.get t k)
        done)
  in
  let s = Machine.snapshot_thread m 0 in
  check_bool "some absent gets short-circuited" true
    (s.Machine.s_user.(Euno.Counter.mark_fastpath) > 0)

(* The adaptive detector engages a hammered leaf and leaves a cold tree
   bypassed. *)
let test_adaptive_detector () =
  let w = fresh_world () in
  let t = make_tree w Config.full in
  preload w t ~n:32;
  let (_ : Machine.t) =
    run_threads ~threads:8 ~cost:Cost.default ~seed:59 w (fun tid ->
        for i = 1 to 80 do
          Euno.put t (i mod 3) ((tid * 100) + i)
        done)
  in
  (* We can't reach leaf internals from here; instead check the tree still
     answers correctly after mode churn. *)
  run_one w (fun () ->
      Euno.check_invariants t;
      for k = 0 to 31 do
        if Euno.get t k = None then Alcotest.failf "key %d lost" k
      done)

let test_splits_and_compactions_happen () =
  let w = fresh_world () in
  let t = make_tree w Config.full in
  let m =
    run_threads ~threads:1 ~cost:Cost.default ~seed:61 w (fun _ ->
        for k = 0 to 599 do
          Euno.put t k k
        done)
  in
  let s = Machine.snapshot_thread m 0 in
  check_bool "splits happened" true (s.Machine.s_user.(Euno.Counter.splits) > 30);
  run_one w (fun () -> Euno.check_invariants t)

let test_deterministic_replay () =
  let run () =
    let w = fresh_world () in
    let t = make_tree w Config.full in
    preload w t ~n:64;
    let m =
      run_threads ~threads:6 ~cost:Cost.default ~seed:67 w (fun tid ->
          for i = 1 to 50 do
            Euno.put t (i mod 8) ((tid * 100) + i)
          done)
    in
    let s = Machine.aggregate m in
    (Machine.elapsed m, s.Machine.s_commits, Machine.total_aborts s,
     run_one w (fun () -> Euno.to_list t))
  in
  check_bool "identical replay" true (run () = run ())

(* Concurrent insert/delete churn on a small key set: the mark-bit
   protocol must never produce a false negative (a present key that a get
   misses).  Runs with the always-engaged markbits config, the most
   demanding setting. *)
let test_concurrent_insert_delete_churn_markbits () =
  List.iter
    (fun cfg_name_cfg ->
      let name, cfg = cfg_name_cfg in
      let w = fresh_world () in
      let t = make_tree w cfg in
      preload w t ~n:32;
      let misses = ref 0 in
      let (_ : Machine.t) =
        run_threads ~threads:8 ~cost:Cost.default ~seed:103 w (fun tid ->
            for i = 1 to 60 do
              let k = (tid + i) mod 12 in
              match i mod 3 with
              | 0 -> ignore (Euno.delete t k)
              | 1 -> Euno.put t k ((tid * 1000) + i)
              | _ -> ignore (Euno.get t k)
            done)
      in
      run_one w (fun () ->
          Euno.check_invariants t;
          (* every key the tree reports live must be gettable: a false
             negative in the marks would break this *)
          List.iter
            (fun (k, v) -> if Euno.get t k <> Some v then incr misses)
            (Euno.to_list t));
      if !misses > 0 then
        Alcotest.failf "[%s] %d false negatives after churn" name !misses)
    [ ("markbits", Config.ccm_markbits); ("full", Config.full) ]

(* Scans racing splits must stay complete: keys that are never deleted
   must appear in every full scan. *)
let test_concurrent_scan_completeness () =
  let w = fresh_world () in
  let t = make_tree w Config.full in
  preload w t ~n:100;
  let incomplete = ref 0 in
  let (_ : Machine.t) =
    run_threads ~threads:4 ~cost:Cost.default ~seed:107 w (fun tid ->
        if tid < 2 then
          for i = 0 to 80 do
            Euno.put t (1000 + (tid * 500) + i) i
          done
        else
          for _ = 0 to 10 do
            let r = Euno.scan t ~from:0 ~count:max_int in
            let keys = List.map fst r in
            (* all 100 preloaded keys must be present in every scan *)
            let ok =
              List.for_all (fun k -> List.mem k keys)
                (List.init 100 (fun i -> i))
            in
            if not ok then incr incomplete
          done)
  in
  check_int "every scan complete" 0 !incomplete

(* Scans racing splits of the very leaves being scanned: the mid-chain
   seqno-stale restart must resume after the last collected key, never
   duplicating records. *)
let test_scan_restart_no_duplicates () =
  List.iter
    (fun seed ->
      let w = fresh_world () in
      let t = make_tree w Config.full in
      preload w t ~n:60;
      let bad = ref 0 in
      let (_ : Machine.t) =
        run_threads ~threads:6 ~cost:Cost.default ~seed w (fun tid ->
            if tid < 4 then
              (* insert into the middle of the scanned range, forcing
                 splits of mid-chain leaves during scans *)
              for i = 0 to 50 do
                Euno.put t (20 + (tid * 1000) + i) i
              done
            else
              for _ = 0 to 20 do
                let r = Euno.scan t ~from:0 ~count:max_int in
                let keys = List.map fst r in
                if keys <> List.sort_uniq compare keys then incr bad
              done)
      in
      if !bad > 0 then
        Alcotest.failf "seed %d: %d scans had duplicates/disorder" seed !bad)
    [ 3; 17; 29; 71 ]

(* Fault injection on the full tree: heavy spurious aborts in both HTM
   regions; the tree must stay correct and lose nothing. *)
let test_euno_under_spurious_aborts () =
  let w = fresh_world () in
  let t = make_tree w Config.full in
  preload w t ~n:64;
  let cost =
    { Cost.default with Euno_sim.Cost.spurious_per_million = 5_000 }
  in
  let (_ : Machine.t) =
    run_threads ~threads:6 ~cost ~seed:113 w (fun tid ->
        for i = 0 to 50 do
          Euno.put t ((tid * 1000) + 64 + i) i
        done)
  in
  run_one w (fun () ->
      Euno.check_invariants t;
      check_int "nothing lost under fault injection" (64 + (6 * 51))
        (Euno.size t))

(* ---------- online maintenance (leaf merging) ---------- *)

let test_maintain_merges_underfull_leaves () =
  let w = fresh_world () in
  with_tree w (fun t ->
      for k = 0 to 599 do
        Euno.put t k k
      done;
      (* delete most records: many underfull leaves *)
      for k = 0 to 599 do
        if k mod 4 <> 0 then ignore (Euno.delete t k)
      done;
      let st_before = Euno.stats t in
      let contents = Euno.to_list t in
      let merges = Euno.maintain t in
      check_bool "merges happened" true (merges > 0);
      Euno.check_invariants t;
      check_bool "contents preserved" true (Euno.to_list t = contents);
      let st_after = Euno.stats t in
      check_bool "fewer leaves" true
        (st_after.Euno.st_leaves < st_before.Euno.st_leaves);
      check_bool "fill improved" true
        (st_after.Euno.st_avg_leaf_fill > st_before.Euno.st_avg_leaf_fill);
      (* tree still fully usable *)
      Euno.put t 1000 1;
      check_bool "usable" true (Euno.get t 1000 = Some 1))

let test_maintain_concurrent_with_ops () =
  let w = fresh_world () in
  (* concurrent maintenance requires epoch-based reclamation *)
  let epoch = Euno_mem.Epoch.create ~slots:8 () in
  let t =
    run_one w (fun () -> Euno.create ~epoch ~cfg:Config.full ~map:w.map ())
  in
  run_one w (fun () ->
      for k = 0 to 799 do
        Euno.put t k k
      done;
      for k = 0 to 799 do
        if k mod 3 <> 0 then ignore (Euno.delete t k)
      done);
  let misses = ref 0 in
  let (_ : Machine.t) =
    run_threads ~threads:6 ~cost:Cost.default ~seed:131 w (fun tid ->
        if tid = 0 then
          (* one maintenance thread merging while others operate *)
          ignore (Euno.maintain t)
        else
          for i = 0 to 80 do
            let k = 3 * ((i + (tid * 40)) mod 260) in
            (* surviving keys must remain visible through merges *)
            (match Euno.get t k with Some _ -> () | None -> incr misses);
            if i mod 7 = 0 then Euno.put t (10_000 + (tid * 100) + i) i
          done)
  in
  check_int "no key lost during online merging" 0 !misses;
  run_one w (fun () -> Euno.check_invariants t)

let test_maintain_with_epoch_defers_reclaim () =
  let w = fresh_world () in
  let epoch = Euno_mem.Epoch.create ~slots:4 () in
  let t =
    run_one w (fun () -> Euno.create ~epoch ~cfg:Config.full ~map:w.map ())
  in
  run_one w (fun () ->
      for k = 0 to 399 do
        Euno.put t k k
      done;
      for k = 0 to 399 do
        if k mod 4 <> 0 then ignore (Euno.delete t k)
      done;
      let live_before = Euno_mem.Alloc.live_words w.alloc in
      let merges = Euno.maintain t in
      check_bool "merges happened" true (merges > 0);
      (* retired but not yet reclaimed: memory still live *)
      check_int "reclaim deferred" live_before
        (Euno_mem.Alloc.live_words w.alloc);
      check_bool "retirements pending" true (Euno_mem.Epoch.pending epoch > 0);
      Euno_mem.Epoch.flush epoch;
      check_bool "reclaimed after quiescence" true
        (Euno_mem.Alloc.live_words w.alloc < live_before);
      Euno.check_invariants t)

(* Regression for the with_epoch exception path: an operation defeated
   mid-flight (injected allocation failure during a split) must unpin its
   epoch slot.  A leaked pin would freeze the global epoch forever, so
   nothing retired afterwards could ever be reclaimed without a flush. *)
let test_epoch_unpinned_after_failed_op () =
  let w = fresh_world () in
  let epoch = Euno_mem.Epoch.create ~slots:1 ~advance_every:1 () in
  let t =
    run_one w (fun () -> Euno.create ~epoch ~cfg:Config.full ~map:w.map ())
  in
  let m =
    Machine.create ~threads:1 ~seed:7 ~cost:Cost.unit_costs ~mem:w.mem
      ~map:w.map ~alloc:w.alloc
  in
  let starve = ref false in
  Machine.set_injector m
    {
      Machine.no_injector with
      inj_alloc_fail = (fun ~tid:_ ~clock:_ ~in_txn:_ -> !starve);
    };
  Machine.run m (fun _ ->
      (* fill one leaf, then starve the allocator so a split dies with
         Alloc_failure inside with_epoch *)
      (try
         for k = 0 to 40 do
           if k = 12 then starve := true;
           Euno.put t k k
         done;
         Alcotest.fail "expected a starved split to fail"
       with Euno_mem.Alloc.Alloc_failure -> ());
      starve := false;
      for k = 13 to 399 do
        Euno.put t k k
      done;
      for k = 0 to 399 do
        if k mod 4 <> 0 then ignore (Euno.delete t k)
      done;
      ignore (Euno.maintain t);
      (* pin/unpin traffic advances the epoch only if the failed
         operation really unpinned its slot *)
      for k = 0 to 99 do
        ignore (Euno.get t k)
      done;
      check_bool "epoch advanced past the failed operation" true
        (Euno_mem.Epoch.freed epoch > 0);
      Euno.check_invariants t)

let prop_maintain_preserves_contents =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:"maintain preserves contents for any delete pattern"
       QCheck.(pair (int_bound 1_000_000) (int_range 50 400))
       (fun (salt, n) ->
         let w = fresh_world () in
         with_tree w (fun t ->
             for k = 0 to n - 1 do
               Euno.put t k k
             done;
             (* pseudo-random deletions *)
             for k = 0 to n - 1 do
               if (k * 2654435761) + salt land 7 < 5 then
                 ignore (Euno.delete t k)
             done;
             let contents = Euno.to_list t in
             let (_ : int) = Euno.maintain t in
             Euno.check_invariants t;
             let once = Euno.to_list t = contents in
             (* idempotent on contents *)
             let (_ : int) = Euno.maintain t in
             Euno.check_invariants t;
             once && Euno.to_list t = contents)))

(* ---------- CCM unit behaviour ---------- *)

let test_ccm_bits () =
  let w = fresh_world () in
  run_one w (fun () ->
      let base =
        Euno_mem.Alloc.alloc w.alloc ~kind:Euno_mem.Linemap.Lock ~words:8
      in
      let c = Ccm.make ~base ~mode_addr:(base + 7) ~capacity:15 in
      check_int "nslots" 30 (Ccm.nslots c);
      let slot = Ccm.hash c 12345 in
      check_bool "slot in range" true (slot >= 0 && slot < 30);
      check_bool "initially unmarked" false (Ccm.marked c slot);
      Ccm.set_mark c slot;
      check_bool "marked" true (Ccm.marked c slot);
      Ccm.clear_mark c slot;
      check_bool "cleared" false (Ccm.marked c slot);
      Ccm.merge_marks c 0b1010;
      check_bool "merged bit 1" true (Ccm.marked c 1);
      check_bool "merged bit 3" true (Ccm.marked c 3);
      check_bool "bit 0 clear" false (Ccm.marked c 0);
      Ccm.lock_slot c 5;
      Ccm.unlock_slot c 5;
      check_bool "hash deterministic" true (Ccm.hash c 42 = Ccm.hash c 42))

let test_ccm_slot_locks_exclusive () =
  let w = fresh_world () in
  let base =
    run_one w (fun () ->
        Euno_mem.Alloc.alloc w.alloc ~kind:Euno_mem.Linemap.Lock ~words:8)
  in
  let counter = scratch w ~words:8 in
  let c = Ccm.make ~base ~mode_addr:(base + 7) ~capacity:15 in
  let threads = 6 and iters = 40 in
  let (_ : Machine.t) =
    run_threads ~threads ~cost:Cost.default ~seed:71 w (fun _ ->
        for _ = 1 to iters do
          Ccm.lock_slot c 3;
          (* Non-atomic increment: only safe if the slot lock excludes. *)
          let v = Api.read counter in
          Api.work 30;
          Api.write counter (v + 1);
          Ccm.unlock_slot c 3
        done)
  in
  check_int "slot lock mutual exclusion"
    (threads * iters)
    (run_one w (fun () -> Api.read counter))

let test_ccm_detector_promotes_and_demotes () =
  let w = fresh_world () in
  run_one w (fun () ->
      let base =
        Euno_mem.Alloc.alloc w.alloc ~kind:Euno_mem.Linemap.Lock ~words:8
      in
      let c = Ccm.make ~base ~mode_addr:(base + 7) ~capacity:15 in
      let th = Ccm.default_thresholds in
      check_bool "starts bypassed" false (Ccm.engaged c);
      let promoted = ref false in
      for _ = 1 to th.Ccm.promote_conflicts do
        match Ccm.note_conflict c th with
        | Ccm.Promoted -> promoted := true
        | Ccm.Demoted | Ccm.Unchanged -> ()
      done;
      check_bool "promoted after conflicts" true !promoted;
      check_bool "engaged" true (Ccm.engaged c);
      (* Quiet windows decay the counter and demote. *)
      let demoted = ref false in
      for _ = 1 to 20 do
        match Ccm.note_ops c th th.Ccm.window_ops with
        | Ccm.Demoted -> demoted := true
        | Ccm.Promoted | Ccm.Unchanged -> ()
      done;
      check_bool "demoted after quiet" true !demoted;
      check_bool "bypassed again" false (Ccm.engaged c))

let test_rebalance_reclaims_nodes () =
  let w = fresh_world () in
  with_tree w (fun t ->
      for k = 0 to 599 do
        Euno.put t k k
      done;
      for k = 0 to 599 do
        if k mod 2 = 0 then ignore (Euno.delete t k)
      done;
      let live_before = Euno_mem.Alloc.live_words w.alloc in
      let contents = Euno.to_list t in
      Euno.rebalance t;
      Euno.check_invariants t;
      check_bool "contents preserved" true (Euno.to_list t = contents);
      check_bool "memory reclaimed" true
        (Euno_mem.Alloc.live_words w.alloc < live_before);
      (* per-kind accounting stays consistent through reclassified frees *)
      List.iter
        (fun kind ->
          let st = Euno_mem.Alloc.stats_of_kind w.alloc kind in
          if st.Euno_mem.Alloc.live_words < 0 then
            Alcotest.failf "negative accounting for %s"
              (Euno_mem.Linemap.kind_to_string kind))
        Euno_mem.Alloc.all_kinds;
      check_bool "counter reset" false (Euno.needs_rebalance t);
      (* the tree still works after maintenance *)
      Euno.put t 1000 1;
      check_bool "usable after rebalance" true (Euno.get t 1000 = Some 1))

let test_needs_rebalance_threshold () =
  let w = fresh_world () in
  with_tree w (fun t ->
      check_bool "fresh tree" false (Euno.needs_rebalance t);
      (* deletes of absent keys do not count *)
      for k = 0 to 99 do
        ignore (Euno.delete t k)
      done;
      check_bool "misses don't count" false (Euno.needs_rebalance t))

let test_bulk_load_all_configs () =
  List.iter
    (fun (name, cfg) ->
      let w = fresh_world () in
      let records = List.init 500 (fun i -> (i * 2, i)) in
      let t = run_one w (fun () -> Euno.bulk_load ~cfg ~map:w.map records) in
      run_one w (fun () ->
          Euno.check_invariants t;
          if Euno.to_list t <> records then Alcotest.failf "[%s] contents" name;
          if Euno.get t 100 <> Some 50 then Alcotest.failf "[%s] hit" name;
          if Euno.get t 101 <> None then Alcotest.failf "[%s] miss" name;
          Euno.put t 101 7;
          if Euno.get t 101 <> Some 7 then Alcotest.failf "[%s] insert" name;
          Euno.check_invariants t))
    all_configs

let test_bulk_load_then_concurrent () =
  let w = fresh_world () in
  let records = List.init 2000 (fun i -> (i, i)) in
  let t =
    run_one w (fun () -> Euno.bulk_load ~cfg:Config.full ~map:w.map records)
  in
  let (_ : Machine.t) =
    run_threads ~threads:8 ~cost:Cost.default ~seed:91 w (fun tid ->
        for i = 0 to 60 do
          Euno.put t ((tid * 4000) + 2000 + i) i
        done)
  in
  run_one w (fun () ->
      Euno.check_invariants t;
      check_int "all present" (2000 + (8 * 61)) (Euno.size t))

let test_tree_stats () =
  let w = fresh_world () in
  with_tree w (fun t ->
      for k = 0 to 299 do
        Euno.put t k k
      done;
      let st = Euno.stats t in
      check_int "records" 300 st.Euno.st_records;
      check_bool "leaves plausible" true
        (st.Euno.st_leaves >= 300 / 15 && st.Euno.st_leaves <= 300 / 5);
      check_bool "fill in (0,1]" true
        (st.Euno.st_avg_leaf_fill > 0.0 && st.Euno.st_avg_leaf_fill <= 1.0);
      check_int "depth consistent" st.Euno.st_depth
        (let rec levels n acc = if n <= 1 then acc else levels (n / 17 + 1) (acc + 1) in
         ignore (levels 1 1);
         st.Euno.st_depth);
      check_bool "internals present" true (st.Euno.st_internals > 0))

let test_iteration_helpers () =
  let w = fresh_world () in
  with_tree w (fun t ->
      check_bool "min of empty" true (Euno.min_binding t = None);
      check_bool "max of empty" true (Euno.max_binding t = None);
      for k = 1 to 50 do
        Euno.put t (k * 2) k
      done;
      check_bool "min" true (Euno.min_binding t = Some (2, 1));
      check_bool "max" true (Euno.max_binding t = Some (100, 50));
      let sum = Euno.fold t ~init:0 ~f:(fun acc _ v -> acc + v) in
      check_int "fold sums values" (50 * 51 / 2) sum;
      let seen = ref 0 in
      Euno.iter t (fun _ _ -> incr seen);
      check_int "iter visits all" 50 !seen)

let test_config_validation () =
  let expect_invalid cfg =
    match Config.validate cfg with
    | (_ : Config.t) -> Alcotest.fail "invalid config accepted"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid { Config.default with Config.fanout = 3 };
  expect_invalid { Config.default with Config.fanout = 7 };
  expect_invalid { Config.default with Config.nsegs = 0 };
  expect_invalid { Config.default with Config.seg_slots = 0 };
  (* mark bits without lock bits break the insert/delete atomicity *)
  expect_invalid
    { Config.default with Config.use_lock_bits = false; use_mark_bits = true };
  (* capacity too large for the CCM bit vectors *)
  expect_invalid { Config.default with Config.nsegs = 8; seg_slots = 8 };
  expect_invalid { Config.default with Config.near_full_margin = 0 };
  check_int "default capacity" 15 (Config.capacity Config.default)

(* ---------- negative checker tests ---------- *)

module Memory = Euno_mem.Memory
module Leaf = Eunomia.Leaf

(* A bulk-loaded 300-record tree (two records per segment), its leaf
   shape, and the leaf covering key 150. *)
let corruptible w =
  let records = List.init 300 (fun k -> (k, k)) in
  let t =
    run_one w (fun () -> Euno.bulk_load ~cfg:Config.default ~map:w.map records)
  in
  let leaf = run_one w (fun () -> Euno.find_leaf t 150) in
  (t, Leaf.shape Config.default ~map:w.map, leaf)

let test_checker_catches_unsorted_segment () =
  let w = fresh_world () in
  let t, s, leaf = corruptible w in
  let a = Leaf.seg_key_addr s leaf 0 0 and b = Leaf.seg_key_addr s leaf 0 1 in
  let ka = Memory.get w.mem a in
  Memory.set w.mem a (Memory.get w.mem b);
  Memory.set w.mem b ka;
  expect_invariant w ~msg:"seg 0: keys not sorted" (fun () ->
      Euno.check_invariants t)

(* Segment 1's smallest key becomes segment 0's: both stay sorted. *)
let test_checker_catches_duplicate_across_segments () =
  let w = fresh_world () in
  let t, s, leaf = corruptible w in
  Memory.set w.mem (Leaf.seg_key_addr s leaf 1 0)
    (Memory.get w.mem (Leaf.seg_key_addr s leaf 0 0));
  expect_invariant w ~msg:"duplicate key" (fun () -> Euno.check_invariants t)

(* A ready-mode leaf promises its marks cover every live key. *)
let test_checker_catches_unmarked_key () =
  let w = fresh_world () in
  let t, s, leaf = corruptible w in
  run_one w (fun () ->
      Api.write (Leaf.mode_addr leaf) Ccm.mode_ready;
      Ccm.write_marks (Leaf.ccm s leaf) 0);
  expect_invariant w ~msg:"not marked" (fun () -> Euno.check_invariants t)

let test_checker_catches_chain_skip () =
  let w = fresh_world () in
  let t, _, leaf = corruptible w in
  let next = Memory.get w.mem (Leaf.next_addr leaf) in
  Memory.set w.mem (Leaf.next_addr leaf) (Memory.get w.mem (Leaf.next_addr next));
  expect_invariant w ~msg:"leaf chain disagrees" (fun () ->
      Euno.check_invariants t)

(* A split lock left held (its owner died mid-split) is reported with its
   leaf, not spun on: the check must end on a stuck tree. *)
let test_checker_catches_held_split_lock () =
  let w = fresh_world () in
  let cfg = { Config.default with Config.fanout = 8 } in
  let records = List.init 200 (fun k -> (k, k)) in
  let t = run_one w (fun () -> Euno.bulk_load ~cfg ~map:w.map records) in
  let leaf = run_one w (fun () -> Euno.find_leaf t 100) in
  run_one w (fun () -> Api.write (Leaf.split_lock_addr leaf) 4);
  expect_invariant w
    ~msg:(Printf.sprintf "leaf %d: split lock held" leaf)
    (fun () -> Euno.check_invariants t)

(* A chain that loops back is cut off after as many leaves as the index
   holds, instead of being followed forever. *)
let test_checker_catches_cyclic_chain () =
  let w = fresh_world () in
  let t, _, leaf = corruptible w in
  let first = run_one w (fun () -> Euno.find_leaf t 0) in
  let rec last l =
    let next = Memory.get w.mem (Leaf.next_addr l) in
    if next = 0 then l else last next
  in
  Memory.set w.mem (Leaf.next_addr (last leaf)) first;
  expect_invariant w ~msg:"leaf chain runs past" (fun () ->
      Euno.check_invariants t)

let suite =
  [
    Alcotest.test_case "empty tree" `Quick test_empty;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "checker catches an unsorted segment" `Quick
      test_checker_catches_unsorted_segment;
    Alcotest.test_case "checker catches a key in two segments" `Quick
      test_checker_catches_duplicate_across_segments;
    Alcotest.test_case "checker catches an unmarked key in ready mode" `Quick
      test_checker_catches_unmarked_key;
    Alcotest.test_case "checker catches a chain skipping a leaf" `Quick
      test_checker_catches_chain_skip;
    Alcotest.test_case "checker catches a held split lock" `Quick
      test_checker_catches_held_split_lock;
    Alcotest.test_case "checker catches a cyclic leaf chain" `Quick
      test_checker_catches_cyclic_chain;
    Alcotest.test_case "iteration helpers" `Quick test_iteration_helpers;
    Alcotest.test_case "tree stats" `Quick test_tree_stats;
    Alcotest.test_case "bulk load under every config" `Quick
      test_bulk_load_all_configs;
    Alcotest.test_case "bulk load then concurrent inserts" `Quick
      test_bulk_load_then_concurrent;
    Alcotest.test_case "rebalance reclaims nodes" `Quick
      test_rebalance_reclaims_nodes;
    Alcotest.test_case "rebalance threshold" `Quick
      test_needs_rebalance_threshold;
    Alcotest.test_case "insert+get under every config" `Quick
      test_insert_get_all_configs;
    Alcotest.test_case "update overwrites" `Quick test_update_overwrites;
    Alcotest.test_case "descending inserts" `Quick test_descending_inserts;
    Alcotest.test_case "delete under every config" `Quick
      test_delete_all_configs;
    Alcotest.test_case "scan sorted and complete" `Quick
      test_scan_sorted_and_complete;
    prop_invariants_every_step;
    Alcotest.test_case "concurrent disjoint inserts (all configs)" `Slow
      test_concurrent_disjoint_inserts_all_configs;
    Alcotest.test_case "concurrent hot conflicts" `Quick
      test_concurrent_hot_conflicts;
    Alcotest.test_case "concurrent same-key inserts: no duplicates" `Slow
      test_concurrent_same_key_insert_no_duplicates;
    Alcotest.test_case "concurrent mixed ops with deletes" `Quick
      test_concurrent_mixed_with_deletes;
    Alcotest.test_case "concurrent scans stay sorted" `Quick
      test_concurrent_scans_sorted;
    Alcotest.test_case "insert/delete churn: no mark false negatives" `Quick
      test_concurrent_insert_delete_churn_markbits;
    Alcotest.test_case "concurrent scan completeness" `Quick
      test_concurrent_scan_completeness;
    Alcotest.test_case "correct under spurious aborts" `Quick
      test_euno_under_spurious_aborts;
    Alcotest.test_case "scan restart never duplicates" `Quick
      test_scan_restart_no_duplicates;
    Alcotest.test_case "maintain merges underfull leaves" `Quick
      test_maintain_merges_underfull_leaves;
    Alcotest.test_case "maintain concurrent with ops" `Quick
      test_maintain_concurrent_with_ops;
    Alcotest.test_case "maintain + epoch defers reclaim" `Quick
      test_maintain_with_epoch_defers_reclaim;
    Alcotest.test_case "epoch unpinned after failed op" `Quick
      test_epoch_unpinned_after_failed_op;
    prop_maintain_preserves_contents;
    Alcotest.test_case "mark-bit fast path fires" `Quick
      test_mark_fastpath_counts;
    Alcotest.test_case "adaptive detector churn is safe" `Quick
      test_adaptive_detector;
    Alcotest.test_case "splits and compactions happen" `Quick
      test_splits_and_compactions_happen;
    Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
    Alcotest.test_case "ccm bit operations" `Quick test_ccm_bits;
    Alcotest.test_case "ccm slot locks are exclusive" `Quick
      test_ccm_slot_locks_exclusive;
    Alcotest.test_case "ccm detector promotes/demotes" `Quick
      test_ccm_detector_promotes_and_demotes;
  ]
  @ prop_model_all_configs
