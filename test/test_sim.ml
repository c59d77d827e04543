(* Tests of the simulated multicore: scheduling, RTM semantics (commit
   visibility, rollback, requester-wins conflicts, capacity), strong
   atomicity, determinism, and the PRNG. *)

open Util
module Api = Euno_sim.Api
module Abort = Euno_sim.Abort
module Eff = Euno_sim.Eff
module Machine = Euno_sim.Machine
module Cost = Euno_sim.Cost
module Rng = Euno_sim.Rng
module Sev = Euno_sim.Sev
module Memory = Euno_mem.Memory

let test_single_thread_rw () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let v =
    run_one w (fun () ->
        Api.write a 5;
        Api.write (a + 1) 6;
        Api.read a + Api.read (a + 1))
  in
  check_int "read back" 11 v;
  check_int "visible in memory after run" 5 (Memory.get w.mem a)

let test_txn_commit_visibility () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  run_one w (fun () ->
      Api.xbegin ();
      Api.write a 42;
      (* Buffered: own reads see it... *)
      check_int "read own write" 42 (Api.read a);
      Api.xend ());
  check_int "committed to memory" 42 (Memory.get w.mem a)

let test_txn_explicit_abort_rolls_back () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  run_one w (fun () ->
      Api.write a 1;
      match
        Api.xbegin ();
        Api.write a 99;
        Api.xabort 7;
        Api.read a (* unreachable: xabort delivers Txn_abort here *)
      with
      | _ -> Alcotest.fail "xabort did not abort"
      | exception Eff.Txn_abort (Abort.Explicit 7) -> ()
      | exception Eff.Txn_abort c ->
          Alcotest.failf "wrong code: %s" (Abort.to_string c));
  check_int "write discarded" 1 (Memory.get w.mem a)

let test_xtest () =
  let w = fresh_world () in
  let inside, outside =
    run_one w (fun () ->
        let o = Api.xtest () in
        Api.xbegin ();
        let i = Api.xtest () in
        Api.xend ();
        (i, o))
  in
  check_bool "inside" true inside;
  check_bool "outside" false outside

(* Requester wins: a non-transactional write dooms a transactional reader
   of the same line. *)
let test_nontx_write_dooms_tx_reader () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let flag = scratch w ~words:8 in
  let aborted = ref None in
  let m =
    run_threads ~threads:2 w (fun tid ->
        if tid = 0 then begin
          (match
             Api.xbegin ();
             let (_ : int) = Api.read a in
             (* Busy-wait transactionally until the writer strikes. *)
             let rec wait n =
               if n > 0 && Api.untracked_read flag = 0 then begin
                 Api.work 10;
                 wait (n - 1)
               end
             in
             wait 10_000;
             Api.xend ()
           with
          | () -> ()
          | exception Eff.Txn_abort code -> aborted := Some code);
          ()
        end
        else begin
          Api.work 200;
          (* Attack the reader's read set from outside any transaction. *)
          Api.write a 123;
          Api.untracked_write flag 1
        end)
  in
  (match !aborted with
  | Some (Abort.Conflict _) -> ()
  | Some c -> Alcotest.failf "unexpected code %s" (Abort.to_string c)
  | None -> Alcotest.fail "reader was not doomed");
  let s = Machine.aggregate m in
  check_int "exactly one abort" 1 (Machine.total_aborts s)

(* A transactional write dooms concurrent transactional readers of the
   line; the writer commits. *)
let test_tx_write_dooms_tx_reader () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let flag = scratch w ~words:8 in
  let reader_aborts = ref 0 in
  let (_ : Machine.t) =
    run_threads ~threads:2 w (fun tid ->
        if tid = 0 then
          match
            Api.xbegin ();
            let (_ : int) = Api.read a in
            let rec wait n =
              if n > 0 && Api.untracked_read flag = 0 then begin
                Api.work 10;
                wait (n - 1)
              end
            in
            wait 10_000;
            Api.xend ()
          with
          | () -> ()
          | exception Eff.Txn_abort _ -> incr reader_aborts
        else begin
          Api.work 200;
          Api.xbegin ();
          Api.write a 7;
          Api.xend ();
          Api.untracked_write flag 1
        end)
  in
  check_int "reader doomed once" 1 !reader_aborts;
  check_int "writer committed" 7 (Memory.get w.mem a)

(* Two different words of the same cache line still conflict: the false
   sharing at the heart of the paper's Section 2.3 analysis. *)
let test_false_sharing_same_line () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let flag = scratch w ~words:8 in
  let aborted = ref false in
  let (_ : Machine.t) =
    run_threads ~threads:2 w (fun tid ->
        if tid = 0 then
          match
            Api.xbegin ();
            let (_ : int) = Api.read a in
            let rec wait n =
              if n > 0 && Api.untracked_read flag = 0 then begin
                Api.work 10;
                wait (n - 1)
              end
            in
            wait 10_000;
            Api.xend ()
          with
          | () -> ()
          | exception Eff.Txn_abort _ -> aborted := true
        else begin
          Api.work 200;
          Api.write (a + 7) 1;
          (* same line, different word *)
          Api.untracked_write flag 1
        end)
  in
  check_bool "false sharing detected" true !aborted

(* Words on different lines do not conflict. *)
let test_no_conflict_across_lines () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let b = scratch w ~words:8 in
  let flag = scratch w ~words:8 in
  let aborted = ref false in
  let (_ : Machine.t) =
    run_threads ~threads:2 w (fun tid ->
        if tid = 0 then
          match
            Api.xbegin ();
            let (_ : int) = Api.read a in
            let rec wait n =
              if n > 0 && Api.untracked_read flag = 0 then begin
                Api.work 10;
                wait (n - 1)
              end
            in
            wait 10_000;
            Api.xend ()
          with
          | () -> ()
          | exception Eff.Txn_abort _ -> aborted := true
        else begin
          Api.work 200;
          Api.write b 1;
          Api.untracked_write flag 1
        end)
  in
  check_bool "no abort across lines" false !aborted

let test_capacity_write_abort () =
  let w = fresh_world () in
  let cost =
    {
      Cost.unit_costs with
      Cost.capacity = { Cost.unit_costs.Cost.capacity with Cost.ws_lines = 4 };
    }
  in
  let a = scratch w ~words:(8 * 16) in
  let code =
    run_one ~cost w (fun () ->
        match
          Api.xbegin ();
          for i = 0 to 15 do
            Api.write (a + (i * 8)) i
          done;
          Api.xend ()
        with
        | () -> None
        | exception Eff.Txn_abort c -> Some c)
  in
  (match code with
  | Some Abort.Capacity_write -> ()
  | Some c -> Alcotest.failf "wrong code %s" (Abort.to_string c)
  | None -> Alcotest.fail "no capacity abort");
  check_int "nothing committed" 0 (Memory.get w.mem a)

let test_capacity_read_abort () =
  let w = fresh_world () in
  let cost =
    {
      Cost.unit_costs with
      Cost.capacity = { Cost.unit_costs.Cost.capacity with Cost.rs_lines = 4 };
    }
  in
  let a = scratch w ~words:(8 * 16) in
  let code =
    run_one ~cost w (fun () ->
        match
          Api.xbegin ();
          for i = 0 to 15 do
            ignore (Api.read (a + (i * 8)))
          done;
          Api.xend ()
        with
        | () -> None
        | exception Eff.Txn_abort c -> Some c)
  in
  match code with
  | Some Abort.Capacity_read -> ()
  | Some c -> Alcotest.failf "wrong code %s" (Abort.to_string c)
  | None -> Alcotest.fail "no capacity abort"

(* Conflict granularity: under the coarse-grain capacity model (256-byte
   granules) two *different* lines inside one granule conflict — the
   amplified false sharing the model exists to simulate — while per-line
   tracking (granule_log2 = 0) keeps the same pair independent. *)
let test_conflict_granularity () =
  let run_pair cost =
    let w = fresh_world () in
    let block = scratch w ~words:64 (* 8 consecutive lines *) in
    let l0 = block / 8 in
    (* pick two distinct lines that share one 4-line granule *)
    let i = match l0 mod 4 with 3 -> 1 | _ -> 0 in
    let rd = block + (8 * i) and wr = block + (8 * (i + 1)) in
    let flag = scratch w ~words:8 in
    let aborted = ref false in
    let (_ : Machine.t) =
      run_threads ~threads:2 ~cost w (fun tid ->
          if tid = 0 then
            match
              Api.xbegin ();
              let (_ : int) = Api.read rd in
              let rec wait n =
                if n > 0 && Api.untracked_read flag = 0 then begin
                  Api.work 10;
                  wait (n - 1)
                end
              in
              wait 10_000;
              Api.xend ()
            with
            | () -> ()
            | exception Eff.Txn_abort _ -> aborted := true
          else begin
            Api.work 200;
            Api.write wr 1;
            Api.untracked_write flag 1
          end)
    in
    !aborted
  in
  let coarse = { Cost.unit_costs with Cost.capacity = Cost.coarse_grain } in
  check_bool "adjacent lines collide inside a 256-byte granule" true
    (run_pair coarse);
  check_bool "same pair independent under per-line granules" false
    (run_pair Cost.unit_costs)

(* Capacity is accounted in granule units too: 16 consecutive lines blow
   a 5-entry write set per-line, but fit it when four lines fold into
   each tracked granule. *)
let test_capacity_counts_granules () =
  let attempt cost w a =
    run_one ~cost w (fun () ->
        match
          Api.xbegin ();
          for i = 0 to 15 do
            Api.write (a + (i * 8)) i
          done;
          Api.xend ()
        with
        | () -> None
        | exception Eff.Txn_abort c -> Some c)
  in
  let cap granule_log2 =
    {
      Cost.unit_costs with
      Cost.capacity =
        {
          Cost.unit_costs.Cost.capacity with
          Cost.ws_lines = 5;
          granule_log2;
        };
    }
  in
  let w = fresh_world () in
  let a = scratch w ~words:(8 * 16) in
  (match attempt (cap 0) w a with
  | Some Abort.Capacity_write -> ()
  | Some c -> Alcotest.failf "wrong code %s" (Abort.to_string c)
  | None -> Alcotest.fail "16 lines must blow a 5-line write set");
  let w2 = fresh_world () in
  let a2 = scratch w2 ~words:(8 * 16) in
  match attempt (cap 2) w2 a2 with
  | None ->
      check_int "all 16 lines committed" 15
        (Memory.get w2.mem (a2 + (15 * 8)))
  | Some c ->
      Alcotest.failf "coarse granules still aborted: %s" (Abort.to_string c)

(* N threads, K transactional increments each, via the Htm.atomic wrapper:
   no lost updates whatever interleaving happens. *)
let test_atomic_counter () =
  let w = fresh_world () in
  let counter = scratch w ~words:8 in
  let lock = run_one w (fun () -> Euno_htm.Htm.alloc_lock ()) in
  let threads = 8 and iters = 50 in
  let m =
    run_threads ~threads ~cost:Cost.default ~seed:7 w (fun _tid ->
        for _ = 1 to iters do
          Euno_htm.Htm.atomic ~lock (fun () ->
              Api.write counter (Api.read counter + 1));
          Api.op_done ()
        done)
  in
  check_int "no lost updates" (threads * iters) (Memory.get w.mem counter);
  let s = Machine.aggregate m in
  check_int "all ops done" (threads * iters) s.Machine.s_ops

(* Bank transfer conservation under contention: the classic STM litmus. *)
let test_bank_transfer_conservation () =
  let w = fresh_world () in
  let naccounts = 16 in
  let accounts = scratch w ~words:(8 * naccounts) in
  let lock = run_one w (fun () -> Euno_htm.Htm.alloc_lock ()) in
  run_one w (fun () ->
      for i = 0 to naccounts - 1 do
        Api.write (accounts + (i * 8)) 100
      done);
  let (_ : Machine.t) =
    run_threads ~threads:6 ~cost:Cost.default ~seed:11 w (fun _tid ->
        for _ = 1 to 100 do
          let src = Api.rand naccounts and dst = Api.rand naccounts in
          Euno_htm.Htm.atomic ~lock (fun () ->
              let sa = accounts + (src * 8) and da = accounts + (dst * 8) in
              let sv = Api.read sa in
              if sv > 0 then begin
                Api.write sa (sv - 1);
                Api.write da (Api.read da + 1)
              end)
        done)
  in
  let total = ref 0 in
  for i = 0 to naccounts - 1 do
    total := !total + Memory.get w.mem (accounts + (i * 8))
  done;
  check_int "money conserved" (naccounts * 100) !total

let test_determinism () =
  let run () =
    let w = fresh_world () in
    let counter = scratch w ~words:8 in
    let lock = run_one w (fun () -> Euno_htm.Htm.alloc_lock ()) in
    let m =
      run_threads ~threads:4 ~cost:Cost.default ~seed:123 w (fun _ ->
          for _ = 1 to 40 do
            Euno_htm.Htm.atomic ~lock (fun () ->
                Api.write counter (Api.read counter + 1))
          done)
    in
    let s = Machine.aggregate m in
    (Machine.elapsed m, s.Machine.s_commits, Machine.total_aborts s)
  in
  let r1 = run () and r2 = run () in
  check_bool "identical replay" true (r1 = r2)

let test_clock_monotone_and_costs () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let c0, c1 =
    run_one w (fun () ->
        let c0 = Api.clock () in
        Api.write a 1;
        Api.work 100;
        let c1 = Api.clock () in
        (c0, c1))
  in
  check_bool "clock advanced by at least work" true (c1 - c0 >= 100)

let test_faa () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let old1, old2 =
    run_one w (fun () ->
        let o1 = Api.faa a 5 in
        let o2 = Api.faa a 3 in
        (o1, o2))
  in
  check_int "first faa old" 0 old1;
  check_int "second faa old" 5 old2;
  check_int "final" 8 (Memory.get w.mem a)

let test_nested_txn_rejected () =
  let w = fresh_world () in
  match
    run_one w (fun () ->
        Api.xbegin ();
        Api.xbegin ())
  with
  | () -> Alcotest.fail "nested xbegin accepted"
  | exception Failure _ -> ()

(* An exception raised while interpreting a call is the issuing thread's
   failure: its transaction is cleaned up, the other thread runs to the
   end, and [run] re-raises it.  [injector] picks how often the thread
   yields: [Machine.no_injector] lets it run on while it is the minimum,
   an inert one forces a yield after every call. *)
let interp_error_fails_its_thread ~injector () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let live0 = Alloc.live_bytes w.alloc in
  let finished = ref false in
  let m =
    Machine.create ~threads:2 ~seed:42 ~cost:Cost.unit_costs ~mem:w.mem
      ~map:w.map ~alloc:w.alloc
  in
  Machine.set_injector m injector;
  (match
     Machine.run m (fun tid ->
         if tid = 0 then begin
           Api.xbegin ();
           ignore (Api.alloc ~kind:Linemap.Record ~words:8);
           ignore (Api.rand 0)
         end
         else begin
           for i = 1 to 50 do
             Api.write a i
           done;
           finished := true
         end)
   with
  | () -> Alcotest.fail "Api.rand 0 returned"
  | exception Invalid_argument _ -> ());
  check_int "transactional allocation rolled back" live0
    (Alloc.live_bytes w.alloc);
  check_bool "other thread finished" true !finished

(* [Machine.current] is the running machine inside any run, with or
   without an injector or explorer, and an inner run restores the outer
   one. *)
let test_running_machine_scope () =
  let w = fresh_world () in
  let create () =
    Machine.create ~threads:1 ~seed:42 ~cost:Cost.unit_costs ~mem:w.mem
      ~map:w.map ~alloc:w.alloc
  in
  let is m = match Machine.current () with Some m' -> m' == m | None -> false in
  let off () = Option.is_none (Machine.current ()) in
  check_bool "outside any run" true (off ());
  let plain = create () in
  Machine.run plain (fun _ ->
      check_bool "inside a plain run" true (is plain);
      let inner = ref false in
      Machine.run_single ~mem:w.mem ~map:w.map ~alloc:w.alloc (fun () ->
          inner := (not (off ())) && not (is plain));
      check_bool "inside a nested run" true !inner;
      check_bool "restored after a nested run" true (is plain));
  let injected = create () in
  Machine.set_injector injected inert_injector;
  Machine.run injected (fun _ ->
      check_bool "inside a run with an injector" true (is injected));
  let explored = create () in
  Machine.set_explorer explored (Some (fun ~last:_ ~point:_ ready -> List.hd ready));
  Machine.run explored (fun _ ->
      check_bool "inside a run with an explorer" true (is explored));
  check_bool "cleared after the runs" true (off ())

let test_rng_uniform () =
  let rng = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      if abs (c - (n / 10)) > n / 50 then
        Alcotest.failf "bucket %d skewed: %d" i c)
    buckets

let test_rng_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

(* The SplitMix64 stream is part of every replay: pin its first outputs
   for edge seeds, one draw of each kind in a fixed order.  Per seed:
   two [next]; [int 1000] and [int 7]; one [float]; two [bool]; [next]
   and [int 1_000_000] of a [split] child; then the parent's [next]. *)
let rng_pins =
  [
    (0, [ 4073552104164651883; 1990071630548588925 ], [ 419; 1 ],
     0x1.b39896a51a87p-4, [ false; true ], [ 4221528601935946108; 937863 ],
     1133040290248155824);
    (1, [ 2612804094800205616; 3439311302766607129 ], [ 647; 1 ],
     0x1.c6ed53634406cp-2, [ false; true ], [ 974835164818889539; 853729 ],
     1316676407973089130);
    (-7, [ 1947672806076484188; 2207323703698285738 ], [ 796; 4 ],
     0x1.21bef7b15d6efp-1, [ true; false ], [ 4100771480988555438; 627895 ],
     129795138795309104);
    (max_int, [ 1222659272267685417; 289363092483287935 ], [ 872; 1 ],
     0x1.72a92b1a5ec6ep-1, [ true; false ], [ 3745992758448753745; 619000 ],
     562189076470696132);
    (min_int, [ 168396570873835692; 2294841995765125365 ], [ 453; 2 ],
     0x1.0bc20bbe519aap-1, [ true; false ], [ 4218740590554087902; 762965 ],
     1646633325680653458);
  ]

let test_rng_pinned_stream () =
  List.iter
    (fun (seed, nexts, ints, f, bools, child, after) ->
      let name what = Printf.sprintf "seed %d: %s" seed what in
      let r = Rng.create seed in
      let n1 = Rng.next r in
      let n2 = Rng.next r in
      Alcotest.(check (list int)) (name "next") nexts [ n1; n2 ];
      let i1 = Rng.int r 1000 in
      let i2 = Rng.int r 7 in
      Alcotest.(check (list int)) (name "int") ints [ i1; i2 ];
      check_bool (name "float") true (Rng.float r = f);
      let b1 = Rng.bool r in
      let b2 = Rng.bool r in
      Alcotest.(check (list bool)) (name "bool") bools [ b1; b2 ];
      let c = Rng.split r in
      let c1 = Rng.next c in
      let c2 = Rng.int c 1_000_000 in
      Alcotest.(check (list int)) (name "split") child [ c1; c2 ];
      check_int (name "next after split") after (Rng.next r))
    rng_pins

let prop_spinlock_mutual_exclusion =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"spinlock: no lost update, any seed"
       QCheck.(int_bound 10_000)
       (fun seed ->
         let w = fresh_world () in
         let counter = scratch w ~words:8 in
         let lock = run_one w (fun () -> Euno_sync.Spinlock.alloc ()) in
         let threads = 4 and iters = 25 in
         let (_ : Machine.t) =
           run_threads ~threads ~cost:Cost.default ~seed:(seed + 1) w
             (fun _ ->
               for _ = 1 to iters do
                 Euno_sync.Spinlock.with_lock lock (fun () ->
                     Api.write counter (Api.read counter + 1))
               done)
         in
         Memory.get w.mem counter = threads * iters))

let prop_htm_counter_any_seed =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15 ~name:"htm atomic counter: any seed"
       QCheck.(pair (int_bound 10_000) (int_range 2 8))
       (fun (seed, threads) ->
         let w = fresh_world () in
         let counter = scratch w ~words:8 in
         let lock = run_one w (fun () -> Euno_htm.Htm.alloc_lock ()) in
         let iters = 30 in
         let (_ : Machine.t) =
           run_threads ~threads ~cost:Cost.default ~seed:(seed + 1) w
             (fun _ ->
               for _ = 1 to iters do
                 Euno_htm.Htm.atomic ~lock (fun () ->
                     Api.write counter (Api.read counter + 1))
               done)
         in
         Memory.get w.mem counter = threads * iters))

(* Allocations made inside an aborted transaction must be rolled back to
   the allocator; frees must be deferred to commit. *)
let test_txn_alloc_rollback () =
  let w = fresh_world () in
  run_one w (fun () ->
      let live0 = Euno_mem.Alloc.live_words w.alloc in
      (match
         Api.xbegin ();
         let a = Api.alloc ~kind:Euno_mem.Linemap.Scratch ~words:8 in
         Api.write a 1;
         Api.xabort 1;
         Api.xend ()
       with
      | () -> Alcotest.fail "no abort"
      | exception Eff.Txn_abort _ -> ());
      check_int "allocation rolled back" live0
        (Euno_mem.Alloc.live_words w.alloc);
      (* Frees inside a committed transaction apply at commit. *)
      let b = Api.alloc ~kind:Euno_mem.Linemap.Scratch ~words:8 in
      Api.xbegin ();
      Api.free ~kind:Euno_mem.Linemap.Scratch ~addr:b ~words:8;
      check_bool "free deferred until commit" true
        (Euno_mem.Alloc.live_words w.alloc > live0);
      Api.xend ();
      check_int "free applied at commit" live0
        (Euno_mem.Alloc.live_words w.alloc))

(* A free inside an aborted transaction must NOT happen. *)
let test_txn_free_rolled_back () =
  let w = fresh_world () in
  run_one w (fun () ->
      let a = Api.alloc ~kind:Euno_mem.Linemap.Scratch ~words:8 in
      let live = Euno_mem.Alloc.live_words w.alloc in
      (match
         Api.xbegin ();
         Api.free ~kind:Euno_mem.Linemap.Scratch ~addr:a ~words:8;
         Api.xabort 2;
         Api.xend ()
       with
      | () -> Alcotest.fail "no abort"
      | exception Eff.Txn_abort _ -> ());
      check_int "free discarded on abort" live
        (Euno_mem.Alloc.live_words w.alloc))

let test_timer_abort () =
  let w = fresh_world () in
  let cost = { Cost.unit_costs with Cost.txn_cycle_limit = 100 } in
  let a = scratch w ~words:8 in
  let code =
    run_one ~cost w (fun () ->
        match
          Api.xbegin ();
          Api.work 1000;
          Api.read a
        with
        | (_ : int) -> None
        | exception Eff.Txn_abort c -> Some c)
  in
  match code with
  | Some Abort.Timer -> ()
  | Some c -> Alcotest.failf "wrong code %s" (Abort.to_string c)
  | None -> Alcotest.fail "no timer abort"

let test_spurious_aborts_happen () =
  let w = fresh_world () in
  let cost = { Cost.unit_costs with Cost.spurious_per_million = 100_000 } in
  let a = scratch w ~words:8 in
  let aborts = ref 0 in
  run_one ~cost w (fun () ->
      for _ = 1 to 100 do
        match
          Api.xbegin ();
          for i = 0 to 9 do
            Api.write (a + i) i
          done;
          Api.xend ()
        with
        | () -> ()
        | exception Eff.Txn_abort Abort.Spurious -> incr aborts
        | exception Eff.Txn_abort _ -> ()
      done);
  check_bool "10% spurious rate fires often" true (!aborts > 20)

(* Untracked accesses are invisible to conflict detection. *)
let test_untracked_does_not_conflict () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let flag = scratch w ~words:8 in
  let aborted = ref false in
  let (_ : Machine.t) =
    run_threads ~threads:2 w (fun tid ->
        if tid = 0 then
          match
            Api.xbegin ();
            let (_ : int) = Api.read a in
            let rec wait n =
              if n > 0 && Api.untracked_read flag = 0 then begin
                Api.work 10;
                wait (n - 1)
              end
            in
            wait 5_000;
            Api.xend ()
          with
          | () -> ()
          | exception Eff.Txn_abort _ -> aborted := true
        else begin
          Api.work 100;
          (* Untracked write to the line the reader holds: no doom. *)
          Api.untracked_write a 77;
          Api.untracked_write flag 1
        end)
  in
  check_bool "untracked write did not doom the reader" false !aborted

(* Cross-socket placement shows up in access costs: a line last written on
   the other socket costs remote_extra more to read. *)
let test_numa_remote_cost () =
  let w = fresh_world () in
  let cost = { Cost.default with Cost.spurious_per_million = 0 } in
  let a = scratch w ~words:8 in
  let local_cost = ref 0 and remote_cost = ref 0 in
  let (_ : Machine.t) =
    run_threads ~threads:3 ~cost w (fun tid ->
        (* tid 0 -> socket 0, tid 1 -> socket 1, tid 2 -> socket 0 *)
        if tid = 0 then Api.write a 1 (* socket 0 owns the line *)
        else begin
          Api.work (1000 * tid);
          let t0 = Api.clock () in
          let (_ : int) = Api.read a in
          let d = Api.clock () - t0 in
          if tid = 1 then remote_cost := d else local_cost := d
        end)
  in
  check_bool "remote read costs more" true (!remote_cost > !local_cost)

(* Trace hooks fire at transaction boundaries and conflicts, and never
   change simulated results. *)
let test_trace_events () =
  let run ~traced =
    let w = fresh_world () in
    let a = scratch w ~words:8 in
    let lock = run_one w (fun () -> Euno_htm.Htm.alloc_lock ()) in
    let ring = Euno_sim.Trace.ring ~capacity:128 in
    let m =
      Machine.create ~threads:4 ~seed:17 ~cost:Cost.default ~mem:w.mem
        ~map:w.map ~alloc:w.alloc
    in
    if traced then Machine.set_observer m (Some (Euno_sim.Trace.push ring));
    Machine.run m (fun _ ->
        for _ = 1 to 20 do
          Euno_htm.Htm.atomic ~lock (fun () ->
              Api.work 80;
              Api.write a (Api.read a + 1));
          Api.op_done ()
        done);
    (Machine.elapsed m, ring)
  in
  let cycles_traced, ring = run ~traced:true in
  let cycles_plain, _ = run ~traced:false in
  check_int "tracing does not perturb the simulation" cycles_plain
    cycles_traced;
  let evs = Euno_sim.Trace.events ring in
  let has p = List.exists (fun (e : Sev.event) -> p e.body) evs in
  check_bool "xbegin traced" true
    (has (function Sev.Txn_begin -> true | _ -> false));
  check_bool "commit traced" true
    (has (function Sev.Txn_commit _ -> true | _ -> false));
  check_bool "conflict traced" true
    (has (function Sev.Conflict _ -> true | _ -> false));
  check_bool "abort traced" true
    (has (function Sev.Txn_aborted _ -> true | _ -> false));
  check_bool "renders" true
    (List.for_all
       (fun e -> String.length (Euno_sim.Trace.event_to_string e) > 0)
       evs);
  (* per-thread filter returns only that thread's events *)
  List.iter
    (fun (e : Sev.event) ->
      match e.body with
      | Sev.Txn_begin | Sev.Txn_commit _ -> check_int "filtered tid" 0 e.tid
      | _ -> ())
    (Euno_sim.Trace.for_thread ring 0)

let test_trace_ring_bounded () =
  let ring = Euno_sim.Trace.ring ~capacity:4 in
  for i = 0 to 9 do
    Euno_sim.Trace.push ring { Sev.tid = i; clock = i; body = Sev.Txn_begin }
  done;
  check_int "total counts all" 10 (Euno_sim.Trace.total ring);
  (* per-access kinds are not traced: the ring drops them *)
  Euno_sim.Trace.push ring { Sev.tid = 0; clock = 10; body = Sev.Unsafe_read 0 };
  check_int "untraced kind dropped" 10 (Euno_sim.Trace.total ring);
  let evs = Euno_sim.Trace.events ring in
  check_int "retains capacity" 4 (List.length evs);
  match List.rev evs with
  | { Sev.tid = 9; _ } :: _ -> ()
  | _ -> Alcotest.fail "newest event missing"

(* ---------- periodic counter sampling (telemetry) ---------- *)

(* A contended workload long enough to cross several sampling windows. *)
let run_sampled ?(window = 500) () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let m =
    Machine.create ~threads:4 ~seed:7 ~cost:Cost.default ~mem:w.mem ~map:w.map
      ~alloc:w.alloc
  in
  Machine.set_sampling m ~window;
  Machine.run m (fun _tid ->
      for _ = 1 to 40 do
        Api.work 80;
        Api.write a (Api.read a + 1);
        Api.op_done ()
      done);
  (m, window)

let test_sampling_window_boundaries () =
  let m, window = run_sampled () in
  let samples = Machine.samples m in
  check_bool "several windows crossed" true (List.length samples > 2);
  let elapsed = Machine.elapsed m in
  List.iteri
    (fun i (clock, _) ->
      let is_last = i = List.length samples - 1 in
      if (not is_last) && clock mod window <> 0 then
        Alcotest.failf "sample %d not on a window boundary: %d" i clock;
      if clock > elapsed then
        Alcotest.failf "sample %d beyond end of run: %d > %d" i clock elapsed)
    samples;
  (* clocks strictly increase and the series covers the whole run *)
  let clocks = List.map fst samples in
  check_bool "strictly increasing" true
    (List.for_all2 ( < ) clocks (List.tl clocks @ [ max_int ]));
  check_int "final sample at end of run" elapsed
    (List.nth clocks (List.length clocks - 1))

let test_sampling_counters_cumulative () =
  let m, _ = run_sampled () in
  let samples = Machine.samples m in
  let rec pairwise = function
    | (_, a) :: ((_, b) :: _ as rest) ->
        check_bool "ops monotone" true (a.Machine.s_ops <= b.Machine.s_ops);
        check_bool "commits monotone" true
          (a.Machine.s_commits <= b.Machine.s_commits);
        check_bool "accesses monotone" true
          (a.Machine.s_accesses <= b.Machine.s_accesses);
        pairwise rest
    | _ -> ()
  in
  pairwise samples;
  (* the last cumulative sample equals the end-of-run aggregate *)
  let _, last = List.nth samples (List.length samples - 1) in
  let final = Machine.aggregate m in
  check_int "final ops" final.Machine.s_ops last.Machine.s_ops;
  check_int "final commits" final.Machine.s_commits last.Machine.s_commits

let test_sampling_disabled_by_default () =
  let w = fresh_world () in
  let m =
    Machine.create ~threads:2 ~seed:1 ~cost:Cost.default ~mem:w.mem ~map:w.map
      ~alloc:w.alloc
  in
  Machine.run m (fun _ -> Api.work 100);
  check_int "no samples" 0 (List.length (Machine.samples m))

(* ---------- trace exporters ---------- *)

let traced_ring () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let lock = run_one w (fun () -> Euno_htm.Htm.alloc_lock ()) in
  let ring = Euno_sim.Trace.ring ~capacity:256 in
  let m =
    Machine.create ~threads:2 ~seed:3 ~cost:Cost.default ~mem:w.mem ~map:w.map
      ~alloc:w.alloc
  in
  Machine.set_observer m (Some (Euno_sim.Trace.push ring));
  Machine.run m (fun _tid ->
      for _ = 1 to 10 do
        Euno_htm.Htm.atomic ~lock (fun () ->
            Api.work 60;
            Api.write a (Api.read a + 1));
        Api.op_done ()
      done);
  ring

let test_trace_jsonl_parses () =
  let ring = traced_ring () in
  let lines = Euno_sim.Trace.to_jsonl ring in
  check_bool "has lines" true (lines <> []);
  List.iter
    (fun line ->
      match Euno_stats.Json.of_string line with
      | Ok j ->
          check_bool "has ev tag" true
            (Option.bind (Euno_stats.Json.member "ev" j)
               Euno_stats.Json.as_string
            <> None)
      | Error e -> Alcotest.failf "bad JSONL %s: %s" line e)
    lines

let test_chrome_trace_shape () =
  let ring = traced_ring () in
  let j = Euno_sim.Trace.chrome_trace ring in
  match Option.bind (Euno_stats.Json.member "traceEvents" j)
          Euno_stats.Json.as_list
  with
  | None -> Alcotest.fail "no traceEvents"
  | Some events ->
      check_bool "has events" true (events <> []);
      List.iter
        (fun e ->
          let mem k = Euno_stats.Json.member k e in
          (match Option.bind (mem "ph") Euno_stats.Json.as_string with
          | Some "X" ->
              (* complete events need ts and a positive dur *)
              check_bool "X has dur>0" true
                (match Option.bind (mem "dur") Euno_stats.Json.as_int with
                | Some d -> d > 0
                | None -> false)
          | Some "i" -> ()
          | Some other -> Alcotest.failf "unexpected phase %s" other
          | None -> Alcotest.fail "event without ph");
          check_bool "has ts" true (mem "ts" <> None);
          check_bool "has tid" true (mem "tid" <> None))
        events

let suite =
  [
    Alcotest.test_case "single-thread read/write" `Quick test_single_thread_rw;
    Alcotest.test_case "trace events" `Quick test_trace_events;
    Alcotest.test_case "trace ring bounded" `Quick test_trace_ring_bounded;
    Alcotest.test_case "txn alloc rollback" `Quick test_txn_alloc_rollback;
    Alcotest.test_case "txn free rollback" `Quick test_txn_free_rolled_back;
    Alcotest.test_case "timer abort" `Quick test_timer_abort;
    Alcotest.test_case "spurious aborts" `Quick test_spurious_aborts_happen;
    Alcotest.test_case "untracked accesses don't conflict" `Quick
      test_untracked_does_not_conflict;
    Alcotest.test_case "NUMA remote cost" `Quick test_numa_remote_cost;
    Alcotest.test_case "txn commit visibility" `Quick test_txn_commit_visibility;
    Alcotest.test_case "txn abort rollback" `Quick
      test_txn_explicit_abort_rolls_back;
    Alcotest.test_case "xtest" `Quick test_xtest;
    Alcotest.test_case "strong atomicity: non-tx write dooms reader" `Quick
      test_nontx_write_dooms_tx_reader;
    Alcotest.test_case "tx write dooms tx reader" `Quick
      test_tx_write_dooms_tx_reader;
    Alcotest.test_case "false sharing within a line" `Quick
      test_false_sharing_same_line;
    Alcotest.test_case "no conflict across lines" `Quick
      test_no_conflict_across_lines;
    Alcotest.test_case "capacity abort (write set)" `Quick
      test_capacity_write_abort;
    Alcotest.test_case "capacity abort (read set)" `Quick
      test_capacity_read_abort;
    Alcotest.test_case "conflict granularity" `Quick test_conflict_granularity;
    Alcotest.test_case "capacity counts granules" `Quick
      test_capacity_counts_granules;
    Alcotest.test_case "atomic counter, 8 threads" `Quick test_atomic_counter;
    Alcotest.test_case "bank transfer conservation" `Quick
      test_bank_transfer_conservation;
    Alcotest.test_case "deterministic replay" `Quick test_determinism;
    Alcotest.test_case "clock advances with work" `Quick
      test_clock_monotone_and_costs;
    Alcotest.test_case "fetch-and-add" `Quick test_faa;
    Alcotest.test_case "nested txn rejected" `Quick test_nested_txn_rejected;
    Alcotest.test_case "interpretation error fails its thread" `Quick
      (interp_error_fails_its_thread ~injector:Machine.no_injector);
    Alcotest.test_case "interpretation error fails its thread (yield every call)"
      `Quick
      (interp_error_fails_its_thread ~injector:inert_injector);
    Alcotest.test_case "running machine scope" `Quick test_running_machine_scope;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniform;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng pinned stream" `Quick test_rng_pinned_stream;
    prop_spinlock_mutual_exclusion;
    prop_htm_counter_any_seed;
    Alcotest.test_case "sampling window boundaries" `Quick
      test_sampling_window_boundaries;
    Alcotest.test_case "sampling counters cumulative" `Quick
      test_sampling_counters_cumulative;
    Alcotest.test_case "sampling off by default" `Quick
      test_sampling_disabled_by_default;
    Alcotest.test_case "trace JSONL parses" `Quick test_trace_jsonl_parses;
    Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
  ]
