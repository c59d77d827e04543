(* Unit tests of the fast-path engine structures: the packed-key scheduler
   heap, the flat line-ownership table, the reusable transaction arena's
   versioned clear, and the engine's allocation floor per call.  The
   end-to-end behavior of the machine built from these is covered by
   test_sim.ml and the determinism goldens; these tests pin down each
   structure's own contract, especially the reuse/clear paths a whole-run
   test can miss. *)

open Util
module Sched = Euno_sim.Sched
module Line_table = Euno_sim.Line_table
module Txn = Euno_sim.Txn
module Linemap = Euno_mem.Linemap
module Htm = Euno_htm.Htm

(* ---------- Sched ---------- *)

let test_sched_pack_roundtrip () =
  List.iter
    (fun (clock, tid) ->
      let p = Sched.pack ~clock ~tid in
      check_int "tid" tid (Sched.tid_of p);
      check_int "clock" clock (Sched.clock_of p))
    [ (0, 0); (1, 63); (123456789, 7); (max_int lsr Sched.tid_bits, 61) ]

let drain sched =
  let rec go acc =
    if Sched.is_empty sched then List.rev acc
    else
      let p = Sched.pop sched in
      go ((Sched.clock_of p, Sched.tid_of p) :: acc)
  in
  go []

let test_sched_pop_order () =
  let s = Sched.create ~capacity:4 in
  List.iter
    (fun (clock, tid) -> Sched.push s ~clock ~tid)
    [ (5, 3); (1, 2); (5, 1); (0, 4); (1, 0) ];
  Alcotest.(check (list (pair int int)))
    "sorted by (clock, tid)"
    [ (0, 4); (1, 0); (1, 2); (5, 1); (5, 3) ]
    (drain s)

let test_sched_tie_break () =
  (* Equal clocks must resume the smallest tid: the old linear scan's
     strict-< pick, which the goldens depend on. *)
  let s = Sched.create ~capacity:8 in
  List.iter (fun tid -> Sched.push s ~clock:7 ~tid) [ 9; 2; 30; 0; 17 ];
  Alcotest.(check (list (pair int int)))
    "ties to smallest tid"
    [ (7, 0); (7, 2); (7, 9); (7, 17); (7, 30) ]
    (drain s)

let test_sched_growth_and_clear () =
  let s = Sched.create ~capacity:2 in
  for i = 199 downto 0 do
    Sched.push s ~clock:i ~tid:(i mod 62)
  done;
  check_int "length" 200 (Sched.length s);
  check_int "peek is min" (Sched.pack ~clock:0 ~tid:0) (Sched.peek s);
  let popped = drain s in
  check_int "drained" 200 (List.length popped);
  Alcotest.(check (list (pair int int)))
    "sorted" (List.sort compare popped) popped;
  check_bool "empty after drain" true (Sched.is_empty s);
  Sched.push s ~clock:1 ~tid:1;
  Sched.clear s;
  check_bool "clear empties" true (Sched.is_empty s)

let test_sched_empty_raises () =
  let s = Sched.create ~capacity:1 in
  (match Sched.pop s with
  | _ -> Alcotest.fail "pop on empty should raise"
  | exception Invalid_argument _ -> ());
  match Sched.peek s with
  | _ -> Alcotest.fail "peek on empty should raise"
  | exception Invalid_argument _ -> ()

let test_sched_peek_does_not_remove () =
  let s = Sched.create ~capacity:2 in
  Sched.push s ~clock:9 ~tid:5;
  Sched.push s ~clock:3 ~tid:8;
  check_int "peek" (Sched.pack ~clock:3 ~tid:8) (Sched.peek s);
  check_int "still two entries" 2 (Sched.length s);
  check_int "pop agrees with peek" (Sched.pack ~clock:3 ~tid:8) (Sched.pop s)

let test_sched_exchange_runs_ahead () =
  (* A key below every entry is the minimum: it comes straight back and
     the heap is untouched.  An empty heap returns any key. *)
  let s = Sched.create ~capacity:4 in
  let k = Sched.pack ~clock:4 ~tid:9 in
  check_int "empty: key back" k (Sched.exchange s k);
  check_int "empty: still empty" 0 (Sched.length s);
  List.iter (fun (clock, tid) -> Sched.push s ~clock ~tid) [ (5, 1); (7, 2); (6, 0) ];
  let below = Sched.pack ~clock:5 ~tid:0 in
  check_int "below root: key back" below (Sched.exchange s below);
  check_int "length unchanged" 3 (Sched.length s);
  Alcotest.(check (list (pair int int)))
    "heap untouched"
    [ (5, 1); (6, 0); (7, 2) ]
    (drain s)

(* [exchange] must pop exactly what [push] then [pop] would, and leave a
   heap that drains the same.  Tids are [i * 37 mod 63], distinct for the
   at most 41 entries, with the new key's tid unused; clocks are drawn from
   a small range so ties exercise the tid tie-break.  [pops] entries are
   popped first so the exchange also meets heaps shaped by removals. *)
let prop_sched_exchange =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"sched: exchange = push then pop"
       QCheck.(
         triple (list_of_size Gen.(0 -- 40) (int_bound 20)) (int_bound 25)
           (int_bound 5))
       (fun (clocks, clock, pops) ->
         let tid i = i * 37 mod 63 in
         let build () =
           let s = Sched.create ~capacity:4 in
           List.iteri (fun i clock -> Sched.push s ~clock ~tid:(tid i)) clocks;
           for _ = 1 to min pops (Sched.length s) do
             ignore (Sched.pop s)
           done;
           s
         in
         let key = Sched.pack ~clock ~tid:(tid (List.length clocks)) in
         let a = build () in
         let got = Sched.exchange a key in
         let b = build () in
         Sched.push b ~clock ~tid:(Sched.tid_of key);
         let want = Sched.pop b in
         got = want && drain a = drain b))

(* ---------- Line_table ---------- *)

let test_lt_untouched_lines () =
  let lt = Line_table.create () in
  check_int "no writer" (-1) (Line_table.writer lt 3);
  check_bool "no writer_of" true (Line_table.writer_of lt 3 = None);
  check_bool "not a reader" false (Line_table.is_reader lt 3 0);
  (* Far beyond the initial array: reads must not grow or crash. *)
  check_int "huge line unowned" (-1) (Line_table.writer lt 1_000_000);
  check_int "size" 0 (Line_table.size lt)

let test_lt_readers () =
  let lt = Line_table.create () in
  List.iter (fun tid -> Line_table.add_reader lt 7 tid) [ 4; 1; 61 ];
  check_bool "is_reader" true (Line_table.is_reader lt 7 61);
  check_bool "other line untouched" false (Line_table.is_reader lt 8 4);
  Alcotest.(check (list int))
    "ascending, excluding self" [ 1; 61 ]
    (Line_table.readers_except lt 7 4);
  Alcotest.(check (list int))
    "non-reader exclusion is a no-op" [ 1; 4; 61 ]
    (Line_table.readers_except lt 7 9);
  check_int "one occupied line" 1 (Line_table.size lt)

let test_lt_writer_and_remove () =
  let lt = Line_table.create () in
  Line_table.set_writer lt 100 5;
  (* line 100 is past the initial 64-entry arrays: exercises growth *)
  Line_table.add_reader lt 100 5;
  Line_table.add_reader lt 100 6;
  check_int "writer" 5 (Line_table.writer lt 100);
  Line_table.remove_thread lt 100 5;
  check_int "writer gone" (-1) (Line_table.writer lt 100);
  check_bool "reader bit gone" false (Line_table.is_reader lt 100 5);
  check_bool "other reader kept" true (Line_table.is_reader lt 100 6);
  check_int "still occupied" 1 (Line_table.size lt);
  Line_table.remove_thread lt 100 5;
  (* idempotent: the machine releases read-then-written lines twice *)
  Line_table.remove_thread lt 100 6;
  check_int "empty" 0 (Line_table.size lt);
  Line_table.remove_thread lt 100 6;
  check_int "remove on empty line is a no-op" 0 (Line_table.size lt)

let test_lt_clear () =
  let lt = Line_table.create () in
  Line_table.set_writer lt 1 0;
  Line_table.add_reader lt 2 1;
  Line_table.clear lt;
  check_int "size" 0 (Line_table.size lt);
  check_int "writer cleared" (-1) (Line_table.writer lt 1);
  check_bool "reader cleared" false (Line_table.is_reader lt 2 1)

(* ---------- Txn arena reuse ---------- *)

let collect_writes txn =
  let acc = ref [] in
  Txn.iter_writes txn (fun addr v -> acc := (addr, v) :: !acc);
  List.rev !acc

let collect_lines txn =
  let acc = ref [] in
  Txn.iter_lines txn (fun l -> acc := l :: !acc);
  List.rev !acc

let test_txn_basic () =
  let txn = Txn.create ~tid:3 in
  Txn.reset txn ~start_clock:50;
  check_int "tid" 3 (Txn.tid txn);
  check_int "start clock" 50 (Txn.start_clock txn);
  Txn.note_read txn 10;
  Txn.note_read txn 11;
  Txn.note_write txn 11;
  check_int "reads" 2 (Txn.reads txn);
  check_int "written" 1 (Txn.written txn);
  Txn.buffer_write txn 88 1;
  Txn.buffer_write txn 89 2;
  Txn.buffer_write txn 88 3;
  check_bool "last value wins" true (Txn.buffered_value txn 88 = Some 3);
  check_bool "unwritten addr" true (Txn.buffered_value txn 90 = None);
  Alcotest.(check (list (pair int int)))
    "first-write order, final values"
    [ (88, 3); (89, 2) ]
    (collect_writes txn);
  Alcotest.(check (list int)) "claim order" [ 10; 11; 11 ] (collect_lines txn)

let test_txn_reset_leaks_nothing () =
  (* The arena is reused for every transaction of its thread; a reset must
     behave exactly like a fresh arena even though the O(1) clear only
     bumps the epoch stamp and truncates logs. *)
  let txn = Txn.create ~tid:0 in
  Txn.reset txn ~start_clock:1;
  for i = 0 to 99 do
    Txn.note_read txn i;
    Txn.note_write txn i;
    Txn.buffer_write txn (i * 8) (i + 1000)
  done;
  Txn.record_alloc txn Linemap.Record 512 8;
  Txn.record_free txn Linemap.Record 256 8;
  Txn.record_reclassify txn Linemap.Reserved Linemap.Record 8;
  Txn.reset txn ~start_clock:77;
  check_int "reads cleared" 0 (Txn.reads txn);
  check_int "writes cleared" 0 (Txn.written txn);
  check_int "start clock updated" 77 (Txn.start_clock txn);
  check_bool "alloc log cleared" true (Txn.allocs txn = []);
  check_bool "free log cleared" true (Txn.frees txn = []);
  check_bool "reclassify log cleared" true (Txn.reclassifies txn = []);
  Alcotest.(check (list (pair int int))) "no writes replay" [] (collect_writes txn);
  Alcotest.(check (list int)) "no lines replay" [] (collect_lines txn);
  for i = 0 to 99 do
    check_bool "stale buffered value invisible" true
      (Txn.buffered_value txn (i * 8) = None)
  done;
  (* And the reused arena accepts new state cleanly. *)
  Txn.buffer_write txn 16 9;
  check_bool "fresh write visible" true (Txn.buffered_value txn 16 = Some 9);
  Alcotest.(check (list (pair int int))) "only the fresh write" [ (16, 9) ]
    (collect_writes txn)

let test_txn_buffer_growth () =
  let txn = Txn.create ~tid:1 in
  Txn.reset txn ~start_clock:0;
  let n = 500 in
  for i = 0 to n - 1 do
    Txn.buffer_write txn (i * 3) i
  done;
  for i = 0 to n - 1 do
    check_bool "all retained across growth" true
      (Txn.buffered_value txn (i * 3) = Some i)
  done;
  check_int "replay count" n (List.length (collect_writes txn));
  Alcotest.(check (pair int int)) "first write first" (0, 0)
    (List.hd (collect_writes txn))

(* ---------- engine floor: minor words per call ---------- *)

(* Minor words one call allocates on a pre-built world: a run making
   [calls + 1] of them, net of the same run making one, per call.  Both
   runs build the same machine and pay its first-use growth (the
   transaction arena's buffers), so only the extra calls differ.
   Allocation counts are deterministic, so each row is a ceiling rather
   than a band; the ceilings are the dev-profile counts and hold in
   release too.  One extra allocation per Api call breaks the
   direct-path rows. *)
let calls = 4_096

let words_per_call ~run call =
  let words n =
    let before = Gc.minor_words () in
    run (fun () ->
        for _ = 1 to n do
          call ()
        done);
    Gc.minor_words () -. before
  in
  let one = words 1 in
  (words (calls + 1) -. one) /. float_of_int calls

(* [threads]: how many threads make each call of [run]'s body *)
let check_floor ?(threads = 1) name ~ceiling ~run call =
  let got = words_per_call ~run call /. float_of_int threads in
  if got > ceiling then
    Alcotest.failf "%s: %.2f minor words per call, ceiling %.0f" name got ceiling

let test_floor_direct () =
  let w = fresh_world () in
  let addr = scratch w ~words:8 in
  let run body = run_one w body in
  check_floor "direct read" ~ceiling:0.0 ~run (fun () -> ignore (Api.read addr));
  check_floor "direct write" ~ceiling:0.0 ~run (fun () -> Api.write addr 1);
  check_floor "work 1" ~ceiling:0.0 ~run (fun () -> Api.work 1);
  (* An uncontended lock builds no backoff state. *)
  let lock = run_one w Euno_sync.Spinlock.alloc in
  check_floor "uncontended spinlock acquire + release" ~ceiling:0.0 ~run
    (fun () ->
      Euno_sync.Spinlock.acquire lock;
      Euno_sync.Spinlock.release lock)

(* 16 threads at unit cost: each read leaves its thread behind the parked
   ones, so every call yields and takes a scheduler turn. *)
let test_floor_yield () =
  let w = fresh_world () in
  let addr = scratch w ~words:8 in
  let threads = 16 in
  let run body =
    let m =
      Machine.create ~threads ~seed:1 ~cost:Cost.unit_costs ~mem:w.mem
        ~map:w.map ~alloc:w.alloc
    in
    Machine.run m (fun _ -> body ())
  in
  check_floor ~threads "yield on every call" ~ceiling:4.0 ~run (fun () ->
      ignore (Api.read addr))

(* Per transaction: a one-write elided transaction, and an eight-read one
   under every capacity model, so each model's capacity path is covered. *)
let test_floor_htm () =
  let w = fresh_world () in
  let lock = run_one w (fun () -> Htm.alloc_lock ()) in
  let addr = scratch w ~words:64 in
  (* transaction bodies built once, so the rows count no closure *)
  let write1 () = Api.write addr 1 in
  let read8 () =
    for i = 0 to 7 do
      ignore (Api.read (addr + (i * 8)))
    done
  in
  check_floor "one-write Htm.atomic" ~ceiling:63.0
    ~run:(fun body -> run_one w body)
    (fun () -> Htm.atomic ~lock write1);
  List.iter
    (fun (name, capacity) ->
      let cost = Cost.with_capacity Cost.unit_costs capacity in
      check_floor ("8-read transaction, " ^ name) ~ceiling:63.0
        ~run:(fun body -> run_one ~cost w body)
        (fun () -> Htm.atomic ~lock read8))
    Cost.capacity_models;
  (* The default model's spurious-abort draw, once per transactional
     access, must cost no more words than the unit model's. *)
  check_floor "8-read transaction, Cost.default" ~ceiling:63.0
    ~run:(fun body -> run_one ~cost:Cost.default w body)
    (fun () -> Htm.atomic ~lock read8)

let suite =
  [
    Alcotest.test_case "sched: pack round-trips" `Quick test_sched_pack_roundtrip;
    Alcotest.test_case "sched: pops in (clock, tid) order" `Quick test_sched_pop_order;
    Alcotest.test_case "sched: ties resume smallest tid" `Quick test_sched_tie_break;
    Alcotest.test_case "sched: grows and clears" `Quick test_sched_growth_and_clear;
    Alcotest.test_case "sched: empty pop/peek raise" `Quick test_sched_empty_raises;
    Alcotest.test_case "sched: peek does not remove" `Quick test_sched_peek_does_not_remove;
    Alcotest.test_case "sched: exchange below root runs ahead" `Quick
      test_sched_exchange_runs_ahead;
    prop_sched_exchange;
    Alcotest.test_case "line table: untouched lines unowned" `Quick test_lt_untouched_lines;
    Alcotest.test_case "line table: reader bitmask" `Quick test_lt_readers;
    Alcotest.test_case "line table: writer and idempotent release" `Quick
      test_lt_writer_and_remove;
    Alcotest.test_case "line table: clear" `Quick test_lt_clear;
    Alcotest.test_case "txn: counts, buffering, replay order" `Quick test_txn_basic;
    Alcotest.test_case "txn: O(1) reset leaks nothing" `Quick
      test_txn_reset_leaks_nothing;
    Alcotest.test_case "txn: write buffer growth" `Quick test_txn_buffer_growth;
    Alcotest.test_case "floor: direct read/write/work words per call" `Quick
      test_floor_direct;
    Alcotest.test_case "floor: yield words per call" `Quick test_floor_yield;
    Alcotest.test_case "floor: transaction words per capacity model" `Quick
      test_floor_htm;
  ]
