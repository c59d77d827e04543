(* Index-tracked run queue for the machine scheduler.

   The scheduler must always resume the ready thread with the smallest
   (clock, tid) pair — previously found by scanning every thread on every
   step.  This module replaces the scan with a binary min-heap of packed
   (clock, tid) keys: clock in the high bits, tid in the low 6 bits, so
   plain integer comparison is exactly the lexicographic order the scan
   used (smallest clock first, ties to the smallest tid).

   Entries are *lazy*: a parked thread's clock can advance while it waits
   (an attacker charging it the abort penalty), leaving its heap entry
   stale.  Because clocks only ever increase, a stale key is always an
   underestimate, so the true minimum can never be overtaken by it; the
   machine revalidates on pop and re-pushes with the current clock.  This
   keeps push/pop at O(log n) without a decrease-key operation and —
   crucially — picks the exact same thread sequence as the scan did. *)

let tid_bits = 6 (* 2^6 = 64 >= Line_table.max_threads + slack *)
let tid_mask = (1 lsl tid_bits) - 1

let pack ~clock ~tid = (clock lsl tid_bits) lor tid
let tid_of p = p land tid_mask
let clock_of p = p asr tid_bits

type t = { mutable heap : int array; mutable len : int }

let create ~capacity = { heap = Array.make (max 1 capacity) 0; len = 0 }

let clear t = t.len <- 0
let is_empty t = t.len = 0
let length t = t.len

(* The heap functions are annotated [int array]: left polymorphic they
   generalize to ['a array], and every key comparison becomes a C call to
   [caml_lessthan] instead of one integer compare.
   [scripts/check_mono_hot_path.sh] keeps it that way. *)
let swap (h : int array) i j =
  let tmp = h.(i) in
  h.(i) <- h.(j);
  h.(j) <- tmp

let rec sift_up (h : int array) i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.(i) < h.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down (h : int array) len i =
  let l = (2 * i) + 1 in
  if l < len then begin
    let smallest = if l + 1 < len && h.(l + 1) < h.(l) then l + 1 else l in
    if h.(smallest) < h.(i) then begin
      swap h i smallest;
      sift_down h len smallest
    end
  end

let push t ~clock ~tid =
  if t.len = Array.length t.heap then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.heap 0 bigger 0 t.len;
    t.heap <- bigger
  end;
  t.heap.(t.len) <- pack ~clock ~tid;
  t.len <- t.len + 1;
  sift_up t.heap (t.len - 1)

(* Smallest packed key without removing it; raises on empty. *)
let peek t =
  if t.len = 0 then invalid_arg "Sched.peek: empty";
  t.heap.(0)

(* Smallest packed (clock, tid); raises on empty.  Use {!is_empty} first. *)
let pop t =
  if t.len = 0 then invalid_arg "Sched.pop: empty";
  let min = t.heap.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.heap.(0) <- t.heap.(t.len);
    sift_down t.heap t.len 0
  end;
  min

(* Push [key] and pop the minimum in one sift: a key below every entry
   (always the case on an empty heap) is its own minimum and comes straight
   back; otherwise it replaces the root and sifts down.  Keys are unique,
   so this pops exactly what [push] then [pop] would. *)
let exchange t key =
  if t.len = 0 || key < t.heap.(0) then key
  else begin
    let min = t.heap.(0) in
    t.heap.(0) <- key;
    sift_down t.heap t.len 0;
    min
  end
