(* Transactional ownership of cache lines.

   Models the coherence-protocol state real HTM uses for conflict
   detection: each line touched by an active transaction has at most one
   writer (M state) and a bitmask of readers (S state) over thread ids.

   Storage is two flat arrays indexed directly by line number — the hash
   table this replaces cost a lookup (and often an allocation) on every
   simulated access.  Line numbers are small dense integers handed out by
   the allocator, so the arrays grow geometrically to the highest line
   ever owned and are then allocation-free: every operation is one or two
   array reads/writes.  [occupied] counts lines with any owner so [size]
   stays O(1). *)

type t = {
  mutable writer : int array; (* tid or -1, indexed by line *)
  mutable readers : int array; (* bitmask over tids, indexed by line *)
  mutable occupied : int;
}

let max_threads = 62

(* Start small: a machine is created per run_single call on the harness
   fast path, so creation must stay cheap; the arrays double on demand
   and quickly reach a steady size for real workloads. *)
let initial = 64

let create () =
  {
    writer = Array.make initial (-1);
    readers = Array.make initial 0;
    occupied = 0;
  }

(* Grow both arrays to cover [line]; amortized O(1) per distinct line. *)
let grow t line =
  let n = max (2 * Array.length t.writer) (line + 1) in
  let w = Array.make n (-1) and r = Array.make n 0 in
  Array.blit t.writer 0 w 0 (Array.length t.writer);
  Array.blit t.readers 0 r 0 (Array.length t.readers);
  t.writer <- w;
  t.readers <- r

let[@inline] ensure t line = if line >= Array.length t.writer then grow t line

let[@inline] owned t line = t.writer.(line) >= 0 || t.readers.(line) <> 0

let add_reader t line tid =
  ensure t line;
  if not (owned t line) then t.occupied <- t.occupied + 1;
  t.readers.(line) <- t.readers.(line) lor (1 lsl tid)

let set_writer t line tid =
  ensure t line;
  if not (owned t line) then t.occupied <- t.occupied + 1;
  t.writer.(line) <- tid

(* The writing thread of [line], or -1.  Hot path: no option allocation. *)
let[@inline] writer t line =
  if line < Array.length t.writer then t.writer.(line) else -1

let writer_of t line =
  let w = writer t line in
  if w >= 0 then Some w else None

let[@inline] is_reader t line tid =
  line < Array.length t.readers && t.readers.(line) land (1 lsl tid) <> 0

(* Reader tids of [line] except [tid], as a bitmask.  The machine dooms
   them in ascending tid order, so that order is part of the deterministic
   trace. *)
let[@inline] readers_mask_except t line tid =
  if line < Array.length t.readers then t.readers.(line) land lnot (1 lsl tid)
  else 0

let readers_except t line tid =
  let mask = readers_mask_except t line tid in
  List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init max_threads Fun.id)

let remove_thread t line tid =
  if line < Array.length t.writer && owned t line then begin
    if t.writer.(line) = tid then t.writer.(line) <- -1;
    t.readers.(line) <- t.readers.(line) land lnot (1 lsl tid);
    if not (owned t line) then t.occupied <- t.occupied - 1
  end

let clear t =
  Array.fill t.writer 0 (Array.length t.writer) (-1);
  Array.fill t.readers 0 (Array.length t.readers) 0;
  t.occupied <- 0

let size t = t.occupied
