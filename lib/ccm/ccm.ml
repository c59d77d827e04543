(* Conflict control module (paper Section 4.1, Figure 5) plus the adaptive
   contention detector.

   One CCM sits on a leaf's lock line (a cache line of kind Lock that is
   never touched inside an HTM region, so its CAS traffic cannot doom
   transactions).  It holds:

     - lock bits: fine-grained advisory locks, one per hash slot, that
       serialize concurrent requests to the same key *before* they enter
       the lower HTM region (eliminating true conflicts);
     - mark bits: a one-hash Bloom filter of present keys, letting requests
       for non-existent keys skip the leaf entirely;
     - the contention detector: a decaying conflict counter and a mode word
       that switches the leaf between engaged and bypass (adaptive
       concurrency control, Section 4.1).

   The vector length is twice the leaf capacity, as in the paper (space
   under 5%, false-positive rate under 6%). *)

module Api = Euno_sim.Api
module Sev = Euno_sim.Sev

(* Word offsets within the CCM's line-aligned block.  The mode word lives
   at a caller-chosen address instead (Eunomia puts it on the leaf header
   line, which every operation already reads for the seqno, so checking
   the mode costs no extra cache line). *)
let off_marks = 0
let off_locks = 1
let off_conflicts = 2
let off_ops = 3

let words = 4

type t = { base : int; mode_addr : int; nslots : int }

let max_slots = 62

let make ~base ~mode_addr ~capacity =
  let nslots = min max_slots (2 * capacity) in
  (* The mode word is a benign-race hint by design: operations read it
     plainly while the contention detector writes it plainly, and the
     protocol tolerates stale values (a wrong mode only costs a detour
     through the CCM or one extra conflict).  Register it so the race
     detector does not report it.  (No-op unless the sanitizer is armed;
     host-side, so marks made while preloading carry over.) *)
  Sev.mark_racy mode_addr;
  { base; mode_addr; nslots }

let nslots t = t.nslots

(* Multiplicative hash of a key to a slot (Figure 5's hash function). *)
let hash t key =
  let h = key * 0x9E3779B1 in
  (h lxor (h lsr 16)) land max_int mod t.nslots

(* ---------- bit-vector CAS helpers ---------- *)

let rec set_bit addr bit =
  let cur = Api.read addr in
  if cur land bit <> 0 then false
  else if Api.cas addr ~expected:cur ~desired:(cur lor bit) then true
  else set_bit addr bit

let rec clear_bit addr bit =
  let cur = Api.read addr in
  if cur land bit = 0 then ()
  else if Api.cas addr ~expected:cur ~desired:(cur land lnot bit) then ()
  else clear_bit addr bit

(* ---------- lock bits ---------- *)

(* Sanitizer identity of a slot lock: the lock word's address shifted to
   make room for the slot index (nslots <= 62 < 64), so every (leaf, slot)
   pair is a distinct lock. *)
let slot_lock_id t slot = ((t.base + off_locks) * 64) + slot

let lock_slot t slot =
  let addr = t.base + off_locks in
  let bit = 1 lsl slot in
  (* Backoff state only after a failed try: a free slot costs no allocation. *)
  if not (set_bit addr bit) then begin
    let b = Euno_sync.Backoff.create ~base:24 ~cap:2048 () in
    Euno_sync.Backoff.once b;
    while not (set_bit addr bit) do
      Euno_sync.Backoff.once b
    done
  end;
  if Sev.armed () then Api.san_note (Sev.Acquire (Sev.Slot, slot_lock_id t slot))

let unlock_slot t slot =
  (* Announce before the bit clears: once it does, the next holder's
     acquire note may precede ours in the event stream. *)
  if Sev.armed () then Api.san_note (Sev.Release (Sev.Slot, slot_lock_id t slot));
  clear_bit (t.base + off_locks) (1 lsl slot)

(* ---------- mark bits ---------- *)

let marked t slot = Api.read (t.base + off_marks) land (1 lsl slot) <> 0

let set_mark t slot = ignore (set_bit (t.base + off_marks) (1 lsl slot))
let clear_mark t slot = clear_bit (t.base + off_marks) (1 lsl slot)

let marks_word t = Api.read (t.base + off_marks)

let write_marks t word = Api.write (t.base + off_marks) word

(* OR a precomputed word into the mark vector.  Merging (rather than
   overwriting) can only add false positives, never false negatives, so it
   is safe against concurrent set_mark/clear_mark traffic. *)
let rec merge_marks t word =
  let cur = Api.read (t.base + off_marks) in
  if cur lor word = cur then ()
  else if Api.cas (t.base + off_marks) ~expected:cur ~desired:(cur lor word)
  then ()
  else merge_marks t word

(* ---------- adaptive contention detector ---------- *)

type thresholds = {
  promote_conflicts : int; (* conflicts in a window that engage the CCM *)
  demote_conflicts : int; (* conflicts in a window that disengage it *)
  window_ops : int; (* ops per decay window *)
}

let default_thresholds =
  { promote_conflicts = 3; demote_conflicts = 1; window_ops = 128 }

(* Adaptive mode of a leaf: 0 = bypass; 1 = engaged, mark bits being
   rebuilt; 2 = engaged and mark bits trustworthy.  Lock bits apply from
   mode 1; the absent-key fast path only from mode 2. *)
let mode_bypass = 0
let mode_engaged = 1
let mode_ready = 2

let mode t = Api.read t.mode_addr
let engaged t = mode t <> mode_bypass

(* Mark the rebuild complete — unless a demotion won the race (CAS from
   engaged to ready), in which case the marks stay untrusted. *)
let set_ready t =
  ignore (Api.cas t.mode_addr ~expected:mode_engaged ~desired:mode_ready)

type event = Promoted | Demoted | Unchanged
(* Mode transitions are reported to the caller: on Promoted the tree must
   rebuild this leaf's mark bits (bypass-mode insertions do not maintain
   them) and then call set_ready. *)

(* Record a lower-region conflict abort at this leaf.  Called outside any
   transaction.  Promotes the leaf to engaged mode once the recent-conflict
   count crosses the threshold. *)
let note_conflict t (th : thresholds) =
  let c = Api.faa (t.base + off_conflicts) 1 in
  if c + 1 >= th.promote_conflicts && not (engaged t) then begin
    Api.write t.mode_addr mode_engaged;
    Promoted
  end
  else Unchanged

(* Record completed operations (callers batch; [n] ops at once).  On window
   boundaries, decay the conflict counter and demote to bypass mode if the
   leaf has been quiet. *)
let note_ops t (th : thresholds) n =
  let prev = Api.faa (t.base + off_ops) n in
  if prev / th.window_ops <> (prev + n) / th.window_ops then begin
    let c = Api.read (t.base + off_conflicts) in
    Api.write (t.base + off_conflicts) (c / 2);
    if c / 2 < th.demote_conflicts && engaged t then begin
      Api.write t.mode_addr mode_bypass;
      Demoted
    end
    else if c / 2 >= th.promote_conflicts && not (engaged t) then begin
      Api.write t.mode_addr mode_engaged;
      Promoted
    end
    else Unchanged
  end
  else Unchanged
