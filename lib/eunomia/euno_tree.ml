(* Euno-B+Tree: the paper's contribution (Section 4).

   The four Eunomia design guidelines, each switchable via Config:

   1. Split HTM regions (Algorithm 2): the root-to-leaf traversal runs in
      an *upper* RTM region that returns a leaf pointer plus its sequence
      number; the leaf access runs in a separate *lower* region that
      re-validates the sequence number and restarts from the root only if
      the leaf split in between.  Most conflicts therefore retry only the
      small lower region.
   2. Scattered leaves (Algorithm 3): records live in per-cache-line
      segments; a random write scheduler spreads inserts, and
      reorganization distributes sorted records round-robin so adjacent
      keys sit on different lines.
   3. Conflict control module: per-slot advisory lock bits serialize
      same-key requests before they enter the lower region; mark bits turn
      absent-key requests away without touching the leaf.
   4. Adaptive concurrency control: a per-leaf contention detector engages
      the CCM only while the leaf is actually contended.

   Mark-bit protocol (deviations from the paper text, chosen so the filter
   can never produce a false negative — see DESIGN.md):
   - engaged puts set their mark bit *before* entering the lower region;
     bypass-mode puts do not touch the CCM at all;
   - promotion is three-state: bypass -> engaged (lock bits apply, marks
     untrusted) -> ready (marks rebuilt from an atomic snapshot of the
     leaf, so the fast path may trust them).  The mode word shares the
     leaf-header cache line, so the promotion write dooms every in-flight
     lower region on the leaf — a bypass-mode insert can never commit
     unmarked after the rebuild snapshot was taken;
   - deletions never clear mark bits (clearing races with bypass-mode
     inserts); a split rebuilds the new right leaf's marks exactly, inside
     the splitting transaction, which also bounds false-positive build-up;
   - the absent fast path is taken only in ready mode, while holding the
     slot lock, and only after re-validating the leaf sequence number. *)

module Api = Euno_sim.Api
module Abort = Euno_sim.Abort
module Htm = Euno_htm.Htm
module Spinlock = Euno_sync.Spinlock
module Ccm = Euno_ccm.Ccm
module Index = Euno_bptree.Index
module Linemap = Euno_mem.Linemap

(* Test-only mutation switches: reintroduce historical protocol bugs so
   the sanitizer test suite can prove it detects them.  Never set outside
   test code. *)
module Testonly = struct
  (* Domain-local: armed per pool worker, never bleeds across cells. *)
  let leak_locks_on_exn = Euno_sim.Domain_ref.create (fun () -> false)
  (* PR 2 bug: when an exception escapes the lower region, skip the
     exception-path release of the advisory split lock and CCM slot bit. *)
end

(* User-counter indices published by this tree (0-2 belong to Htm). *)
module Counter = struct
  let consistency_retries = 3 (* lower region saw a stale seqno *)
  let mark_fastpath = 4 (* absent-key requests turned away by mark bits *)
  let compactions = 5
  let splits = 6
  let merges = 7 (* maintenance merges of underfull sibling leaves *)

  (* Telemetry labels for the indices this module owns. *)
  let names =
    [
      (consistency_retries, "consistency_retries");
      (mark_fastpath, "mark_fastpath");
      (compactions, "compactions");
      (splits, "splits");
      (merges, "merges");
    ]
end

let () = Euno_sim.Machine.register_user_counters ~owner:"euno_tree" Counter.names

type t = {
  cfg : Config.t;
  shape : Leaf.shape;
  idx : Index.t;
  lock : Htm.lock; (* global fallback lock shared by both regions *)
  mutable deletes : int; (* since the last rebalance (Section 4.2.4) *)
  epoch : Euno_mem.Epoch.t option;
    (* when present, operations pin it and merged-away leaves are retired
       rather than freed (the DBX GC scheme of Section 4.2.4) *)
}

let create ?epoch ~cfg ~map () =
  let cfg = Config.validate cfg in
  let shape = Leaf.shape cfg ~map in
  let root = Leaf.alloc shape in
  {
    cfg;
    shape;
    idx = Index.create ~fanout:cfg.Config.fanout ~map ~root ();
    lock = Htm.alloc_lock ~policy:cfg.Config.policy ();
    deletes = 0;
    epoch;
  }

(* Pin the reclamation epoch (when configured) for the duration of an
   operation, so retired leaves stay mapped while any in-flight operation
   may still dereference them. *)
let with_epoch t f =
  match t.epoch with
  | None -> f ()
  | Some e ->
      let slot = Api.tid () in
      Euno_mem.Epoch.pin e slot;
      (* Unpin on the exception path too: an operation that gives up
         (Stuck_fallback, injected allocation failure) must not leave its
         slot pinned, or the global epoch can never advance again and
         every retired leaf leaks for the rest of the run. *)
      (match f () with
      | result ->
          Euno_mem.Epoch.unpin e slot;
          result
      | exception ex ->
          Euno_mem.Epoch.unpin e slot;
          raise ex)

(* Bulk load sorted, distinct records (the single-threaded YCSB load
   phase): leaves filled round-robin to [fill] of capacity, mark bits
   written exactly, index built bottom-up. *)
let bulk_load ?epoch ?(fill = 0.7) ~cfg ~map records =
  let cfg = Config.validate cfg in
  let shape = Leaf.shape cfg ~map in
  let cap = Config.capacity cfg in
  let per_leaf = max 1 (min cap (int_of_float (fill *. float_of_int cap))) in
  match records with
  | [] -> create ?epoch ~cfg ~map ()
  | _ ->
      let make_leaf chunk =
        let leaf = Leaf.alloc shape in
        Leaf.fill_round_robin shape leaf chunk;
        if cfg.Config.use_mark_bits then begin
          let c = Leaf.ccm shape leaf in
          Ccm.write_marks c (Leaf.marks_word_for c (List.map fst chunk))
        end;
        (fst (List.hd chunk), leaf)
      in
      let leaves = List.map make_leaf (Index.chunk_records per_leaf records) in
      let rec chain = function
        | (_, a) :: ((_, b) :: _ as rest) ->
            Api.write (Leaf.next_addr a) b;
            chain rest
        | [ _ ] | [] -> ()
      in
      chain leaves;
      let idx =
        Index.create ~fanout:cfg.Config.fanout ~map ~root:(snd (List.hd leaves)) ()
      in
      Index.build_levels idx leaves;
      {
        cfg;
        shape;
        idx;
        lock = Htm.alloc_lock ~policy:cfg.Config.policy ();
        deletes = 0;
        epoch;
      }

let config t = t.cfg

type req = R_get | R_put of int | R_del

(* Result of one lower-region execution. *)
type lower =
  | L_stale (* leaf split since the upper region: restart from root *)
  | L_need_lock (* split required but the advisory lock is not held *)
  | L_got of int option
  | L_updated
  | L_inserted
  | L_deleted of bool
  | L_scan of int * int
    (* one leaf gathered: next-leaf pointer, next-leaf seqno *)

(* ---------- upper region (Algorithm 2, lines 23-28) ---------- *)

let upper t key =
  Htm.atomic ~policy:t.cfg.Config.policy ~lock:t.lock (fun () ->
      let leaf = Index.find_leaf t.idx key in
      (leaf, Api.read (Leaf.seqno_addr leaf)))

(* ---------- insertion machinery (Algorithm 3) ---------- *)

(* Random write scheduler: draw a segment, re-drawing (never the same index
   twice in a row) while the draw is full, up to the retry threshold. *)
let schedule t leaf =
  let s = t.shape in
  let nsegs = t.cfg.Config.nsegs in
  let pick last =
    if nsegs = 1 then 0
    else if last < 0 then Api.rand nsegs
    else begin
      let r = Api.rand (nsegs - 1) in
      if r >= last then r + 1 else r
    end
  in
  let rec go idx tries =
    if not (Leaf.seg_full s leaf idx) then Some idx
    else if tries >= t.cfg.Config.sched_retries then None
    else go (pick idx) (tries + 1)
  in
  go (pick (-1)) 0

(* First non-full segment, scanning from a random start (used right after
   compaction or a split, when space is guaranteed). *)
let any_nonfull t leaf =
  let s = t.shape in
  let nsegs = t.cfg.Config.nsegs in
  let start = Api.rand nsegs in
  let rec go i =
    assert (i < nsegs);
    let idx = (start + i) mod nsegs in
    if Leaf.seg_full s leaf idx then go (i + 1) else idx
  in
  go 0

(* Split, inside the lower region and holding the advisory split lock:
   sort everything into a transient reserved buffer, rebuild both halves
   round-robin, bump the sequence number, link the sibling, propagate the
   separator upwards, then place the pending insert (Figure 7). *)
let split_and_insert t leaf key value =
  let s = t.shape in
  Api.count Counter.splits 1;
  let sorted = Leaf.records s in
  Leaf.gather_into s leaf sorted;
  let n = sorted.Leaf.n in
  let stash = Leaf.stash_reserved sorted in
  let buf, _ = stash in
  let right = Leaf.alloc s in
  let mid = n / 2 in
  Leaf.clear_segs s leaf;
  Leaf.redistribute_from s leaf buf ~lo:0 ~n:mid;
  Leaf.redistribute_from s right buf ~lo:mid ~n:(n - mid);
  Api.write (Leaf.next_addr right) (Api.read (Leaf.next_addr leaf));
  Api.write (Leaf.next_addr leaf) right;
  Api.write (Leaf.parent_addr right) (Api.read (Leaf.parent_addr leaf));
  Api.write (Leaf.seqno_addr leaf) (Api.read (Leaf.seqno_addr leaf) + 1);
  let sep = Api.read (buf + (2 * mid)) in
  Leaf.free_reserved stash;
  Index.insert_into_parent t.idx leaf sep right;
  let target = if key < sep then leaf else right in
  if t.cfg.Config.use_mark_bits then begin
    (* The new sibling is invisible until this transaction commits, so its
       mark bits can be written exactly, in-transaction, without conflicting
       with anyone's CCM traffic.  The pending insert is included when it
       lands in the sibling (the pre-region set_mark hit the old CCM). *)
    let right_keys = List.init (n - mid) (fun j -> sorted.Leaf.keys.(mid + j)) in
    let right_keys = if target == right then key :: right_keys else right_keys in
    let cr = Leaf.ccm s right in
    Ccm.write_marks cr (Leaf.marks_word_for cr right_keys)
  end;
  Leaf.insert_into_seg s target (any_nonfull t target) key value

let insert_body t leaf ~lock_held key value =
  let s = t.shape in
  match schedule t leaf with
  | Some idx ->
      Leaf.insert_into_seg s leaf idx key value;
      L_inserted
  | None ->
      let total = Leaf.total_count s leaf in
      if total < Config.capacity t.cfg then begin
        (* Draws failed but space exists: segments are uneven or near-full.
           Reorganize through the reserved buffer, then insert. *)
        Api.count Counter.compactions 1;
        Leaf.compact s leaf;
        Leaf.insert_into_seg s leaf (any_nonfull t leaf) key value;
        L_inserted
      end
      else if not lock_held then L_need_lock
      else begin
        split_and_insert t leaf key value;
        L_inserted
      end

(* ---------- lower region body (Algorithm 2, lines 41-51) ---------- *)

let lower_body t leaf ~seq ~lock_held ~bypass req key =
  let s = t.shape in
  if Api.read (Leaf.seqno_addr leaf) <> seq then L_stale
  else
    match req with
    | R_get -> (
        match Leaf.locate s leaf key with
        | Some pos -> L_got (Some (Api.read (Leaf.value_addr_of s leaf pos)))
        | None -> L_got None)
    | R_del -> (
        match Leaf.locate s leaf key with
        | Some pos ->
            Leaf.remove_at s leaf pos;
            L_deleted true
        | None -> L_deleted false)
    | R_put value -> (
        match Leaf.locate s leaf key with
        | Some pos ->
            Api.write (Leaf.value_addr_of s leaf pos) value;
            L_updated
        | None ->
            (* A bypass-mode insert would not set its mark bit; if the leaf
               was promoted since this operation chose the bypass path, it
               must retry on the engaged path.  (The mode word shares the
               header line, so a promotion also dooms this region; this
               explicit check keeps correctness independent of that layout
               coincidence.) *)
            if bypass && t.cfg.Config.use_mark_bits
               && Api.read (Leaf.mode_addr leaf) <> Ccm.mode_bypass
            then L_stale
            else insert_body t leaf ~lock_held key value)

(* ---------- the two-step traversal (Algorithm 2) ---------- *)

type outcome = O_got of int option | O_put | O_deleted of bool

(* Rebuild a promoted leaf's mark bits from an atomic snapshot, then allow
   the fast path (Ccm.set_ready).  OR-merging tolerates concurrent engaged
   inserts; the header-line promotion write has already doomed any bypass
   insert that could have slipped under the snapshot. *)
let rebuild_marks t leaf c =
  if t.cfg.Config.use_mark_bits then begin
    let keys =
      Htm.atomic ~policy:t.cfg.Config.policy ~lock:t.lock (fun () ->
          Leaf.keys t.shape leaf)
    in
    Ccm.merge_marks c (Leaf.marks_word_for c keys)
  end;
  Ccm.set_ready c

let run_op t req key =
  Api.op_key key;
  let cfg = t.cfg and s = t.shape in
  with_epoch t @@ fun () ->
  let rec attempt ~force_lock =
    let leaf, seq = upper t key in
    let c = Leaf.ccm s leaf in
    let mode =
      if not cfg.Config.adaptive then Ccm.mode_ready else Ccm.mode c
    in
    let engaged = cfg.Config.use_lock_bits && mode <> Ccm.mode_bypass in
    let slot = Ccm.hash c key in
    if engaged then Ccm.lock_slot c slot;
    let unlock () = if engaged then Ccm.unlock_slot c slot in
    (* Mark-bits fast path: a clear bit means the key is definitely absent
       from this leaf; trusting it requires ready mode (marks rebuilt) and
       the leaf to still be the right one, hence the seqno re-check. *)
    let absent =
      engaged && mode = Ccm.mode_ready && cfg.Config.use_mark_bits
      && not (Ccm.marked c slot)
    in
    if absent && Api.read (Leaf.seqno_addr leaf) <> seq then begin
      unlock ();
      attempt ~force_lock:false
    end
    else if absent && req = R_get then begin
      Api.count Counter.mark_fastpath 1;
      unlock ();
      O_got None
    end
    else if absent && req = R_del then begin
      Api.count Counter.mark_fastpath 1;
      unlock ();
      O_deleted false
    end
    else begin
      let is_put = match req with R_put _ -> true | R_get | R_del -> false in
      (* Engaged puts pre-announce their key in the mark bits (never
         cleared on abort or update: false positives only). *)
      if is_put && engaged && cfg.Config.use_mark_bits then Ccm.set_mark c slot;
      (* Near-full inserts serialize on the per-leaf advisory split lock
         (Algorithm 2, lines 39-40).  The count scan runs only when the
         mark bits already prove this put is an insert; otherwise a split
         need is discovered inside the region (L_need_lock) and the retry
         carries [force_lock]. *)
      let lock_held =
        is_put
        && (force_lock
           || absent
              && Leaf.total_count s leaf
                 >= Config.capacity cfg - cfg.Config.near_full_margin)
      in
      if lock_held then Spinlock.acquire (Leaf.split_lock_addr leaf);
      let promoted = ref false in
      let on_abort code =
        if cfg.Config.adaptive && cfg.Config.use_lock_bits
           && Abort.is_data_conflict code
        then
          match Ccm.note_conflict c cfg.Config.ccm_thresholds with
          | Ccm.Promoted -> promoted := true
          | Ccm.Demoted | Ccm.Unchanged -> ()
      in
      let result =
        match
          Htm.atomic ~policy:cfg.Config.policy ~on_abort ~lock:t.lock
            (fun () ->
              lower_body t leaf ~seq ~lock_held ~bypass:(not engaged) req key)
        with
        | r -> r
        | exception e ->
            (* Graceful-degradation contract: an operation that gives up
               (Stuck_fallback, injected allocation failure) must not leak
               its advisory locks — a leaked split lock or CCM slot bit
               would hang every later operation that needs it. *)
            if not (Euno_sim.Domain_ref.get Testonly.leak_locks_on_exn) then begin
              if lock_held then Spinlock.release (Leaf.split_lock_addr leaf);
              unlock ()
            end;
            raise e
      in
      if lock_held then Spinlock.release (Leaf.split_lock_addr leaf);
      unlock ();
      if cfg.Config.adaptive && cfg.Config.use_lock_bits && Api.rand 8 = 0
      then begin
        match Ccm.note_ops c cfg.Config.ccm_thresholds 8 with
        | Ccm.Promoted -> promoted := true
        | Ccm.Demoted | Ccm.Unchanged -> ()
      end;
      if !promoted then rebuild_marks t leaf c;
      match result with
      | L_stale ->
          Api.count Counter.consistency_retries 1;
          attempt ~force_lock:false
      | L_need_lock -> attempt ~force_lock:true
      | L_got v -> O_got v
      | L_updated | L_inserted -> O_put
      | L_deleted found -> O_deleted found
      | L_scan _ -> assert false
    end
  in
  attempt ~force_lock:false

let get t key =
  match run_op t R_get key with
  | O_got v -> v
  | O_put | O_deleted _ -> assert false

let put t key value =
  match run_op t (R_put value) key with
  | O_put -> ()
  | O_got _ | O_deleted _ -> assert false

let delete t key =
  match run_op t R_del key with
  | O_deleted found ->
      if found then t.deletes <- t.deletes + 1;
      found
  | O_got _ | O_put -> assert false

(* ---------- online leaf merging (Section 4.2.4) ---------- *)

(* One merge attempt of [locked_right] into [left], both advisory locks
   held.  Everything is re-validated and performed inside one HTM region:
   in-flight operations on the victim leaf are doomed or see its bumped
   seqno and retry from the root, while the absorbing leaf keeps its seqno
   (operations already routed to it remain valid, as on the surviving
   side of a split).  Returns the victim and the new successor on
   success. *)
type merge_result =
  | M_merged of int * int (* victim leaf, left's new successor *)
  | M_skip of int (* next leaf to consider *)

let try_merge t left locked_right =
  let s = t.shape in
  let cap = Config.capacity t.cfg in
  Htm.atomic ~policy:t.cfg.Config.policy ~lock:t.lock (fun () ->
      let right = Api.read (Leaf.next_addr left) in
      if right = 0 || right <> locked_right then M_skip right
      else begin
        let parent = Api.read (Leaf.parent_addr left) in
        let nl = Leaf.total_count s left in
        let nr = Leaf.total_count s right in
        let pi =
          if parent = 0 || Api.read (Leaf.parent_addr right) <> parent then -1
          else Index.child_index t.idx parent right
        in
        if
          pi <= 0
          || nl + nr > cap - t.cfg.Config.near_full_margin
          || Api.read (Euno_bptree.Layout.nkeys parent) < 2
        then M_skip right
        else begin
          (* absorb the sibling's records *)
          List.iter
            (fun (k, v) ->
              Leaf.insert_into_seg s left (any_nonfull t left) k v)
            (Leaf.gather s right);
          if t.cfg.Config.use_mark_bits then begin
            (* New traversals for the absorbed keys land on [left]; its
               marks must cover them atomically with the merge.  The lock
               line enters the write set, so concurrent CCM traffic may
               doom this transaction — it just retries. *)
            let cl = Leaf.ccm s left and cr = Leaf.ccm s right in
            Ccm.write_marks cl (Ccm.marks_word cl lor Ccm.marks_word cr)
          end;
          Api.write (Leaf.next_addr left) (Api.read (Leaf.next_addr right));
          Index.internal_remove_at t.idx parent (pi - 1);
          (* invalidate every in-flight operation holding the victim *)
          Api.write (Leaf.seqno_addr right)
            (Api.read (Leaf.seqno_addr right) + 1);
          M_merged (right, Api.read (Leaf.next_addr left))
        end
      end)

(* Maintenance pass (one maintenance thread, concurrent with regular
   operations): walk the leaf chain and merge adjacent same-parent
   siblings whose combined records fit comfortably in one leaf.  Locks
   are taken left-to-right, the order every other lock user respects.
   Merged-away leaves are retired through the tree's epoch when one is
   configured (freed once no pinned operation can still hold a pointer —
   required for concurrent use: immediate freeing lets freelist reuse
   forge a matching seqno under an in-flight operation), or freed
   immediately otherwise (quiescent maintenance only).  Returns the
   number of merges. *)
let maintain ?(max_merges = max_int) t =
  let merged = ref 0 in
  let reclaim victim =
    match t.epoch with
    | Some e -> Euno_mem.Epoch.retire e (fun () -> Leaf.free t.shape victim)
    | None -> Leaf.free t.shape victim
  in
  let leftmost =
    Htm.atomic ~policy:t.cfg.Config.policy ~lock:t.lock (fun () ->
        Index.find_leaf t.idx min_int)
  in
  let rec walk leaf =
    if leaf <> 0 && !merged < max_merges then begin
      let right = Api.read (Leaf.next_addr leaf) in
      if right <> 0 then begin
        Spinlock.acquire (Leaf.split_lock_addr leaf);
        Spinlock.acquire (Leaf.split_lock_addr right);
        let r =
          match try_merge t leaf right with
          | r -> r
          | exception e ->
              (* never leak the advisory locks on a failed merge *)
              Spinlock.release (Leaf.split_lock_addr right);
              Spinlock.release (Leaf.split_lock_addr leaf);
              raise e
        in
        Spinlock.release (Leaf.split_lock_addr right);
        Spinlock.release (Leaf.split_lock_addr leaf);
        match r with
        | M_merged (victim, _) ->
            incr merged;
            Api.count Counter.merges 1;
            reclaim victim;
            (* try to absorb further siblings into the same leaf *)
            walk leaf
        | M_skip next -> walk next
      end
    end
  in
  walk leftmost;
  !merged

(* ---------- range query (Section 4.2.4) ---------- *)

(* Hand-over-hand over the leaf chain, calling [emit k v] on up to [count]
   records with key >= [from] in key order: lock each leaf's advisory
   lock, gather its records atomically in a lower region (staging them
   through a transient reserved buffer, as the paper's scans do), validate
   the seqno obtained from the previous hop, and carry (next leaf, next
   seqno) forward.  A failed validation restarts from the root after the
   last emitted key.  One records buffer serves every hop. *)
let iter_range t ~from ~count emit =
  Api.op_key from;
  let s = t.shape in
  let r = Leaf.records s in
  with_epoch t @@ fun () ->
  let emitted = ref false and last = ref 0 in
  let rec restart from remaining =
    if remaining > 0 then begin
      let leaf, seq = upper t from in
      walk leaf seq from remaining
    end
  and walk leaf seq from remaining =
    Spinlock.acquire (Leaf.split_lock_addr leaf);
    let res =
      match
        Htm.atomic ~policy:t.cfg.Config.policy ~lock:t.lock (fun () ->
            if Api.read (Leaf.seqno_addr leaf) <> seq then L_stale
            else begin
              Leaf.gather_into s leaf r;
              Leaf.free_reserved (Leaf.stash_reserved r);
              let nxt = Api.read (Leaf.next_addr leaf) in
              let nseq =
                if nxt = 0 then 0 else Api.read (Leaf.seqno_addr nxt)
              in
              L_scan (nxt, nseq)
            end)
      with
      | res -> res
      | exception e ->
          (* never leak the advisory lock on a failed hop *)
          Spinlock.release (Leaf.split_lock_addr leaf);
          raise e
    in
    Spinlock.release (Leaf.split_lock_addr leaf);
    match res with
    | L_stale ->
        Api.count Counter.consistency_retries 1;
        (* Resume after the last emitted key: a mid-chain restart from
           the original key would re-collect earlier leaves. *)
        restart (if !emitted then !last + 1 else from) remaining
    | L_scan (nxt, nseq) ->
        let remaining = ref remaining in
        for j = 0 to r.Leaf.n - 1 do
          let k = r.Leaf.keys.(j) in
          if k >= from && !remaining > 0 then begin
            emit k r.Leaf.vals.(j);
            emitted := true;
            last := k;
            decr remaining
          end
        done;
        if !remaining > 0 && nxt <> 0 then walk nxt nseq from !remaining
    | L_need_lock | L_got _ | L_updated | L_inserted | L_deleted _ ->
        assert false
  in
  restart from count

let scan t ~from ~count =
  let acc = ref [] in
  iter_range t ~from ~count (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

(* ---------- inspection (tests and tools) ---------- *)

let find_leaf t key = Index.find_leaf t.idx key

(* Every leaf gathered into [r] in tree order, by a depth-first walk of
   the index (not the leaf chain). *)
let iter_leaf_records t r f =
  Index.iter_leaves t.idx (Index.root t.idx) (fun leaf ->
      Leaf.gather_into t.shape leaf r;
      f r)

let to_list t =
  let acc = ref [] in
  iter_leaf_records t (Leaf.records t.shape) (fun r ->
      for j = 0 to r.Leaf.n - 1 do
        acc := (r.Leaf.keys.(j), r.Leaf.vals.(j)) :: !acc
      done);
  List.rev !acc

let size t =
  let n = ref 0 in
  iter_leaf_records t (Leaf.records t.shape) (fun r -> n := !n + r.Leaf.n);
  !n

(* Structural statistics (single-threaded inspection). *)
type tree_stats = {
  st_depth : int;
  st_internals : int;
  st_leaves : int;
  st_records : int;
  st_avg_leaf_fill : float; (* records / (leaves * capacity) *)
  st_engaged_leaves : int; (* leaves currently in an engaged CCM mode *)
}

let stats t =
  let leaves = ref 0 and records = ref 0 and engaged = ref 0 in
  Index.iter_leaves t.idx (Index.root t.idx) (fun leaf ->
      incr leaves;
      records := !records + Leaf.total_count t.shape leaf;
      if Api.read (Leaf.mode_addr leaf) <> Ccm.mode_bypass then incr engaged);
  {
    st_depth = Index.depth t.idx;
    st_internals = Index.count_internals t.idx (Index.root t.idx);
    st_leaves = !leaves;
    st_records = !records;
    st_avg_leaf_fill =
      float_of_int !records
      /. float_of_int (max 1 !leaves * Config.capacity t.cfg);
    st_engaged_leaves = !engaged;
  }

(* Ordered iteration helpers (single-threaded inspection, like to_list). *)
let iter t f = List.iter (fun (k, v) -> f k v) (to_list t)

let fold t ~init ~f =
  List.fold_left (fun acc (k, v) -> f acc k v) init (to_list t)

let min_binding t =
  match scan t ~from:min_int ~count:1 with [ kv ] -> Some kv | _ -> None

let max_binding t =
  (* walk the leaf chain to the last non-empty leaf *)
  match List.rev (to_list t) with kv :: _ -> Some kv | [] -> None

(* ---------- deletion rebalance (Section 4.2.4) ---------- *)

(* The paper defers rebalancing (Sen & Tarjan: deletion without
   rebalancing) and reorganizes only once deletions pass a threshold.  We
   reproduce that as an explicit maintenance operation: callers check
   [needs_rebalance] at a quiescent point and invoke [rebalance], which
   rebuilds the tree from its live records and returns the freed nodes to
   the allocator.  It must run with no concurrent operations in flight. *)

let rebalance_threshold = 1 lsl 12

let needs_rebalance t = t.deletes >= rebalance_threshold

let rebalance t =
  let records = to_list t in
  (* Collect every old node before resetting the index. *)
  let old_leaves = ref [] and old_internals = ref [] in
  let rec walk node =
    if Api.read (Euno_bptree.Layout.tag node) = Euno_bptree.Layout.tag_leaf
    then old_leaves := node :: !old_leaves
    else begin
      old_internals := node :: !old_internals;
      let n = Api.read (Euno_bptree.Layout.nkeys node) in
      for i = 0 to n do
        walk (Api.read (Euno_bptree.Layout.child t.idx.Index.layout node i))
      done
    end
  in
  walk (Index.root t.idx);
  (* Fresh root, then bulk reload: half-filled leaves throughout. *)
  let root = Leaf.alloc t.shape in
  Api.write (t.idx.Index.meta + Euno_bptree.Layout.meta_root) root;
  Api.write (t.idx.Index.meta + Euno_bptree.Layout.meta_depth) 1;
  List.iter (fun (k, v) -> put t k v) records;
  List.iter (fun node -> Leaf.free t.shape node) !old_leaves;
  List.iter
    (fun node ->
      Api.free ~kind:Linemap.Node_meta ~addr:node
        ~words:t.idx.Index.layout.Euno_bptree.Layout.internal_words)
    !old_internals;
  t.deletes <- 0


exception Invariant = Index.Invariant

let fail_inv fmt = Printf.ksprintf (fun s -> raise (Invariant s)) fmt

(* Mark coverage probes a leaf's keys in the iteration order of a
   [Hashtbl.create 16] holding them: bucket by bucket, newest first.  That
   order is part of the checker's fixed Api sequence: it decides which key
   a failure names and how many mark reads come before it.  Marks need
   [2 * capacity <= Ccm.max_slots], so such a table never holds the 33
   keys that would make it resize. *)
let mark_buckets = 16

let check_invariants t =
  let s = t.shape and cfg = t.cfg in
  let r = Leaf.records s in
  (* the keys of the leaf under check, in read order: the count checks
     bound them by the capacity *)
  let seen = Array.make (Config.capacity cfg) 0 in
  (* tree order: each leaf's gathered keys, appended as the pass visits it *)
  let order = ref (Array.make 256 0) and len = ref 0 in
  let leaves = ref 0 and leftmost = ref 0 in
  Index.check_structure t.idx ~leaf_keys:(fun leaf visit ->
      (* Per-leaf checks: segment counts in range, keys sorted within each
         segment, no duplicate keys across segments, mark bits cover every
         live key. *)
      let n = ref 0 in
      for i = 0 to cfg.Config.nsegs - 1 do
        let c = Leaf.seg_count s leaf i in
        if c < 0 || c > cfg.Config.seg_slots then
          fail_inv "leaf %d seg %d: bad count %d" leaf i c;
        for j = 0 to c - 1 do
          let k = Api.read (Leaf.seg_key_addr s leaf i j) in
          if j > 0 && k <= seen.(!n - 1) then
            fail_inv "leaf %d seg %d: keys not sorted" leaf i;
          for p = 0 to !n - 1 do
            if seen.(p) = k then fail_inv "leaf %d: duplicate key %d" leaf k
          done;
          seen.(!n) <- k;
          incr n
        done
      done;
      (* Mark coverage is an invariant only where the fast path may trust
         the marks: non-adaptive trees, and adaptive leaves in ready mode
         (bypass-mode insertions deliberately skip the CCM). *)
      let c = Leaf.ccm s leaf in
      let marks_trusted =
        cfg.Config.use_mark_bits
        && ((not cfg.Config.adaptive) || Ccm.mode c = Ccm.mode_ready)
      in
      if marks_trusted then
        for b = 0 to mark_buckets - 1 do
          for p = !n - 1 downto 0 do
            let k = seen.(p) in
            if Hashtbl.hash k land (mark_buckets - 1) = b
               && not (Ccm.marked c (Ccm.hash c k))
            then fail_inv "leaf %d: live key %d not marked" leaf k
          done
        done;
      Leaf.gather_into s leaf r;
      if !leaves = 0 then leftmost := leaf;
      incr leaves;
      if !len + r.Leaf.n > Array.length !order then begin
        let bigger = Array.make (2 * (!len + r.Leaf.n)) 0 in
        Array.blit !order 0 bigger 0 !len;
        order := bigger
      end;
      Array.blit r.Leaf.keys 0 !order !len r.Leaf.n;
      len := !len + r.Leaf.n;
      for j = 0 to r.Leaf.n - 1 do
        visit r.Leaf.keys.(j)
      done);
  (* The leaf chain, followed from the leftmost leaf, must enumerate the
     same records in the same order, with no split lock held.  It is
     followed for as many leaves as the index holds, so a cyclic chain
     fails instead of looping, and it must end there.  Plain reads only:
     the tree is quiescent, and this runs inside measured simulations. *)
  let order = !order in
  let pos = ref 0 and leaf = ref !leftmost in
  for i = 1 to !leaves do
    if !leaf = 0 then
      fail_inv "leaf chain ends after %d of %d leaves" (i - 1) !leaves;
    if Spinlock.is_locked (Leaf.split_lock_addr !leaf) then
      fail_inv "leaf %d: split lock held" !leaf;
    Leaf.gather_into s !leaf r;
    for j = 0 to r.Leaf.n - 1 do
      if !pos >= !len || order.(!pos) <> r.Leaf.keys.(j) then
        fail_inv "leaf chain disagrees with tree order";
      incr pos
    done;
    leaf := Api.read (Leaf.next_addr !leaf)
  done;
  if !pos <> !len then fail_inv "leaf chain disagrees with tree order";
  if !leaf <> 0 then
    fail_inv "leaf chain runs past the last of %d leaves" !leaves
