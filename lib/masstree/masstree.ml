(* A fine-grained concurrent B+Tree derived from Masstree's concurrency
   discipline (Mao et al., EuroSys'12, Section 4.6), the paper's lock-based
   baseline.

   Every node carries a version word: a lock bit, an insert counter
   (vinsert) and a split counter (vsplit).  Readers are optimistic: they
   read a stable version before touching a node and re-check it after
   ("before-and-after" validation), retrying the node when vinsert moved
   and restarting from the root when vsplit moved.  Writers take the
   per-node spinlock, mutate, and release by bumping the counters.  Splits
   lock hand-over-hand upward (child, then parent), re-validating that the
   parent still contains the child after locking.

   The same code also runs as "HTM-Masstree" (elide = true): each whole
   operation is wrapped in one RTM region by Htm_masstree and lock
   acquisitions are elided to version-word reads.  The version-counter
   writes then land in every transaction's write set — the shared-metadata
   aborts that make HTM-Masstree perform poorly in the paper's Figure 8.

   Node layout reuses Euno_bptree.Layout (sorted consecutive keys): the
   version word is header word 4 for both node kinds. *)

module Api = Euno_sim.Api
module Abort = Euno_sim.Abort
module Sev = Euno_sim.Sev
module Linemap = Euno_mem.Linemap
module Index = Euno_bptree.Index
module L = Euno_bptree.Layout
module Backoff = Euno_sync.Backoff
module Spinlock = Euno_sync.Spinlock

(* Test-only mutation switches: reintroduce historical protocol bugs so
   EunoCheck can prove it detects them.  Never set outside test code. *)
module Testonly = struct
  (* Domain-local: armed per pool worker, never bleeds across cells. *)
  let widen_read_window = Euno_sim.Domain_ref.create (fun () -> false)
  (* OLC bug: validate the leaf version *before* the record reads instead
     of after, so a writer mutating between the check and the reads hands
     the reader a torn record — the TOCTOU window before-and-after
     validation exists to close. *)
end

type t = {
  idx : Index.t; (* node layout, tree meta, shared internal-node ops *)
  root_lock : int; (* serializes root growth *)
  elide : bool; (* HTM-Masstree: locks elided inside an RTM region *)
}

let null = 0

(* ---------- version words ---------- *)

(* bit 0: lock; bits 1..30: vinsert; bits 31..: vsplit *)
let lock_bit = 1
let vinsert_unit = 2
let vinsert_mask = (1 lsl 31) - 2
let vsplit_unit = 1 lsl 31

let version_addr node = L.version node
let is_locked v = v land lock_bit <> 0
let vsplit_of v = v lsr 31
let _vinsert_of v = (v land vinsert_mask) lsr 1

exception Retry_root

(* Per-node instruction weight of the real Masstree machinery our skeletal
   OLC does not execute: permutation decoding, border-key slicing, layer
   checks (Mao et al. Sections 4.3-4.6).  The paper measures Masstree
   executing ~2.1x the instructions of Euno-B+Tree; these constants
   reproduce that per-operation instruction weight in the cost model. *)
let node_work = 120
let leaf_work = 140

(* A stable (unlocked) version of a node; spins while a writer is in the
   node.  Each check is the paper's "version manipulation". *)
let stable_version node =
  let v = Api.read (version_addr node) in
  if not (is_locked v) then v
  else begin
    (* Backoff state only once a writer is seen: the common unlocked read
       allocates nothing. *)
    let b = Backoff.create ~base:16 ~cap:1024 () in
    let rec go () =
      Backoff.once b;
      let v = Api.read (version_addr node) in
      if is_locked v then go () else v
    in
    go ()
  end

let try_lock_node node =
  let v = Api.read (version_addr node) in
  (not (is_locked v))
  && Api.cas (version_addr node) ~expected:v ~desired:(v lor lock_bit)

(* Acquire a node's version lock.  In elided mode there is no CAS: the
   transaction reads the word (subscribing to it) and aborts if a fallback
   writer holds it. *)
let lock_node t node =
  if t.elide then begin
    if is_locked (Api.read (version_addr node)) then
      Api.xabort Abort.xabort_lock_held
  end
  else begin
    (* Try once before building the backoff: an uncontended lock
       allocates nothing. *)
    if not (try_lock_node node) then begin
      let b = Backoff.create ~base:24 ~cap:2048 () in
      Backoff.once b;
      while not (try_lock_node node) do
        Backoff.once b
      done
    end;
    if Sev.armed () then
      Api.san_note (Sev.Acquire (Sev.Version, version_addr node))
  end

(* Lock a node nothing else can reach yet: fresh split siblings are born
   locked so their creator can keep writing into them after they become
   visible.  (Elided mode needs no node locks: the enclosing transaction —
   or the global fallback lock — already serializes the whole operation.) *)
let lock_fresh t node =
  if not t.elide then begin
    Api.write (version_addr node) lock_bit;
    if Sev.armed () then
      Api.san_note (Sev.Acquire (Sev.Version, version_addr node))
  end

(* Release, bumping vinsert and optionally vsplit. *)
let unlock_node t node ~split =
  let v = Api.read (version_addr node) in
  let v = if t.elide then v else v land lnot lock_bit in
  let v = v + vinsert_unit in
  let v = if split then v + vsplit_unit else v in
  (* Announce before the version write: once the lock bit clears, the next
     holder's acquire note may precede ours in the event stream.  (Elided
     mode takes no lock, so there is nothing to release.) *)
  if (not t.elide) && Sev.armed () then
    Api.san_note (Sev.Release (Sev.Version, version_addr node));
  Api.write (version_addr node) v

(* ---------- construction ---------- *)

let alloc_leaf_with ~(layout : L.t) ~map =
  let node = Api.alloc ~kind:Linemap.Node_meta ~words:layout.L.leaf_words in
  (* Parent pointers are Masstree's by-design benign race: they are read
     outside any common lock and validated after locking (the [contains]
     re-check in [insert_up]), so the race detector must not flag them.
     (Host-side no-op unless the sanitizer is armed.) *)
  Sev.mark_racy (L.parent node);
  Linemap.set_range map
    ~addr:(node + layout.L.records_off)
    ~words:(layout.L.leaf_words - layout.L.records_off)
    Linemap.Record;
  Api.reclassify ~from_kind:Linemap.Node_meta ~to_kind:Linemap.Record
    ~words:(layout.L.leaf_words - layout.L.records_off);
  Api.write (L.tag node) L.tag_leaf;
  node

let alloc_leaf t = alloc_leaf_with ~layout:t.idx.Index.layout ~map:t.idx.Index.map

let create ?(elide = false) ~fanout ~map () =
  let layout = L.make ~fanout in
  let root = alloc_leaf_with ~layout ~map in
  {
    idx = Index.create ~fanout ~map ~root ();
    root_lock = Spinlock.alloc ();
    elide;
  }

(* Bulk load sorted, distinct records (single-threaded YCSB load phase):
   packed leaves, bottom-up index, version words fresh. *)
let bulk_load ?(elide = false) ?(fill = 0.7) ~fanout ~map records =
  let layout = L.make ~fanout in
  let per_leaf =
    max 1 (min fanout (int_of_float (fill *. float_of_int fanout)))
  in
  match records with
  | [] -> create ~elide ~fanout ~map ()
  | _ ->
      let make_leaf chunk =
        let leaf = alloc_leaf_with ~layout ~map in
        List.iteri
          (fun i (k, v) ->
            Api.write (L.record_key layout leaf i) k;
            Api.write (L.record_value layout leaf i) v)
          chunk;
        Api.write (L.nkeys leaf) (List.length chunk);
        (fst (List.hd chunk), leaf)
      in
      let leaves = List.map make_leaf (Index.chunk_records per_leaf records) in
      let rec chain = function
        | (_, a) :: ((_, b) :: _ as rest) ->
            Api.write (L.next a) b;
            chain rest
        | [ _ ] | [] -> ()
      in
      chain leaves;
      let idx = Index.create ~fanout ~map ~root:(snd (List.hd leaves)) () in
      Index.build_levels idx leaves;
      { idx; root_lock = Spinlock.alloc (); elide }

let index t = t.idx
let layout t = t.idx.Index.layout

(* ---------- optimistic descent ---------- *)

(* Descend to the leaf covering [key] with hand-over-hand validation:
   capture the child's stable version *before* re-checking the parent, so
   an unchanged parent proves the child covered the key when its version
   was taken (a child split always bumps the parent first).  Returns the
   leaf and its stable version; raises Retry_root when a node changed
   underfoot. *)
let descend t key =
  let rec down node v =
    Api.work node_work;
    if Api.read (L.tag node) = L.tag_leaf then (node, v)
    else begin
      let child = Index.child_for t.idx node key in
      let vc = stable_version child in
      let v' = Api.read (version_addr node) in
      if v' <> v then raise_notrace Retry_root;
      down child vc
    end
  in
  let rec from_root () =
    match down (Index.root t.idx) (stable_version (Index.root t.idx)) with
    | leaf_v -> leaf_v
    | exception Retry_root -> from_root ()
  in
  from_root ()

(* ---------- get ---------- *)

(* First record index with key >= [key] among a leaf's [n] sorted records
   (linear sweep, like Masstree's permuter-ordered scan). *)
let leaf_lower_bound t leaf n key =
  let lay = layout t in
  let rec go i =
    if i >= n || Api.read (L.record_key lay leaf i) >= key then i
    else go (i + 1)
  in
  go 0

let leaf_find t leaf key =
  let lay = layout t in
  let n = Api.read (L.nkeys leaf) in
  let i = leaf_lower_bound t leaf n key in
  if i < n && Api.read (L.record_key lay leaf i) = key then
    Some (Api.read (L.record_value lay leaf i))
  else None

let get t key =
  Api.op_key key;
  (* The whole lookup is one optimistic section: every read is validated
     by the before-and-after version checks, so the race detector must not
     treat them as synchronized accesses. *)
  if Sev.armed () then Api.san_note Sev.Opt_enter;
  let rec attempt () =
    let leaf, v = descend t key in
    let rec read_leaf v =
      Api.work leaf_work;
      if Euno_sim.Domain_ref.get Testonly.widen_read_window then begin
        (* The pre-fix shape: version checked first, records read after —
           a writer landing in between hands us a torn record. *)
        let v' = stable_version leaf in
        if v' = v then leaf_find t leaf key
        else if vsplit_of v' <> vsplit_of v then attempt ()
        else read_leaf v'
      end
      else begin
        let result = leaf_find t leaf key in
        let v' = stable_version leaf in
        if v' = v then result
        else if vsplit_of v' <> vsplit_of v then attempt ()
        else read_leaf v'
      end
    in
    read_leaf v
  in
  let result = attempt () in
  if Sev.armed () then Api.san_note Sev.Opt_exit;
  result

(* ---------- structural modification (writers) ---------- *)

(* Does the locked internal node still list [child]? *)
let contains t parent child =
  let n = Api.read (L.nkeys parent) in
  let rec go i =
    if i > n then false
    else if Api.read (L.child (layout t) parent i) = child then true
    else go (i + 1)
  in
  go 0

(* Link [right] (fresh) as the sibling of the *locked* node [node] under
   separator [sep], locking upward hand-over-hand. *)
let rec insert_up t node sep right =
  let parent = Api.read (L.parent node) in
  if parent = null then begin
    (* Root growth is serialized by a dedicated lock. *)
    if t.elide then begin
      if Spinlock.is_locked t.root_lock then
        Api.xabort Abort.xabort_lock_held
    end
    (* euno-lint: allow lock-paths: root-growth lock: Index.grow_root is raise-free under the plan fault model (plain allocations are spared) and both value branches release below *)
    else Spinlock.acquire t.root_lock;
    if Api.read (L.parent node) = null then begin
      let newroot = Index.grow_root t.idx node sep right in
      Sev.mark_racy (L.parent newroot);
      (* The new root's contents are written under [root_lock] but later
         mutated under its own version lock.  A publish note (zero
         simulated cycles) tells the sanitizer that everything written so
         far happens-before any later holder of that lock. *)
      if (not t.elide) && Sev.armed () then
        Api.san_note (Sev.Publish (Sev.Version, version_addr newroot));
      if not t.elide then Spinlock.release t.root_lock
    end
    else begin
      (* Someone grew the root first; retry against the new parent. *)
      if not t.elide then Spinlock.release t.root_lock;
      insert_up t node sep right
    end
  end
  else begin
    (* euno-lint: allow lock-paths: hand-over-hand parent lock: the region is raise-free under the plan fault model and every value branch unlocks; EunoSan covers the discipline dynamically *)
    lock_node t parent;
    if not (contains t parent node) then begin
      (* The parent split and [node] moved; chase the fresh pointer. *)
      unlock_node t parent ~split:false;
      insert_up t node sep right
    end
    else begin
      let n = Api.read (L.nkeys parent) in
      if n < (layout t).L.fanout then begin
        let i = Index.lower_bound t.idx parent n sep in
        Index.internal_insert_at t.idx parent n i sep right;
        unlock_node t parent ~split:false
      end
      else begin
        (* The new sibling is born locked: rewriting the moved children's
           parent pointers makes it reachable to their splitters. *)
        let promoted, pright =
          Index.split_internal
            ~on_alloc:(fun n ->
              Sev.mark_racy (L.parent n);
              lock_fresh t n)
            t.idx parent
        in
        insert_up t parent promoted pright;
        let target = if sep < promoted then parent else pright in
        let tn = Api.read (L.nkeys target) in
        let i = Index.lower_bound t.idx target tn sep in
        Index.internal_insert_at t.idx target tn i sep right;
        unlock_node t parent ~split:true;
        unlock_node t pright ~split:false
      end
    end
  end

(* Split a locked, full leaf and link it upward with the lock-coupled
   protocol; returns the (still invisible, hence unlocked) right sibling. *)
let split_leaf_locked t leaf =
  let lay = layout t in
  let f = lay.L.fanout in
  let mid = f / 2 in
  let right = alloc_leaf t in
  lock_fresh t right;
  for j = 0 to f - mid - 1 do
    Api.write (L.record_key lay right j) (Api.read (L.record_key lay leaf (mid + j)));
    Api.write (L.record_value lay right j) (Api.read (L.record_value lay leaf (mid + j)))
  done;
  Api.write (L.nkeys leaf) mid;
  Api.write (L.nkeys right) (f - mid);
  Api.write (L.next right) (Api.read (L.next leaf));
  Api.write (L.next leaf) right;
  Api.write (L.parent right) (Api.read (L.parent leaf));
  let sep = Api.read (L.record_key lay right 0) in
  insert_up t leaf sep right;
  right

(* ---------- put / delete ---------- *)

let leaf_insert_at t leaf n i key value =
  let lay = layout t in
  for j = n downto i + 1 do
    Api.write (L.record_key lay leaf j) (Api.read (L.record_key lay leaf (j - 1)));
    Api.write (L.record_value lay leaf j) (Api.read (L.record_value lay leaf (j - 1)))
  done;
  Api.write (L.record_key lay leaf i) key;
  Api.write (L.record_value lay leaf i) value;
  Api.write (L.nkeys leaf) (n + 1)

let put t key value =
  Api.op_key key;
  let lay = layout t in
  let rec attempt () =
    (* The descend-until-locked phase is optimistic; once the leaf lock is
       held the remaining accesses are lock-synchronized and stay visible
       to the race detector. *)
    if Sev.armed () then Api.san_note Sev.Opt_enter;
    let leaf, v = descend t key in
    (* euno-lint: allow lock-paths: put holds the leaf lock across the split path, whose raise-free contract comes from the fault model sparing plain allocations (plan.mli); a handler could not undo a half-linked split anyway *)
    lock_node t leaf;
    if Sev.armed () then Api.san_note Sev.Opt_exit;
    Api.work leaf_work;
    (* Between validation and locking the leaf may have split: its key
       range only ever shrinks, so a moved vsplit forces a restart. *)
    let v' = Api.read (version_addr leaf) in
    if vsplit_of v' <> vsplit_of v then begin
      unlock_node t leaf ~split:false;
      attempt ()
    end
    else begin
      let n = Api.read (L.nkeys leaf) in
      let i = leaf_lower_bound t leaf n key in
      if i < n && Api.read (L.record_key lay leaf i) = key then begin
        Api.write (L.record_value lay leaf i) value;
        unlock_node t leaf ~split:false
      end
      else if n < lay.L.fanout then begin
        leaf_insert_at t leaf n i key value;
        unlock_node t leaf ~split:false
      end
      else begin
        let right = split_leaf_locked t leaf in
        let target =
          if key < Api.read (L.record_key lay right 0) then leaf else right
        in
        let tn = Api.read (L.nkeys target) in
        let ti = leaf_lower_bound t target tn key in
        leaf_insert_at t target tn ti key value;
        unlock_node t leaf ~split:true;
        unlock_node t right ~split:false
      end
    end
  in
  attempt ()

let delete t key =
  Api.op_key key;
  let lay = layout t in
  let rec attempt () =
    if Sev.armed () then Api.san_note Sev.Opt_enter;
    let leaf, v = descend t key in
    (* euno-lint: allow lock-paths: delete holds the leaf lock across in-node edits only: plan-based faults spare plain allocations (plan.mli), so the region cannot raise; EunoSan checks the release dynamically *)
    lock_node t leaf;
    if Sev.armed () then Api.san_note Sev.Opt_exit;
    Api.work leaf_work;
    let v' = Api.read (version_addr leaf) in
    if vsplit_of v' <> vsplit_of v then begin
      unlock_node t leaf ~split:false;
      attempt ()
    end
    else begin
      let n = Api.read (L.nkeys leaf) in
      let i = leaf_lower_bound t leaf n key in
      let found = i < n && Api.read (L.record_key lay leaf i) = key in
      if found then begin
        for j = i to n - 2 do
          Api.write (L.record_key lay leaf j) (Api.read (L.record_key lay leaf (j + 1)));
          Api.write (L.record_value lay leaf j) (Api.read (L.record_value lay leaf (j + 1)))
        done;
        Api.write (L.nkeys leaf) (n - 1)
      end;
      unlock_node t leaf ~split:false;
      found
    end
  in
  attempt ()

(* ---------- range scan ---------- *)

(* Versioned hand-over-hand over the leaf chain. *)
let scan t ~from ~count =
  Api.op_key from;
  (* Lock-free versioned reads throughout: one optimistic section. *)
  if Sev.armed () then Api.san_note Sev.Opt_enter;
  let lay = layout t in
  let rec restart from acc remaining =
    if remaining <= 0 then List.rev acc
    else begin
      let leaf, v = descend t from in
      walk leaf v from acc remaining
    end
  and walk leaf v from acc remaining =
    let rec snapshot v =
      let n = Api.read (L.nkeys leaf) in
      let records = ref [] in
      for j = n - 1 downto 0 do
        records := (Api.read (L.record_key lay leaf j), Api.read (L.record_value lay leaf j)) :: !records
      done;
      let nxt = Api.read (L.next leaf) in
      let nv = if nxt = null then 0 else stable_version nxt in
      let v' = stable_version leaf in
      if v' = v then (!records, nxt, nv)
      else if vsplit_of v' <> vsplit_of v then raise_notrace Retry_root
      else snapshot v'
    in
    match snapshot v with
    | exception Retry_root -> restart from acc remaining
    | records, nxt, nv ->
        let eligible = List.filter (fun (k, _) -> k >= from) records in
        let rec take acc remaining = function
          | [] -> (acc, remaining)
          | kv :: rest ->
              if remaining = 0 then (acc, 0)
              else take (kv :: acc) (remaining - 1) rest
        in
        let acc, remaining = take acc remaining eligible in
        if remaining = 0 || nxt = null then List.rev acc
        else walk nxt nv from acc remaining
  in
  let result = restart from [] count in
  if Sev.armed () then Api.san_note Sev.Opt_exit;
  result

(* ---------- inspection (tests) ---------- *)

(* Every record in tree order, by a depth-first walk of the index.  Each
   record's value is read before its key. *)
let iter_records t f =
  let lay = layout t in
  Index.iter_leaves t.idx (Index.root t.idx) (fun leaf ->
      let n = Api.read (L.nkeys leaf) in
      for i = 0 to n - 1 do
        let v = Api.read (L.record_value lay leaf i) in
        f (Api.read (L.record_key lay leaf i)) v
      done)

let to_list t =
  let acc = ref [] in
  iter_records t (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let size t =
  let n = ref 0 in
  iter_records t (fun _ _ -> incr n);
  !n

exception Invariant = Index.Invariant

let fail_inv fmt = Printf.ksprintf (fun s -> raise (Invariant s)) fmt

(* The shared index checks plus per-leaf fanout and lock-release checks,
   then an ascending tree order: two streaming walks. *)
let check_invariants t =
  let lay = layout t in
  Index.check_structure t.idx ~leaf_keys:(fun leaf visit ->
      let n = Api.read (L.nkeys leaf) in
      if n > lay.L.fanout then fail_inv "leaf %d overfull" leaf;
      if is_locked (Api.read (version_addr leaf)) then
        fail_inv "leaf %d left locked" leaf;
      for i = 0 to n - 1 do
        visit (Api.read (L.record_key lay leaf i))
      done);
  let records = ref 0 and prev = ref 0 and ordered = ref true in
  iter_records t (fun k _ ->
      if !records > 0 && k < !prev then ordered := false;
      prev := k;
      incr records);
  if not !ordered then fail_inv "leaf chain out of order"
