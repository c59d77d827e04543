(* The scattered leaf node of Euno-B+Tree (Section 4.1, Figure 4).

   A leaf is laid out as:

     line 0  header (Node_meta): tag, parent, next, seqno — shares the
             common offsets of Euno_bptree.Layout so leaves hang under the
             shared internal-node Index;
     line 1  lock line (Lock): the per-leaf advisory split lock and the
             conflict control module.  This line is only ever accessed
             with atomics *outside* HTM regions;
     then    nsegs segments (Record), each line-aligned:
             [count | k0 v0 | k1 v1 | ...] with keys sorted *within* the
             segment and value pointers combined with keys, per the paper.

   Records are distributed round-robin over segments during
   reorganization, so keys adjacent in sort order live in different
   segments — different cache lines — which is what removes the false
   sharing of the conventional consecutive layout.  Reserved-keys buffers
   are transient: allocated (kind Reserved) while a split, compaction or
   scan needs sorted data, and freed immediately after, which is why the
   paper's Section 5.7 measures only a few percent of memory overhead. *)

module Api = Euno_sim.Api
module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module L = Euno_bptree.Layout
module Ccm = Euno_ccm.Ccm

type shape = {
  cfg : Config.t;
  map : Linemap.t;
  seg_words : int;
  leaf_words : int;
}

let header_words = Memory.line_words
let lock_line_off = header_words
let seg_area_off = 2 * Memory.line_words

let pad_lines w = (w + Memory.line_words - 1) / Memory.line_words * Memory.line_words

let shape cfg ~map =
  let seg_words = pad_lines (1 + (2 * cfg.Config.seg_slots)) in
  {
    cfg;
    map;
    seg_words;
    leaf_words = seg_area_off + (cfg.Config.nsegs * seg_words);
  }

let leaf_words s = s.leaf_words

(* ---------- field addresses ---------- *)

let seqno_addr leaf = L.version leaf
let next_addr leaf = L.next leaf
let parent_addr leaf = L.parent leaf
let mode_addr leaf = leaf + 5 (* adaptive mode, on the already-read header *)
let split_lock_addr leaf = leaf + lock_line_off
let ccm_base leaf = leaf + lock_line_off + 1

let seg_base s leaf i = leaf + seg_area_off + (i * s.seg_words)
let seg_count_addr s leaf i = seg_base s leaf i
let seg_key_addr s leaf i j = seg_base s leaf i + 1 + (2 * j)
let seg_value_addr s leaf i j = seg_base s leaf i + 2 + (2 * j)

let ccm s leaf =
  Ccm.make ~base:(ccm_base leaf) ~mode_addr:(mode_addr leaf)
    ~capacity:(Config.capacity s.cfg)

(* ---------- allocation ---------- *)

let alloc s =
  let leaf = Api.alloc ~kind:Linemap.Node_meta ~words:s.leaf_words in
  Linemap.set_range s.map ~addr:(split_lock_addr leaf)
    ~words:Memory.line_words Linemap.Lock;
  Api.reclassify ~from_kind:Linemap.Node_meta ~to_kind:Linemap.Lock
    ~words:Memory.line_words;
  Linemap.set_range s.map ~addr:(seg_base s leaf 0)
    ~words:(s.cfg.Config.nsegs * s.seg_words)
    Linemap.Record;
  Api.reclassify ~from_kind:Linemap.Node_meta ~to_kind:Linemap.Record
    ~words:(s.cfg.Config.nsegs * s.seg_words);
  Api.write (L.tag leaf) L.tag_leaf;
  leaf

(* Free a leaf, reversing the per-kind accounting of alloc. *)
let free s leaf =
  Api.reclassify ~from_kind:Linemap.Lock ~to_kind:Linemap.Node_meta
    ~words:Memory.line_words;
  Api.reclassify ~from_kind:Linemap.Record ~to_kind:Linemap.Node_meta
    ~words:(s.cfg.Config.nsegs * s.seg_words);
  Api.free ~kind:Linemap.Node_meta ~addr:leaf ~words:s.leaf_words

(* ---------- segment primitives ---------- *)

let seg_count s leaf i = Api.read (seg_count_addr s leaf i)
let seg_full s leaf i = seg_count s leaf i >= s.cfg.Config.seg_slots

let total_count s leaf =
  let total = ref 0 in
  for i = 0 to s.cfg.Config.nsegs - 1 do
    total := !total + seg_count s leaf i
  done;
  !total

(* Locate a key: segments are sorted internally but unordered relative to
   each other, so each segment is probed in turn (paper Section 4.1,
   "Example").  Small segments are scanned directly with an early exit —
   the first key past the target doubles as the boundary check; larger
   segments (the single-segment ablation layout) use binary search. *)
let locate s leaf key =
  let nsegs = s.cfg.Config.nsegs in
  let small = s.cfg.Config.seg_slots <= 4 in
  let rec seg i =
    if i >= nsegs then None
    else begin
      let c = seg_count s leaf i in
      if c = 0 then seg (i + 1)
      else if small then scan i c 0
      else binary i c
    end
  and scan i c j =
    if j >= c then seg (i + 1)
    else begin
      let k = Api.read (seg_key_addr s leaf i j) in
      if k = key then Some (i, j)
      else if k > key then seg (i + 1)
      else scan i c (j + 1)
    end
  and binary i c =
    let rec go lo hi =
      if lo >= hi then seg (i + 1)
      else begin
        let mid = (lo + hi) / 2 in
        let k = Api.read (seg_key_addr s leaf i mid) in
        if k = key then Some (i, mid)
        else if k < key then go (mid + 1) hi
        else go lo mid
      end
    in
    go 0 c
  in
  seg 0

let value_addr_of s leaf (i, j) = seg_value_addr s leaf i j

(* Insert into a non-full segment at its sorted position (binary search
   for the position when the segment is large). *)
let insert_into_seg s leaf i key value =
  let c = seg_count s leaf i in
  assert (c < s.cfg.Config.seg_slots);
  let p =
    if s.cfg.Config.seg_slots <= 4 then begin
      let rec pos j =
        if j >= c || Api.read (seg_key_addr s leaf i j) > key then j
        else pos (j + 1)
      in
      pos 0
    end
    else begin
      let rec go lo hi =
        if lo >= hi then lo
        else begin
          let mid = (lo + hi) / 2 in
          if Api.read (seg_key_addr s leaf i mid) > key then go lo mid
          else go (mid + 1) hi
        end
      in
      go 0 c
    end
  in
  for j = c downto p + 1 do
    Api.write (seg_key_addr s leaf i j) (Api.read (seg_key_addr s leaf i (j - 1)));
    Api.write (seg_value_addr s leaf i j)
      (Api.read (seg_value_addr s leaf i (j - 1)))
  done;
  Api.write (seg_key_addr s leaf i p) key;
  Api.write (seg_value_addr s leaf i p) value;
  Api.write (seg_count_addr s leaf i) (c + 1)

(* Remove the record at a located position, closing the gap. *)
let remove_at s leaf (i, j) =
  let c = seg_count s leaf i in
  for p = j to c - 2 do
    Api.write (seg_key_addr s leaf i p) (Api.read (seg_key_addr s leaf i (p + 1)));
    Api.write (seg_value_addr s leaf i p)
      (Api.read (seg_value_addr s leaf i (p + 1)))
  done;
  Api.write (seg_count_addr s leaf i) (c - 1)

(* ---------- gathering and reorganization ---------- *)

(* A host-side buffer for one leaf's records, sorted by key: reused
   across the leaves of a walk so gathering allocates nothing per leaf.
   Segment counts never exceed [seg_slots], so the capacity bounds [n]. *)
type records = { keys : int array; vals : int array; mutable n : int }

let records s =
  let cap = Config.capacity s.cfg in
  { keys = Array.make cap 0; vals = Array.make cap 0; n = 0 }

(* All live records of the leaf into [r], sorted by key: segments in
   order, each record's value read before its key.  The merge of the
   already-sorted segments is charged as simulated work.  Equal keys (only
   in a corrupted leaf) end up last-read first. *)
let gather_into s leaf r =
  r.n <- 0;
  for i = 0 to s.cfg.Config.nsegs - 1 do
    let c = seg_count s leaf i in
    for j = 0 to c - 1 do
      let v = Api.read (seg_value_addr s leaf i j) in
      r.keys.(r.n) <- Api.read (seg_key_addr s leaf i j);
      r.vals.(r.n) <- v;
      r.n <- r.n + 1
    done
  done;
  Api.work (4 * r.n);
  let keys = r.keys and vals = r.vals in
  for i = 1 to r.n - 1 do
    let k = keys.(i) and v = vals.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && keys.(!j) >= k do
      keys.(!j + 1) <- keys.(!j);
      vals.(!j + 1) <- vals.(!j);
      decr j
    done;
    keys.(!j + 1) <- k;
    vals.(!j + 1) <- v
  done

let gather s leaf =
  let r = records s in
  gather_into s leaf r;
  List.init r.n (fun j -> (r.keys.(j), r.vals.(j)))

(* Stash sorted records into a freshly allocated transient reserved-keys
   buffer: pairs of words [k, v].  The caller frees it (inside an HTM
   region the free is deferred to commit, so aborts roll it back). *)
let stash_reserved r =
  let words = max 1 (2 * r.n) in
  let buf = Api.alloc ~kind:Linemap.Reserved ~words in
  for j = 0 to r.n - 1 do
    Api.write (buf + (2 * j)) r.keys.(j);
    Api.write (buf + (2 * j) + 1) r.vals.(j)
  done;
  (buf, words)

let free_reserved (buf, words) =
  Api.free ~kind:Linemap.Reserved ~addr:buf ~words

let clear_segs s leaf =
  for i = 0 to s.cfg.Config.nsegs - 1 do
    Api.write (seg_count_addr s leaf i) 0
  done

(* Redistribute records [lo, lo+n) of a stash buffer into the (cleared)
   segments of [leaf], round-robin: record j goes to segment j mod nsegs.
   Each segment receives a subsequence of a sorted run, so it stays sorted,
   while keys adjacent in sort order land on different cache lines. *)
let redistribute_from s leaf buf ~lo ~n =
  let nsegs = s.cfg.Config.nsegs in
  assert (n <= Config.capacity s.cfg);
  let counts = Array.make nsegs 0 in
  for j = 0 to n - 1 do
    let k = Api.read (buf + (2 * (lo + j))) in
    let v = Api.read (buf + (2 * (lo + j)) + 1) in
    let i = j mod nsegs in
    Api.write (seg_key_addr s leaf i counts.(i)) k;
    Api.write (seg_value_addr s leaf i counts.(i)) v;
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri (fun i c -> Api.write (seg_count_addr s leaf i) c) counts

(* Fill a fresh leaf's segments round-robin from a sorted record list
   (bulk loading; same scatter property as redistribute_from). *)
let fill_round_robin s leaf records =
  let nsegs = s.cfg.Config.nsegs in
  let counts = Array.make nsegs 0 in
  List.iteri
    (fun j (k, v) ->
      let i = j mod nsegs in
      Api.write (seg_key_addr s leaf i counts.(i)) k;
      Api.write (seg_value_addr s leaf i counts.(i)) v;
      counts.(i) <- counts.(i) + 1)
    records;
  Array.iteri (fun i c -> Api.write (seg_count_addr s leaf i) c) counts

(* Compaction (Algorithm 3, Figure 6b/6c): move everything to a transient
   reserved buffer, clear the segments, redistribute evenly.  After this,
   any segment has room iff total < capacity. *)
let compact s leaf =
  let r = records s in
  gather_into s leaf r;
  let stash = stash_reserved r in
  let buf, _ = stash in
  clear_segs s leaf;
  redistribute_from s leaf buf ~lo:0 ~n:r.n;
  free_reserved stash

(* Mark-bits word covering [keys] for a leaf's CCM. *)
let marks_word_for c keys =
  List.fold_left (fun acc k -> acc lor (1 lsl Ccm.hash c k)) 0 keys

(* Does any live key other than [key] hash to [slot]?  Decides whether a
   delete may clear the mark bit (a Bloom filter cannot forget a colliding
   key). *)
let slot_collision s leaf c ~key ~slot =
  let hit = ref false in
  for i = 0 to s.cfg.Config.nsegs - 1 do
    let cnt = seg_count s leaf i in
    for j = 0 to cnt - 1 do
      let k = Api.read (seg_key_addr s leaf i j) in
      if k <> key && Ccm.hash c k = slot then hit := true
    done
  done;
  !hit

(* All keys currently in the leaf (for mark rebuilds). *)
let keys s leaf = List.map fst (gather s leaf)
