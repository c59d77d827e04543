(* Conventional B+Tree over simulated memory.

   Internal nodes come from the shared Index; leaves store sorted key/value
   pairs consecutively and are chained for range scans.  The code is plain
   sequential logic written against Euno_sim.Api: callers decide how to make
   it atomic — the HTM-B+Tree baseline wraps whole operations in one RTM
   region (Htm_bptree); unit tests run it single-threaded.

   Deletion removes in place without rebalancing (the lazy scheme of Sen &
   Tarjan adopted by the paper); underfull or empty leaves are tolerated. *)

module Api = Euno_sim.Api
module Linemap = Euno_mem.Linemap
module L = Layout

type t = { idx : Index.t }

let null = 0

(* ---------- allocation ---------- *)

let alloc_leaf ~(layout : L.t) ~map =
  let node = Api.alloc ~kind:Linemap.Node_meta ~words:layout.L.leaf_words in
  (* The header line stays Node_meta; record lines hold record data. *)
  Linemap.set_range map
    ~addr:(node + layout.L.records_off)
    ~words:(layout.L.leaf_words - layout.L.records_off)
    Linemap.Record;
  Api.reclassify ~from_kind:Linemap.Node_meta ~to_kind:Linemap.Record
    ~words:(layout.L.leaf_words - layout.L.records_off);
  Api.write (L.tag node) L.tag_leaf;
  node

let create ~fanout ~map () =
  let layout = L.make ~fanout in
  let root = alloc_leaf ~layout ~map in
  { idx = Index.create ~fanout ~map ~root () }

(* Bulk load sorted, distinct records into a fresh tree: leaves are packed
   to [fill] of the fanout and the index is built bottom-up (single-
   threaded; the YCSB load phase). *)
let bulk_load ?(fill = 0.7) ~fanout ~map records =
  let layout = L.make ~fanout in
  let per_leaf =
    max 1 (min fanout (int_of_float (fill *. float_of_int fanout)))
  in
  let make_leaf chunk =
    let leaf = alloc_leaf ~layout ~map in
    List.iteri
      (fun i (k, v) ->
        Api.write (L.record_key layout leaf i) k;
        Api.write (L.record_value layout leaf i) v)
      chunk;
    Api.write (L.nkeys leaf) (List.length chunk);
    (fst (List.hd chunk), leaf)
  in
  match records with
  | [] -> create ~fanout ~map ()
  | _ ->
      let leaves = List.map make_leaf (Index.chunk_records per_leaf records) in
      (* chain the leaves *)
      let rec chain = function
        | (_, a) :: ((_, b) :: _ as rest) ->
            Api.write (L.next a) b;
            chain rest
        | [ _ ] | [] -> ()
      in
      chain leaves;
      let idx = Index.create ~fanout ~map ~root:(snd (List.hd leaves)) () in
      Index.build_levels idx leaves;
      { idx }

let layout t = t.idx.Index.layout
let root t = Index.root t.idx
let depth t = Index.depth t.idx
let fanout t = (layout t).L.fanout
let find_leaf t key = Index.find_leaf t.idx key

(* First record index with key >= [key] among a leaf's [n] sorted records.
   Linear scan, as in the paper-era implementations (small nodes favour a
   sequential sweep over binary search). *)
let lower_bound t leaf n key =
  let lay = layout t in
  let rec go i =
    if i >= n || Api.read (L.record_key lay leaf i) >= key then i
    else go (i + 1)
  in
  go 0

(* ---------- search ---------- *)

let get t key =
  let leaf = find_leaf t key in
  let n = Api.read (L.nkeys leaf) in
  let i = lower_bound t leaf n key in
  if i < n && Api.read (L.record_key (layout t) leaf i) = key then
    Some (Api.read (L.record_value (layout t) leaf i))
  else None

(* ---------- insertion ---------- *)

let leaf_insert_at t leaf n i key value =
  let lay = layout t in
  for j = n downto i + 1 do
    Api.write (L.record_key lay leaf j) (Api.read (L.record_key lay leaf (j - 1)));
    Api.write (L.record_value lay leaf j) (Api.read (L.record_value lay leaf (j - 1)))
  done;
  Api.write (L.record_key lay leaf i) key;
  Api.write (L.record_value lay leaf i) value;
  Api.write (L.nkeys leaf) (n + 1)

(* Split a full leaf; returns the new right sibling. *)
let split_leaf t leaf =
  let lay = layout t in
  let f = lay.L.fanout in
  let mid = f / 2 in
  let right = alloc_leaf ~layout:lay ~map:t.idx.Index.map in
  for j = 0 to f - mid - 1 do
    Api.write (L.record_key lay right j) (Api.read (L.record_key lay leaf (mid + j)));
    Api.write (L.record_value lay right j) (Api.read (L.record_value lay leaf (mid + j)))
  done;
  Api.write (L.nkeys leaf) mid;
  Api.write (L.nkeys right) (f - mid);
  Api.write (L.next right) (Api.read (L.next leaf));
  Api.write (L.next leaf) right;
  Api.write (L.parent right) (Api.read (L.parent leaf));
  (* Node version: the shared metadata bumped on structural change. *)
  Api.write (L.version leaf) (Api.read (L.version leaf) + 1);
  let sep = Api.read (L.record_key lay right 0) in
  Index.insert_into_parent t.idx leaf sep right;
  right

(* Put: update in place if present, else insert, splitting as needed
   (Algorithm 1 lines 10-19). *)
let put t key value =
  let lay = layout t in
  let leaf = find_leaf t key in
  let n = Api.read (L.nkeys leaf) in
  let i = lower_bound t leaf n key in
  if i < n && Api.read (L.record_key lay leaf i) = key then
    Api.write (L.record_value lay leaf i) value
  else if n < lay.L.fanout then leaf_insert_at t leaf n i key value
  else begin
    let right = split_leaf t leaf in
    let target = if key < Api.read (L.record_key lay right 0) then leaf else right in
    let tn = Api.read (L.nkeys target) in
    let ti = lower_bound t target tn key in
    leaf_insert_at t target tn ti key value
  end

(* ---------- deletion (lazy: no rebalance) ---------- *)

let delete t key =
  let lay = layout t in
  let leaf = find_leaf t key in
  let n = Api.read (L.nkeys leaf) in
  let i = lower_bound t leaf n key in
  if i < n && Api.read (L.record_key lay leaf i) = key then begin
    for j = i to n - 2 do
      Api.write (L.record_key lay leaf j) (Api.read (L.record_key lay leaf (j + 1)));
      Api.write (L.record_value lay leaf j) (Api.read (L.record_value lay leaf (j + 1)))
    done;
    Api.write (L.nkeys leaf) (n - 1);
    true
  end
  else false

(* ---------- range scan ---------- *)

(* Fold [f] over up to [count] records with key >= [from], in key order,
   along the leaf chain. *)
let fold_range t ~from ~count ~init f =
  let lay = layout t in
  let rec collect leaf i n acc remaining =
    if remaining = 0 || leaf = null then acc
    else if i >= n then
      let nxt = Api.read (L.next leaf) in
      if nxt = null then acc
      else collect nxt 0 (Api.read (L.nkeys nxt)) acc remaining
    else begin
      let k = Api.read (L.record_key lay leaf i) in
      let v = Api.read (L.record_value lay leaf i) in
      collect leaf (i + 1) n (f acc k v) (remaining - 1)
    end
  in
  let leaf = find_leaf t from in
  let n = Api.read (L.nkeys leaf) in
  let i = lower_bound t leaf n from in
  collect leaf i n init count

let scan t ~from ~count =
  List.rev (fold_range t ~from ~count ~init:[] (fun acc k v -> (k, v) :: acc))

(* ---------- validation and inspection (tests) ---------- *)

(* Every record in tree order, by a depth-first walk of the index (not the
   leaf chain).  Each record's value is read before its key. *)
let iter_records t f =
  let lay = layout t in
  Index.iter_leaves t.idx (root t) (fun leaf ->
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

(* Structural invariants: the shared index checks plus a leaf-fanout bound,
   then an ascending tree order and a leaf chain reaching every record.
   Three streaming walks: the index check, the tree order, the chain. *)
let check_invariants t =
  let lay = layout t in
  Index.check_structure t.idx ~leaf_keys:(fun leaf visit ->
      let n = Api.read (L.nkeys leaf) in
      if n > lay.L.fanout then fail_inv "leaf %d: overfull" leaf;
      for i = 0 to n - 1 do
        visit (Api.read (L.record_key lay leaf i))
      done);
  let records = ref 0 and prev = ref 0 and ordered = ref true in
  iter_records t (fun k _ ->
      if !records > 0 && k < !prev then ordered := false;
      prev := k;
      incr records);
  if not !ordered then fail_inv "leaf chain out of order";
  let chained =
    fold_range t ~from:min_int ~count:max_int ~init:0 (fun n _ _ -> n + 1)
  in
  if chained <> !records then
    fail_inv "leaf chain misses records (%d vs %d)" chained !records

(* Structural statistics (single-threaded inspection). *)
type tree_stats = {
  st_depth : int;
  st_internals : int;
  st_leaves : int;
  st_records : int;
  st_avg_leaf_fill : float; (* records / (leaves * fanout) *)
}

let stats t =
  let leaves = ref 0 and records = ref 0 in
  Index.iter_leaves t.idx (root t) (fun leaf ->
      incr leaves;
      records := !records + Api.read (L.nkeys leaf));
  {
    st_depth = depth t;
    st_internals = Index.count_internals t.idx (root t);
    st_leaves = !leaves;
    st_records = !records;
    st_avg_leaf_fill =
      float_of_int !records /. float_of_int (max 1 !leaves * fanout t);
  }
