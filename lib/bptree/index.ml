(* The internal-node index shared by tree variants.

   Internal nodes are conventional sorted-separator nodes (Layout).  Leaves
   are opaque to this module except for the common header offsets [tag] and
   [parent]: both the conventional B+Tree and the Euno-B+Tree chain their
   leaves under this same index, which is exactly the paper's design — the
   Eunomia pattern rebuilds the *leaf layer* and keeps the interior
   ordered. *)

module Api = Euno_sim.Api
module Linemap = Euno_mem.Linemap
module L = Layout

type t = {
  layout : L.t;
  meta : int; (* tree-meta line: root pointer and depth *)
  map : Linemap.t;
}

let null = 0

let create ~fanout ~map ~root () =
  let layout = L.make ~fanout in
  let meta = Api.alloc ~kind:Linemap.Tree_meta ~words:L.meta_words in
  Api.write (meta + L.meta_root) root;
  Api.write (meta + L.meta_depth) 1;
  { layout; meta; map }

let root t = Api.read (t.meta + L.meta_root)
let depth t = Api.read (t.meta + L.meta_depth)

let alloc_internal t =
  let node =
    Api.alloc ~kind:Linemap.Node_meta ~words:t.layout.L.internal_words
  in
  Api.write (L.tag node) L.tag_internal;
  node

(* Index of the first key >= [key] among [n] sorted keys of [node]. *)
let lower_bound t node n key =
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if Api.read (L.key t.layout node mid) < key then go (mid + 1) hi
      else go lo mid
    end
  in
  go 0 n

(* Child covering [key]: separator keys.(i) is the smallest key of
   children.(i+1). *)
let child_for t node key =
  let n = Api.read (L.nkeys node) in
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if key < Api.read (L.key t.layout node mid) then go lo mid
      else go (mid + 1) hi
    end
  in
  let i = go 0 n in
  Api.read (L.child t.layout node i)

(* Root-to-leaf walk (Algorithm 1/2: the depth counter read here is the
   shared tree metadata the paper identifies as a false-conflict source). *)
let find_leaf t key =
  let d = depth t in
  let rec walk node d =
    if d <= 1 then node else walk (child_for t node key) (d - 1)
  in
  walk (root t) d

let internal_insert_at t node n i sep right =
  for j = n downto i + 1 do
    Api.write (L.key t.layout node j) (Api.read (L.key t.layout node (j - 1)))
  done;
  for j = n + 1 downto i + 2 do
    Api.write (L.child t.layout node j)
      (Api.read (L.child t.layout node (j - 1)))
  done;
  Api.write (L.key t.layout node i) sep;
  Api.write (L.child t.layout node (i + 1)) right;
  Api.write (L.parent right) node;
  Api.write (L.nkeys node) (n + 1)

(* Split a full internal node; returns (promoted separator, right node).
   [on_alloc] runs on the fresh right node before anything makes it
   reachable — lock-coupling protocols (Masstree) use it to create the
   node already locked. *)
let split_internal ?(on_alloc = fun (_ : int) -> ()) t node =
  let f = t.layout.L.fanout in
  let mid = f / 2 in
  let right = alloc_internal t in
  on_alloc right;
  let promoted = Api.read (L.key t.layout node mid) in
  let rn = f - mid - 1 in
  for j = 0 to rn - 1 do
    Api.write (L.key t.layout right j)
      (Api.read (L.key t.layout node (mid + 1 + j)))
  done;
  for j = 0 to rn do
    let c = Api.read (L.child t.layout node (mid + 1 + j)) in
    Api.write (L.child t.layout right j) c;
    Api.write (L.parent c) right
  done;
  Api.write (L.nkeys node) mid;
  Api.write (L.nkeys right) rn;
  Api.write (L.level right) (Api.read (L.level node));
  Api.write (L.parent right) (Api.read (L.parent node));
  (promoted, right)

let grow_root t left sep right =
  let newroot = alloc_internal t in
  Api.write (L.nkeys newroot) 1;
  Api.write (L.key t.layout newroot 0) sep;
  Api.write (L.child t.layout newroot 0) left;
  Api.write (L.child t.layout newroot 1) right;
  Api.write (L.parent left) newroot;
  Api.write (L.parent right) newroot;
  Api.write (L.parent newroot) null;
  Api.write (t.meta + L.meta_root) newroot;
  Api.write (t.meta + L.meta_depth) (depth t + 1);
  newroot

(* Propagate a split upwards (Algorithm 1 lines 17-19 / Algorithm 3 lines
   84-86). *)
let rec insert_into_parent t node sep right =
  let parent = Api.read (L.parent node) in
  if parent = null then ignore (grow_root t node sep right)
  else begin
    let n = Api.read (L.nkeys parent) in
    if n < t.layout.L.fanout then begin
      let i = lower_bound t parent n sep in
      internal_insert_at t parent n i sep right
    end
    else begin
      let promoted, pright = split_internal t parent in
      insert_into_parent t parent promoted pright;
      let target = if sep < promoted then parent else pright in
      let tn = Api.read (L.nkeys target) in
      let i = lower_bound t target tn sep in
      internal_insert_at t target tn i sep right
    end
  end

(* Remove separator [i] and child [i+1] from an internal node (the merge
   path).  The caller guarantees the node keeps at least one separator. *)
let internal_remove_at t node i =
  let n = Api.read (L.nkeys node) in
  for j = i to n - 2 do
    Api.write (L.key t.layout node j) (Api.read (L.key t.layout node (j + 1)))
  done;
  for j = i + 1 to n - 1 do
    Api.write (L.child t.layout node j)
      (Api.read (L.child t.layout node (j + 1)))
  done;
  Api.write (L.nkeys node) (n - 1)

(* Position of [child] among a node's children, or -1. *)
let child_index t node child =
  let n = Api.read (L.nkeys node) in
  let rec go i =
    if i > n then -1
    else if Api.read (L.child t.layout node i) = child then i
    else go (i + 1)
  in
  go 0

(* ---------- bulk loading ---------- *)

(* Split a sorted record list into consecutive leaf-sized chunks of
   [per_leaf] records; the last chunk holds the remainder, which can be a
   single record.  Every tree's bulk load packs its leaves this way. *)
let chunk_records per_leaf records =
  let rec go acc current n = function
    | [] ->
        List.rev (match current with [] -> acc | _ -> List.rev current :: acc)
    | r :: rest when n < per_leaf -> go acc (r :: current) (n + 1) rest
    | rest -> go (List.rev current :: acc) [] 0 rest
  in
  go [] [] 0 records

(* Build the internal levels bottom-up over an ordered, non-empty list of
   (min key, node) children, linking parent pointers, and install the
   root.  Used by the single-threaded bulk loaders of every tree variant:
   each internal node is packed to the fanout, yielding the flattest
   possible index. *)
let build_levels t children =
  let f = t.layout.L.fanout in
  let rec build level nodes =
    match nodes with
    | [] -> invalid_arg "Index.build_levels: no nodes"
    | [ (_, root) ] ->
        Api.write (L.parent root) null;
        Api.write (t.meta + L.meta_root) root;
        Api.write (t.meta + L.meta_depth) level
    | nodes ->
        (* Group up to fanout+1 children per parent. *)
        let rec group acc nodes =
          match nodes with
          | [] -> List.rev acc
          | _ ->
              let rec take n acc = function
                | [] -> (List.rev acc, [])
                | rest when n = 0 -> (List.rev acc, rest)
                | x :: rest -> take (n - 1) (x :: acc) rest
              in
              let chunk, rest = take (f + 1) [] nodes in
              (* Never leave a lone child for the last parent: internal
                 nodes need at least one separator (two children). *)
              let chunk, rest =
                match (rest, List.rev chunk) with
                | [ only ], last :: chunk_rev ->
                    (List.rev chunk_rev, [ last; only ])
                | _ -> (chunk, rest)
              in
              group (chunk :: acc) rest
        in
        let parents =
          List.map
            (fun chunk ->
              let node = alloc_internal t in
              let minkey = fst (List.hd chunk) in
              List.iteri
                (fun i (k, child) ->
                  if i > 0 then Api.write (L.key t.layout node (i - 1)) k;
                  Api.write (L.child t.layout node i) child;
                  Api.write (L.parent child) node)
                chunk;
              Api.write (L.nkeys node) (List.length chunk - 1);
              (minkey, node))
            (group [] nodes)
        in
        build (level + 1) parents
  in
  build 1 children

(* Depth-first iteration over all leaves, left to right. *)
let rec iter_leaves t node f =
  if Api.read (L.tag node) = L.tag_leaf then f node
  else begin
    let n = Api.read (L.nkeys node) in
    for i = 0 to n do
      iter_leaves t (Api.read (L.child t.layout node i)) f
    done
  end

(* Number of internal nodes in a subtree. *)
let rec count_internals t node =
  if Api.read (L.tag node) = L.tag_leaf then 0
  else begin
    let n = Api.read (L.nkeys node) in
    let acc = ref 1 in
    for i = 0 to n do
      acc := !acc + count_internals t (Api.read (L.child t.layout node i))
    done;
    !acc
  end

(* ---------- structural validation (tests) ---------- *)

exception Invariant of string

let fail_inv fmt = Printf.ksprintf (fun s -> raise (Invariant s)) fmt

(* The leaf under validation: its separator bounds ([lo] = min_int when
   unbounded below, since no key is below it), the previous key, and its
   first violation.  A leaf's violation is raised once [leaf_keys] has
   made all of the leaf's reads, so a failing check stops after the same
   reads whatever the position of the bad key. *)
type leaf_fault = Clean | Unsorted | Below | Above

type leaf_state = {
  mutable lo : int;
  mutable hi : int;
  mutable has_hi : bool;
  mutable seen : int; (* keys visited so far *)
  mutable prev : int;
  mutable fault : leaf_fault;
  mutable fault_key : int; (* the key out of bounds *)
}

(* Check the shared structure: internal sortedness, separator bounds,
   parent pointers, uniform leaf depth.  [leaf_keys leaf visit] calls
   [visit] on a leaf's keys in ascending order (each variant knows its own
   leaf layout).  One pass, no allocation per node or key. *)
let check_structure t ~leaf_keys =
  let f = t.layout.L.fanout in
  let st =
    {
      lo = min_int;
      hi = 0;
      has_hi = false;
      seen = 0;
      prev = 0;
      fault = Clean;
      fault_key = 0;
    }
  in
  let visit k =
    (match st.fault with
    | Clean ->
        if st.seen > 0 && k <= st.prev then st.fault <- Unsorted
        else if k < st.lo then begin
          st.fault <- Below;
          st.fault_key <- k
        end
        else if st.has_hi && k >= st.hi then begin
          st.fault <- Above;
          st.fault_key <- k
        end
    | Unsorted | Below | Above -> ());
    st.seen <- st.seen + 1;
    st.prev <- k
  in
  let leaf_depth = ref 0 (* 0 until the first leaf *) and mixed = ref false in
  let rec walk node ~lo ~hi ~has_hi ~d ~parent =
    if Api.read (L.parent node) <> parent then
      fail_inv "node %d: bad parent pointer" node;
    if Api.read (L.tag node) = L.tag_leaf then begin
      if !leaf_depth = 0 then leaf_depth := d
      else if d <> !leaf_depth then mixed := true;
      st.lo <- lo;
      st.hi <- hi;
      st.has_hi <- has_hi;
      st.seen <- 0;
      st.fault <- Clean;
      leaf_keys node visit;
      match st.fault with
      | Clean -> ()
      | Unsorted -> fail_inv "leaf %d: keys not sorted" node
      | Below -> fail_inv "node %d: key %d below bound %d" node st.fault_key lo
      | Above -> fail_inv "node %d: key %d above bound %d" node st.fault_key hi
    end
    else begin
      let n = Api.read (L.nkeys node) in
      if n < 1 then fail_inv "internal %d: no keys" node;
      if n > f then fail_inv "internal %d: overfull (%d > %d)" node n f;
      let prev = ref 0 in
      for i = 0 to n - 1 do
        let k = Api.read (L.key t.layout node i) in
        if i > 0 && k <= !prev then fail_inv "internal %d: keys not sorted" node;
        if k < lo then fail_inv "node %d: key %d below bound %d" node k lo;
        if has_hi && k >= hi then
          fail_inv "node %d: key %d above bound %d" node k hi;
        prev := k
      done;
      for i = 0 to n do
        let lo' = if i = 0 then lo else Api.read (L.key t.layout node (i - 1)) in
        let hi' = if i = n then hi else Api.read (L.key t.layout node i) in
        walk (Api.read (L.child t.layout node i)) ~lo:lo' ~hi:hi'
          ~has_hi:(has_hi || i < n) ~d:(d + 1) ~parent:node
      done
    end
  in
  walk (root t) ~lo:min_int ~hi:0 ~has_hi:false ~d:1 ~parent:null;
  if !leaf_depth = 0 then fail_inv "no leaves";
  if !mixed then fail_inv "leaves at different depths";
  let d0 = !leaf_depth in
  if d0 <> depth t then fail_inv "meta depth %d but leaves at %d" (depth t) d0
