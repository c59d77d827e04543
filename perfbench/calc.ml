(* The benchmark's own arithmetic: order statistics, the tail-percentile
   choice, span self time and the metric-name grammar.  Pure functions,
   covered by selftest.ml. *)

(* Linear interpolation between closest ranks (the same definition as
   Euno_stats.Summary.percentile).  [p] is in [0, 100]; an empty sample
   gives [nan]. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let rank = Float.max 0.0 (Float.min (p /. 100.0 *. float_of_int (n - 1)) (float_of_int (n - 1))) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
  end

let median xs = percentile xs 50.0

(* Samples strictly beyond percentile [p] of [n] samples: those ranked
   above position p/100 * n. *)
let beyond ~n p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n -. 1e-9))

let tail_ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0 ]

(* The highest percentile of the ladder with at least ten samples beyond
   it.  With fewer than 40 samples no ladder rung above the median
   qualifies, and the tail falls back to the median (p50); callers print
   the chosen percentile beside the sample count, so the fallback is
   visible. *)
let tail_percentile n =
  match List.find_opt (fun p -> beyond ~n p >= 10) tail_ladder with
  | Some p -> p
  | None -> 50.0

(* Length of the union of intervals [(a, b)] clipped to [lo, hi]:
   overlapping or touching intervals are merged first, so time two
   children both cover is counted once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None sorted

(* A span's self time: its duration minus the part of it its children
   cover. *)
let self_time ~start ~stop children =
  (stop -. start) -. covered ~lo:start ~hi:stop children

(* Metric names: [A-Za-z0-9_.-]+, starting with a letter or digit, at
   most 64 characters. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

(* Round seeds: a SplitMix64-style finalizer over (workload seed, round),
   so neighbouring rounds get unrelated seeds; always non-negative. *)
let derive_seed seed round =
  let z = ref ((seed * 0x2545F491) + (round * 0x9E3779B9) + 1) in
  z := (!z lxor (!z lsr 30)) * 0x1CE4E5B9;
  z := (!z lxor (!z lsr 27)) * 0x133111EB;
  (!z lxor (!z lsr 31)) land 0x3FFFFFFF
