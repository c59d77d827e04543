(* YCSB-style key-popularity distributions (Section 5.1 and 5.5).

   Samplers return a key in [0, n).  Rank 0 is the hottest key and ranks map
   to keys in order, so hot keys are *adjacent* — this matches the paper's
   observation that contended workloads hit consecutive records and is what
   drives false sharing inside leaf nodes.  Pass [~scrambled:true] to hash
   ranks across the key space instead (YCSB's scrambled variant).

   Each sampler owns a seeded host-side PRNG: generation happens on the
   benchmark client side, off the simulated memory system (the harness
   charges a fixed cycle cost per generated operation instead). *)

module Rng = Euno_sim.Rng

type spec =
  | Uniform
  | Zipfian of float (* skew coefficient theta, 0 <= theta < 1 *)
  | Self_similar of float (* h: the hottest h*n keys get (1-h) of accesses *)
  | Poisson_hotspot of { hot_frac : float; hot_mass : float }
  | Normal_hotspot of { sigma_frac : float } (* sigma = sigma_frac * mean *)
  | Latest of float
    (* YCSB's "latest" pattern: zipfian over recency — rank r maps to the
       r-th most recently inserted key.  The caller advances the frontier
       with [advance]; used by YCSB workload D. *)

let spec_to_string = function
  | Uniform -> "uniform"
  | Zipfian theta -> Printf.sprintf "zipfian(%.2f)" theta
  | Self_similar h -> Printf.sprintf "self-similar(%.2f)" h
  | Poisson_hotspot { hot_frac; hot_mass } ->
      Printf.sprintf "poisson(%.0f%%->%.0f%%)" (hot_frac *. 100.)
        (hot_mass *. 100.)
  | Normal_hotspot { sigma_frac } ->
      Printf.sprintf "normal(sigma=%.1f%%)" (sigma_frac *. 100.)
  | Latest theta -> Printf.sprintf "latest(%.2f)" theta

type sampler =
  | S_uniform
  | S_zipf of { theta : float; zetan : float; alpha : float; eta : float }
  | S_selfsim of { k : float }
  | S_poisson of { hot_keys : int; hot_mass : float; lambda : float }
  | S_normal of { mean : float; sigma : float }
  | S_latest of { inner : sampler }

type t = {
  n : int;
  rng : Rng.t;
  sampler : sampler;
  scrambled : bool;
  mutable frontier : int; (* most recent key, for Latest *)
}

let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !acc

let compute_zipf n theta =
  if theta <= 0.0 then S_uniform
  else begin
    let zetan = zeta n theta in
    let zeta2 = zeta 2 theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan))
    in
    S_zipf { theta; zetan; alpha; eta }
  end

(* ζ(n, θ) costs n [Float.pow] calls, and every thread of a benchmark round
   (and every later round) asks for the same (n, θ).  The sampler is
   immutable, so each domain computes it once per (n, bits of θ) and shares
   it; the draws are those of a freshly computed one. *)
module Zipf_key = struct
  type t = int * int64

  let equal ((n, b) : t) ((n', b') : t) = n = n' && Int64.equal b b'
  let hash ((n, b) : t) = Hashtbl.hash (n lxor Int64.to_int b)
end

module Zipf_table = Hashtbl.Make (Zipf_key)

let zipf_table = Euno_sim.Domain_ref.create (fun () -> Zipf_table.create 8)

let make_zipf n theta =
  let table = Euno_sim.Domain_ref.get zipf_table in
  let key = (n, Int64.bits_of_float theta) in
  match Zipf_table.find_opt table key with
  | Some s -> s
  | None ->
      let s = compute_zipf n theta in
      Zipf_table.add table key s;
      s

let create ?(scrambled = false) spec ~n ~seed =
  if n < 2 then invalid_arg "Dist.create: n < 2";
  let sampler =
    match spec with
    | Uniform -> S_uniform
    | Zipfian theta ->
        if theta < 0.0 || theta >= 1.0 then
          invalid_arg "Dist.create: zipfian theta must be in [0, 1)";
        make_zipf n theta
    | Self_similar h ->
        if h <= 0.0 || h >= 1.0 then invalid_arg "Dist.create: bad h";
        S_selfsim { k = log h /. log (1.0 -. h) }
    | Poisson_hotspot { hot_frac; hot_mass } ->
        let hot_keys = max 1 (int_of_float (hot_frac *. float_of_int n)) in
        S_poisson { hot_keys; hot_mass; lambda = float_of_int hot_keys /. 4.0 }
    | Normal_hotspot { sigma_frac } ->
        let mean = float_of_int n /. 2.0 in
        S_normal { mean; sigma = sigma_frac *. mean }
    | Latest theta ->
        if theta < 0.0 || theta >= 1.0 then
          invalid_arg "Dist.create: latest theta must be in [0, 1)";
        S_latest { inner = make_zipf n theta }
  in
  { n; rng = Rng.create seed; sampler; scrambled; frontier = n - 1 }

(* Bijective mixer for the scrambled variant: ranks permute onto keys, so
   distinct hot ranks never collide (a collision would merge two hot keys
   into one and inflate contention) and rank 0 moves away from key 0.

   The mix is a permutation of [0, 2^k): xor with a constant, odd-constant
   multiply mod 2^k and xor-shift-right are each invertible on k bits.
   For n that is not a power of two (partitioned workloads divide the key
   space by the thread count), cycle-walking re-mixes until the image
   lands below n, which preserves bijectivity on [0, n). *)
let scramble n rank =
  let k =
    let rec bits k = if 1 lsl k >= n then k else bits (k + 1) in
    bits 1
  in
  let mask = (1 lsl k) - 1 in
  let mix x =
    let x = (x lxor 0x9E3779B9) land mask in
    let x = x * 0x2545F4914F6CDD1D land mask in
    let x = x lxor (x lsr ((k / 2) + 1)) in
    x * 0x9E3779B1 land mask
  in
  let rec walk x =
    let x = mix x in
    if x < n then x else walk x
  in
  walk rank

let gaussian rng =
  (* Box-Muller; one value per call is plenty here. *)
  let u1 = max (Rng.float rng) 1e-12 in
  let u2 = Rng.float rng in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let poisson rng lambda =
  if lambda > 64.0 then
    (* Normal approximation for large lambda. *)
    max 0 (int_of_float (lambda +. (sqrt lambda *. gaussian rng) +. 0.5))
  else begin
    (* Knuth's multiplication method. *)
    let l = exp (-.lambda) in
    let rec go k p =
      let p = p *. Rng.float rng in
      if p > l then go (k + 1) p else k
    in
    go 0 1.0
  end

let rec rank_of t sampler =
  match sampler with
  | S_latest { inner } ->
      (* Recency rank 0 = the newest key; fold back into the key space. *)
      let r = rank_of t inner in
      (t.frontier - r + t.n) mod t.n
  | S_uniform -> Rng.int t.rng t.n
  | S_zipf { theta; zetan; alpha; eta } ->
      let u = Rng.float t.rng in
      let uz = u *. zetan in
      if uz < 1.0 then 0
      else if uz < 1.0 +. Float.pow 0.5 theta then 1
      else
        let r =
          float_of_int t.n
          *. Float.pow ((eta *. u) -. eta +. 1.0) alpha
        in
        min (t.n - 1) (int_of_float r)
  | S_selfsim { k } ->
      let u = max (Rng.float t.rng) 1e-12 in
      min (t.n - 1) (int_of_float (float_of_int t.n *. Float.pow u k))
  | S_poisson { hot_keys; hot_mass; lambda } ->
      (* Mixture: with the calibrated probability, a Poisson-shaped draw
         inside the hot region; otherwise uniform over the whole space.
         hot_mass = p + (1-p) * hot_frac  =>  p below. *)
      let hot_frac = float_of_int hot_keys /. float_of_int t.n in
      let p = (hot_mass -. hot_frac) /. (1.0 -. hot_frac) in
      if Rng.float t.rng < p then min (hot_keys - 1) (poisson t.rng lambda)
      else Rng.int t.rng t.n
  | S_normal { mean; sigma } ->
      let v = int_of_float (mean +. (sigma *. gaussian t.rng)) in
      min (t.n - 1) (max 0 v)

let rank t = rank_of t t.sampler

let next t =
  let r = rank t in
  if t.scrambled then scramble t.n r else r

let advance t = t.frontier <- (t.frontier + 1) mod t.n

let size t = t.n

(* Empirical mass of the hottest [frac] of keys, for calibration tests. *)
let hot_mass t ~samples ~frac =
  let counts = Hashtbl.create 1024 in
  for _ = 1 to samples do
    let k = next t in
    Hashtbl.replace counts k
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let freqs =
    Hashtbl.fold (fun _ c acc -> c :: acc) counts []
    |> List.sort (fun a b -> compare b a)
  in
  let top = max 1 (int_of_float (frac *. float_of_int t.n)) in
  let rec take n acc = function
    | [] -> acc
    | _ when n = 0 -> acc
    | c :: rest -> take (n - 1) (acc + c) rest
  in
  float_of_int (take top 0 freqs) /. float_of_int samples
