(** YCSB-style key-popularity distributions (paper Sections 5.1, 5.5).

    Rank 0 is the hottest key; by default ranks map to keys in order so hot
    keys are adjacent, which is what drives the false sharing the paper
    analyzes.  All samplers are deterministic given their seed. *)

type spec =
  | Uniform
  | Zipfian of float
      (** Skew coefficient theta in [0, 1); theta = 0 is uniform, 0.99 sends
          41% of requests to the hottest tenth. *)
  | Self_similar of float
      (** Gray et al. self-similar: the hottest [h*n] keys receive [1-h] of
          accesses (h = 0.2 gives the 80-20 rule). *)
  | Poisson_hotspot of { hot_frac : float; hot_mass : float }
      (** Poisson-shaped hot cluster: the hottest [hot_frac] of the key
          space receives [hot_mass] of requests (paper: 10% -> 70%). *)
  | Normal_hotspot of { sigma_frac : float }
      (** Normal around n/2 with sigma = [sigma_frac] * mean (paper: 1%). *)
  | Latest of float
      (** YCSB's "latest" pattern: zipfian over recency.  {!advance} moves
          the frontier when the workload inserts a new key. *)

val spec_to_string : spec -> string

type t

val scramble : int -> int -> int
(** [scramble n rank] hashes a popularity rank to a key, bijectively on
    [0, n): distinct ranks always map to distinct keys, and rank 0 (the
    hottest key) does not stay at key 0.  This is what [~scrambled]
    applies to every draw. *)

val create : ?scrambled:bool -> spec -> n:int -> seed:int -> t
(** Sampler over keys [0, n).  [scrambled] hashes ranks across the key
    space (YCSB scrambled variant); default false = hot keys adjacent.

    {b Cost:} a [Zipfian] or [Latest] sampler needs ζ(n, θ), O(n) float
    work.  It is computed once per domain and (n, θ) and reused, so
    every later sampler with the same (n, θ) costs O(1) and draws exactly
    the keys a freshly computed one would. *)

val next : t -> int
(** Draw a key. *)

val advance : t -> unit
(** Advance the recency frontier (after an insert, for [Latest]). *)

val size : t -> int

val hot_mass : t -> samples:int -> frac:float -> float
(** Empirical fraction of draws landing on the hottest [frac] of keys;
    used by calibration tests. *)
