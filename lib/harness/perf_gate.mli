(** Perf-regression gate: compare the ["perf"] probe records of a bench run
    against a committed baseline inside a multiplicative tolerance band.

    Used by [bin/euno_perf_check]; see docs/EXPERIMENTS.md for the
    methodology (band choice, when and how to re-baseline). *)

module Json = Euno_stats.Json

type direction = Lower_is_better | Higher_is_better

val direction_of_metric : string -> direction
(** ["ns_per_call"] (and unknown metrics) are lower-is-better;
    ["sim_ops_per_wall_sec"] and ["campaign_cells_per_wall_sec"] are
    higher-is-better. *)

type probe = {
  p_name : string;
  p_strategy : string;  (** fallback strategy the probe ran under *)
  p_capacity_model : string;  (** capacity model the probe ran under *)
  p_metric : string;
  p_value : float;
}

type comparison = {
  c_name : string;
  c_metric : string;
  c_baseline : float option;  (** [None]: probe new in current (pass) *)
  c_current : float option;  (** [None]: probe disappeared (fail) *)
  c_factor : float option;
      (** degradation factor, direction-normalized so that > band is worse:
          current/baseline for lower-is-better metrics, baseline/current
          for higher-is-better *)
  c_ok : bool;
}

val probes_of_document : Json.t -> (probe list, string) result
(** Extract and schema-validate every ["perf"] record of a telemetry
    document (other record types are ignored). *)

val compare_probes :
  band:float -> baseline:probe list -> current:probe list -> comparison list
(** One comparison per baseline probe (matched to current by name, missing
    = fail), then one informational pass per current-only probe.  [band]
    is the allowed degradation factor (1.5 = up to 50% worse).
    @raise Invalid_argument when [band < 1.0]. *)

val all_ok : comparison list -> bool

val record : probe Schema.kind
(** The schema-v1 ["perf"] record the bench driver emits and the
    [euno_perf_check] gate consumes: [name], [strategy], [capacity_model]
    (names the binaries accept), [metric] (unit and better-direction) and
    numeric [value]. *)

val micro : (string * float) Schema.kind
(** The ["micro"] record of an engine micro-benchmark: [name] and
    [ns_per_call]. *)

val baseline_document : probe list -> Json.t
(** Wrap probes as a schema-versioned document suitable for committing as
    [bench/baseline.json] (re-baselining). *)
