(** The EunoSan lint sweep: every tree under representative contention.

    One sweep runs all four trees (see {!Kv.all_kinds}) under a
    mixed-operation workload at zipfian theta 0.2 / 0.8 / 0.99, then once
    more under the stock chaos campaign ({!Euno_fault.Plan.campaign},
    horizon taken from the tree's own zipf-0.8 run), each with the
    sanitizer armed and post-run invariant checks on.  A healthy repo
    reports zero findings everywhere; the [euno_repro san] subcommand
    is a thin shell over this module. *)

type outcome = {
  o_tree : string;
  o_workload : string;  (** e.g. ["zipf-0.80"] or ["chaos-zipf-0.80"] *)
  o_strategy : string;  (** {!Euno_htm.Htm.strategy_name} of the cell *)
  o_capacity_model : string;  (** [Cost.capacity.cm_name] of the cell *)
  o_threads : int;
  o_seed : int;
  o_summary : Euno_san.San.summary;
}

val run :
  ?quick:bool ->
  ?seed:int ->
  ?strategies:Euno_htm.Htm.strategy list ->
  ?capacities:Euno_sim.Cost.capacity_model list ->
  ?domains:int ->
  unit ->
  outcome list
(** Execute the sweep over each (strategy x capacity-model x tree) cell
    of the requested grid — by default every strategy under the nominal
    capacity model.  Elision cells keep each tree's own default policy
    (the pre-strategy behaviour); other strategies override only the
    policy's strategy selector.  [quick] shrinks threads, operation count
    and key space for smoke-test latitude (CI); default scale matches
    {!Runner.default_setup}.  [domains] fans the cells across that many
    worker domains via {!Pool.map} (default {!Pool.default_domains}) —
    outcomes are byte-identical to the sequential sweep either way:
    strategy-major, then capacity, then tree-major in {!Kv.all_kinds}
    order, thetas ascending, chaos last. *)

val clean : outcome list -> bool
(** No findings anywhere in the sweep. *)

val print : out_channel -> outcome list -> unit
(** Human-readable verdict table; findings (if any) listed underneath. *)

val record : outcome Schema.kind
(** The schema-v1 ["san"] record: event count, finding total, and the
    capped finding list (kind, subject, announcing thread, logical clock,
    detail). *)
