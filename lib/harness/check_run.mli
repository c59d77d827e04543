(** EunoCheck campaigns: adversarial schedule exploration (via
    {!Euno_sim.Explore} policies plugged into the machine scheduler) with
    linearizability checking of the recorded histories
    ({!History.check}).

    A campaign runs many small, hotly contended executions — trees x op
    mixes x key distributions x (policy, seed) schedules — and reports any
    [Illegal] verdict as a found atomicity bug, with the fired preemption
    set greedily shrunk to a minimal deterministic counterexample and a
    one-line repro descriptor that [euno_repro check --repro] replays.

    Validation is mutation-driven: {!hunt_mutations} flips the [Testonly]
    switches that reintroduce historical protocol bugs and must catch each
    one, while {!sweep} must pass the unmutated trees clean. *)

(** {1 Configuration} *)

type config = {
  tree : Kv.kind;
  mix : string;  (** ["point"] (scan-free) or ["scan"] *)
  dist : string;  (** ["uniform"] or ["zipf"] *)
  strategy : Euno_htm.Htm.strategy;
      (** fallback strategy the tree's HTM policy selects *)
  threads : int;
  ops : int;  (** operations per thread *)
  keys : int;  (** key-space size; tiny so operations genuinely race *)
  seed : int;
  mutation : string;  (** ["none"] or a name in {!mutation_names} *)
}

val base_config : Kv.kind -> config
(** The standard hunting cell: 4 threads x 12 ops over 8 keys, zipfian
    point mix, elision strategy, no mutation. *)

val mutation_names : string list
(** Registered [Testonly] mutation switches, by repro-descriptor name. *)

val check_htm_policy : Euno_htm.Htm.policy
(** Tiny retry budgets so operations keep crossing the
    fast-path/fallback boundary — where the hunted bugs live. *)

val check_policy : Euno_htm.Htm.strategy -> Euno_htm.Htm.policy
(** {!check_htm_policy} under the given strategy (one unsubscribed fast
    attempt for three-path, keeping boundary crossings dense). *)

(** {1 One execution} *)

type exec = {
  x_verdict : History.verdict;
  x_events : int;
  x_fired : Euno_sim.Explore.preemption list;
      (** preemptions the policy fired, oldest first *)
}

val execute : config -> policy:Euno_sim.Explore.spec -> exec
(** Run one execution of [config] under [policy] and check its history.
    Deterministic: same [config] and [policy] reproduce the same verdict
    and the same fired preemptions. *)

(** {1 Repro descriptors} *)

val config_to_string : config -> string

val repro_to_string : config -> Euno_sim.Explore.spec -> string
(** One-line descriptor: the config fields plus
    [;policy=<Explore.spec_to_string>]. *)

val repro_of_string : string -> config * Euno_sim.Explore.spec
(** Inverse of {!repro_to_string}; raises [Invalid_argument] on a
    malformed descriptor.  A descriptor without a [strategy=] field (one
    recorded before strategies existed) replays under elision. *)

(** {1 Counterexample shrinking} *)

val shrink : config -> Euno_sim.Explore.preemption list -> Euno_sim.Explore.preemption list
(** Greedy delta-debugging over a failing run's fired preemptions: replay
    under [Explore.Replay] with each preemption dropped in turn and keep
    only the ones the violation needs. *)

(** {1 Campaigns} *)

type violation = {
  v_core : History.event list;  (** minimized non-linearizable core *)
  v_fired : Euno_sim.Explore.preemption list;
  v_minimized : Euno_sim.Explore.preemption list;  (** after {!shrink} *)
  v_repro : string;  (** replays the minimized counterexample *)
}

type outcome = {
  o_config : config;
  o_policy : string;  (** descriptor of the policy (or pool) used *)
  o_runs : int;
  o_events : int;  (** total history events checked *)
  o_violation : violation option;
}

val hunt : ?budget:int -> config -> outcome
(** Run up to [budget] (default 64) (policy, seed) schedules of [config],
    round-robin over a diverse policy pool; stop at the first violation
    and shrink it. *)

val sweep :
  ?quick:bool ->
  ?seed:int ->
  ?strategies:Euno_htm.Htm.strategy list ->
  ?domains:int ->
  unit ->
  outcome list
(** The clean sweep: every strategy (default all) x tree x mix x
    distribution, several (policy, seed) schedules each, no mutations.
    Any violation is a real bug in the trees, the fallback strategies (or
    the checker).  Each hunt is one {!Pool.map} cell: [domains] > 1 fans
    them across worker domains with byte-identical outcomes in the same
    canonical order. *)

val hunt_mutations :
  ?budget:int -> ?seed:int -> ?domains:int -> unit -> outcome list
(** Mutation campaign: each registered bug hunted on the tree — and under
    the fallback strategy — it lives in.  The expectation is inverted —
    not finding the bug is the failure. *)

val clean : outcome list -> bool

(** {1 Reporting} *)

val print : out_channel -> outcome list -> unit

val record : outcome Schema.kind
(** The schema-v1 ["check"] record: the tree, op mix, distribution and
    mutation explored, the (policy, seed) budget spent, the history events
    checked, and on a violation the counterexample sizes (preemptions
    fired, preemptions after shrinking, core events) plus the one-line
    repro descriptor. *)
