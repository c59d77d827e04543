(** Machine-readable telemetry: the run-level schema-v1 record kinds and
    the validator for every record kind.

    The figure CLI ([euno_repro <fig> --json out.json --snapshots out.jsonl])
    and the bench driver ([BENCH_results.json]) write these records so perf
    trajectories and figure shapes can be diffed and plotted rather than
    eyeballed from the ASCII tables.  Field tables and their interpreter
    live in {!Schema}; each campaign driver owns its own kind. *)

module Json = Euno_stats.Json

(** {1 Record kinds} *)

val result : Runner.result Schema.kind
(** ["result"]: throughput, abort classes, wasted cycles, latency
    percentiles, memory footprint and the embedded window series. *)

val result_to_json : ?experiment:string -> ?run:int -> Runner.result -> Json.t
(** One ["result"] record.  [run] is the record's position in the
    experiment's run sequence, which is how sweep points (e.g. fig1's
    thetas) are told apart downstream. *)

val aggregate : Runner.aggregate Schema.kind
(** ["aggregate"]: seed statistics plus the embedded ["result"] records. *)

val snapshot_lines : ?experiment:string -> ?run:int -> Runner.result -> Json.t list
(** One self-describing ["window"] record per sampling window (for JSONL
    export); empty when the run had no [snapshot_window]. *)

val lint : (Eunolint.Rules.finding * string option) Schema.kind
(** ["lint"]: an EunoLint finding and, when a reasoned allow directive
    muted it, the reason.  The rule-id must be in
    {!Eunolint.Lint.rule_names}; [reason] is present exactly when
    [suppressed] is true. *)

(** {1 Validation}

    Used by the CI schema check ([euno_schema_check]) and the round-trip
    tests. *)

val validate_record : Json.t -> (unit, string) result
(** Dispatch on the ["record"] discriminator to the kind's table. *)

val validate_document : Json.t -> (unit, string) result

(** {1 Collection}

    The collector observes {!Runner.on_result}, so every run — whichever
    figure helper produced it — lands in the flushed document. *)

val start_collecting : unit -> unit
val collected : unit -> Runner.result list
val stop_collecting : unit -> unit

val flush_collected :
  experiment:string -> ?json:string -> ?snapshots:string -> unit -> unit
(** Write everything collected since {!start_collecting}: [json] gets the
    full document, [snapshots] the windowed series as JSONL. *)
