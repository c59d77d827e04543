(** Schema-v1 records, each kind described once as an ordered field table.

    A table lists every field's JSON name, JSON type and getter; {!encode}
    and {!validate} both interpret it, so the bytes a campaign writes and
    the contract [euno_schema_check] enforces come from the same list.
    The campaign drivers own their tables next to their outcome types;
    {!Report.validate_record} dispatches over all of them.  Every record
    and every document carries [schema_version]. *)

module Json = Euno_stats.Json

val schema_version : int
(** Version stamped on (and required of) every record.  Currently 1. *)

(** {1 Field tables} *)

(** JSON type of a field, indexed by the OCaml type of its getter. *)
type _ ty =
  | Int : int ty
  | Float : float ty  (** encodes as a float; an integer also validates *)
  | Str : string ty
  | Bool : bool ty
  | Enum : string list -> string ty  (** a string from a closed vocabulary *)
  | Obj : 'a field list -> 'a ty  (** nested object *)
  | List : 'a field list -> 'a list ty  (** list of nested objects *)
  | Opt : 'a ty -> 'a option ty  (** field omitted when [None] *)
  | Raw : (Json.t -> bool) -> Json.t ty
      (** pre-encoded JSON, accepted when the predicate holds *)

and 'a field = F : string * 'b ty * ('a -> 'b) -> 'a field  (** name, type, getter *)

type 'a kind
(** A record kind: its ["record"] discriminator and field table. *)

val kind :
  ?rule:(Json.t -> (unit, string) result) ->
  record:string ->
  'a field list ->
  'a kind
(** [rule] is a cross-field check run after every field validated. *)

val on : ('a -> 'b) -> 'b field list -> 'a field list
(** Reuse a table through a projection. *)

val select : string list -> 'a field list -> 'a field list
(** The named fields of a table, in table order. *)

val per_class : 'b ty -> 'b array field list
(** One field per abort class, named by {!Euno_sim.Abort.class_name}. *)

val strategy : ('a -> string) -> 'a field
(** ["strategy"], one of {!Euno_htm.Htm.strategy_names}. *)

val capacity_model : ('a -> string) -> 'a field
(** ["capacity_model"], one of {!Euno_sim.Cost.capacity_model_names}. *)

(** {1 Encoding and validation} *)

val encode : ?experiment:string -> ?run:int -> 'a kind -> 'a -> Json.t
(** Header ([schema_version], [record], then [experiment] and [run] when
    given) followed by the table's fields in order. *)

val encode_runs : ?experiment:string -> 'a kind -> 'a list -> Json.t list
(** {!encode} each value with [run] set to its position. *)

val validate : 'a kind -> Json.t -> (unit, string) result
(** Version, header, every field's presence and type, then the kind's
    rule.  Errors name the offending field by path (["mem.live_bytes"],
    ["findings[0].kind"]).  Extra fields are allowed. *)

val document : experiment:string -> Json.t list -> Json.t
(** Wrap records in the top-level schema-versioned document. *)

val validate_document :
  (Json.t -> (unit, string) result) -> Json.t -> (unit, string) result
(** Check a document's header and each record with the given validator. *)

val write_file : string -> Json.t -> unit
(** Pretty-print one document to [path]. *)

val write_jsonl : string -> Json.t list -> unit
(** One compact JSON value per line. *)

(** {1 Windowed time series} *)

(** Per-window deltas between consecutive cumulative snapshots — the
    time-resolved view in which contention collapse shows up as a rising
    aborts/op series. *)
type window = {
  w_start : int;  (** window start, simulated cycles *)
  w_end : int;
  w_ops : int;
  w_commits : int;
  w_aborts : int array;  (** by {!Euno_sim.Abort.class_index} *)
  w_fallbacks : int;
  w_lock_wait_cycles : int;
  w_wasted_cycles : int;
  w_accesses : int;
}

val windows_of_snapshots :
  (int * Euno_sim.Machine.snapshot) list -> window list

val window_fields : window field list

val snapshots :
  ('a -> (int * Euno_sim.Machine.snapshot) list) -> 'a field
(** The ["snapshots"] field: the window series of a snapshot list. *)
