(* Schema-v1 records, described once.

   Every record kind is an ordered field table: JSON name, JSON type and
   getter.  One interpreter walks the table to encode a value and the
   same table to validate parsed JSON, so an encoder and its validator
   cannot drift apart.  The record header, the top-level document and
   the windowed counter series every run record embeds live here too,
   below the campaign drivers that own the tables. *)

module Json = Euno_stats.Json
module Machine = Euno_sim.Machine
module Abort = Euno_sim.Abort
module Htm = Euno_htm.Htm

let schema_version = 1

type _ ty =
  | Int : int ty
  | Float : float ty
  | Str : string ty
  | Bool : bool ty
  | Enum : string list -> string ty
  | Obj : 'a field list -> 'a ty
  | List : 'a field list -> 'a list ty
  | Opt : 'a ty -> 'a option ty
  | Raw : (Json.t -> bool) -> Json.t ty

and 'a field = F : string * 'b ty * ('a -> 'b) -> 'a field

type 'a kind = {
  record : string;
  fields : 'a field list;
  rule : Json.t -> (unit, string) result;
}

let kind ?(rule = fun _ -> Ok ()) ~record fields = { record; fields; rule }
let on f fields = List.map (fun (F (n, ty, get)) -> F (n, ty, fun a -> get (f a))) fields
let select names fields = List.filter (fun (F (n, _, _)) -> List.mem n names) fields

let per_class ty =
  List.init Abort.n_classes (fun i -> F (Abort.class_name i, ty, fun a -> a.(i)))

(* ---------- encoding ---------- *)

let rec encode_ty : type b. b ty -> b -> Json.t option =
 fun ty v ->
  match ty with
  | Int -> Some (Json.Int v)
  | Float -> Some (Json.Float v)
  | Str -> Some (Json.Str v)
  | Enum _ -> Some (Json.Str v)
  | Bool -> Some (Json.Bool v)
  | Obj fields -> Some (Json.Obj (members fields v))
  | List fields -> Some (Json.List (List.map (fun x -> Json.Obj (members fields x)) v))
  | Opt ty -> Option.bind v (encode_ty ty)
  | Raw _ -> Some v

and members : type a. a field list -> a -> (string * Json.t) list =
 fun fields v ->
  List.filter_map
    (fun (F (name, ty, get)) -> Option.map (fun j -> (name, j)) (encode_ty ty (get v)))
    fields

let header =
  [
    F ("schema_version", Int, fun _ -> schema_version);
    F ("record", Str, fun (r, _, _) -> r);
    F ("experiment", Opt Str, fun (_, e, _) -> e);
    F ("run", Opt Int, fun (_, _, i) -> i);
  ]

let encode ?experiment ?run k v =
  Json.Obj (members header (k.record, experiment, run) @ members k.fields v)

let encode_runs ?experiment k vs = List.mapi (fun run v -> encode ?experiment ~run k v) vs

(* ---------- validation ---------- *)

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let iter_ok f = List.fold_left (fun acc x -> Result.bind acc (fun () -> f x)) (Ok ())

(* [path] names the field in errors: "mem.live_bytes", "findings[0].kind". *)
let rec check_ty : type b. string -> b ty -> Json.t -> (unit, string) result =
 fun path ty j ->
  let wrong () = Error (Printf.sprintf "field '%s' has wrong type" path) in
  match (ty, j) with
  | Int, Json.Int _ | Str, Json.Str _ | Bool, Json.Bool _ -> Ok ()
  | Float, (Json.Float _ | Json.Int _) -> Ok ()
  | Enum names, Json.Str s ->
      if List.mem s names then Ok ()
      else Error (Printf.sprintf "field '%s' has unknown value '%s'" path s)
  | Obj fields, Json.Obj _ -> check_fields (path ^ ".") fields j
  | List fields, Json.List items ->
      iter_ok Fun.id
        (List.mapi (fun i -> check_ty (Printf.sprintf "%s[%d]" path i) (Obj fields)) items)
  | Opt ty, _ -> check_ty path ty j
  | Raw ok, _ -> if ok j then Ok () else wrong ()
  | _ -> wrong ()

and check_fields : type a. string -> a field list -> Json.t -> (unit, string) result =
 fun prefix fields obj ->
  iter_ok
    (fun (F (name, ty, _)) ->
      match (Json.member name obj, ty) with
      | None, Opt _ -> Ok ()
      | None, _ -> Error (Printf.sprintf "missing field '%s%s'" prefix name)
      | Some j, _ -> check_ty (prefix ^ name) ty j)
    fields

let validate_version obj =
  match Json.member "schema_version" obj with
  | Some (Json.Int v) when v = schema_version -> Ok ()
  | Some (Json.Int v) ->
      Error (Printf.sprintf "field 'schema_version' is %d, expected %d" v schema_version)
  | _ -> Error "field 'schema_version' is missing or not an integer"

let validate k obj =
  let* () = validate_version obj in
  let* () = check_fields "" header obj in
  let* () = check_fields "" k.fields obj in
  k.rule obj

(* ---------- documents and files ---------- *)

let document ~experiment records =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("generator", Json.Str "euno-repro");
      ("experiment", Json.Str experiment);
      ("records", Json.List records);
    ]

let validate_document validate_record json =
  let* () = validate_version json in
  let* () = check_fields "" [ F ("experiment", Str, fun () -> "") ] json in
  match Json.member "records" json with
  | Some (Json.List records) -> iter_ok validate_record records
  | _ -> Error "missing records list"

let write_file path json =
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc

let write_jsonl path lines =
  let oc = open_out path in
  List.iter
    (fun json ->
      output_string oc (Json.to_string json);
      output_char oc '\n')
    lines;
  close_out oc

(* ---------- windowed time series ---------- *)

(* Per-window deltas between consecutive cumulative snapshots: the
   time-resolved view in which the lemming-effect ignition and the
   theta > 0.6 collapse onset are visible as a rising aborts/op series
   rather than a single end-of-run average. *)
type window = {
  w_start : int;
  w_end : int;
  w_ops : int;
  w_commits : int;
  w_aborts : int array;
  w_fallbacks : int;
  w_lock_wait_cycles : int;
  w_wasted_cycles : int;
  w_accesses : int;
}

let windows_of_snapshots snaps =
  let user i (s : Machine.snapshot option) =
    match s with
    | Some s when Array.length s.s_user > 0 -> s.s_user.(i)
    | _ -> 0
  in
  let rec go prev_clock (prev : Machine.snapshot option) acc = function
    | [] -> List.rev acc
    | (clock, (s : Machine.snapshot)) :: rest ->
        let was f = match prev with Some p -> f p | None -> 0 in
        let delta i = user i (Some s) - user i prev in
        let w =
          {
            w_start = prev_clock;
            w_end = clock;
            w_ops = s.s_ops - was (fun p -> p.s_ops);
            w_commits = s.s_commits - was (fun p -> p.s_commits);
            w_aborts = Array.mapi (fun i v -> v - was (fun p -> p.s_aborts.(i))) s.s_aborts;
            w_fallbacks = delta Htm.Counter.fallbacks;
            w_lock_wait_cycles = delta Htm.Counter.lock_wait_cycles;
            w_wasted_cycles = s.s_wasted_cycles - was (fun p -> p.s_wasted_cycles);
            w_accesses = s.s_accesses - was (fun p -> p.s_accesses);
          }
        in
        go clock (Some s) (w :: acc) rest
  in
  go 0 None [] snaps

let window_aborts_total w = Array.fold_left ( + ) 0 w.w_aborts

let window_fields =
  [
    F ("window_start", Int, fun w -> w.w_start);
    F ("window_end", Int, fun w -> w.w_end);
    F ("ops", Int, fun w -> w.w_ops);
    F ("commits", Int, fun w -> w.w_commits);
    F ("aborts_total", Int, window_aborts_total);
    F ("aborts", Obj (per_class Int), fun w -> w.w_aborts);
    F ("aborts_per_op", Float,
       fun w -> float_of_int (window_aborts_total w) /. float_of_int (max 1 w.w_ops));
    F ("fallbacks", Int, fun w -> w.w_fallbacks);
    F ("lock_wait_cycles", Int, fun w -> w.w_lock_wait_cycles);
    F ("wasted_cycles", Int, fun w -> w.w_wasted_cycles);
    F ("accesses", Int, fun w -> w.w_accesses);
  ]

let snapshots get = F ("snapshots", List window_fields, fun v -> windows_of_snapshots (get v))

(* Run records name the fallback strategy and capacity model they ran
   under; both must be names the binaries accept, so a typo'd cell fails
   the schema check instead of silently partitioning downstream plots. *)
let strategy get = F ("strategy", Enum Htm.strategy_names, get)
let capacity_model get = F ("capacity_model", Enum Euno_sim.Cost.capacity_model_names, get)
