(* In-memory spans for the traced run, written out once at the end in
   Chrome trace_event form (the viewer Euno_sim.Trace.chrome_trace
   targets).  Host times are seconds on the monotonic clock. *)

module Json = Euno_stats.Json

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  id : int;
  parent : int;  (** [-1] for the root *)
  name : string;
  t0 : float;
  t1 : float;
  req : (int * int * int) option;  (** (round, simulated tid, op index) *)
  sim : (int * int) option;  (** simulated start and end cycle *)
}

(* One recorder per domain: pool cells record into their own and hand the
   spans back with their result.  [first_id] keeps ids of different
   recorders apart. *)
type recorder = { mutable next : int; mutable spans : t list }

let recorder ~first_id = { next = first_id; spans = [] }

let add r ~parent ~name t0 t1 =
  let id = r.next in
  r.next <- id + 1;
  r.spans <- { id; parent; name; t0; t1; req = None; sim = None } :: r.spans

(* Reserve an id for a span whose children are recorded before it ends. *)
let open_ r =
  let id = r.next in
  r.next <- id + 1;
  id

let close r ~id ~parent ~name ?req ?sim t0 t1 =
  r.spans <- { id; parent; name; t0; t1; req; sim } :: r.spans

(* Self time summed per span name, in seconds, sorted by name. *)
let self_by_name spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        Calc.self_time ~start:s.t0 ~stop:s.t1 (Hashtbl.find_all children s.id)
      in
      let n, total = Option.value ~default:(0, 0.0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (n + 1, total +. self))
    spans;
  List.sort compare (Hashtbl.fold (fun k (n, v) l -> (k, n, v) :: l) acc [])

(* Chrome trace_event document: one complete ("X") event per span.  Op
   spans of simulated thread [t] go to lane [t + 1] so they nest under
   nothing else; every other span is on lane 0. *)
let chrome spans =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let us t = Json.Float ((t -. origin) *. 1e6) in
  let event s =
    let lane = match s.req with Some (_, tid, _) -> tid + 1 | None -> 0 in
    let args =
      [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]
      @ (match s.req with
        | Some (round, tid, op) ->
            [ ("request", Json.Str (Printf.sprintf "%d/%d/%d" round tid op)) ]
        | None -> [])
      @
      match s.sim with
      | Some (c0, c1) -> [ ("sim_start_cycle", Json.Int c0); ("sim_end_cycle", Json.Int c1) ]
      | None -> []
    in
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("ts", us s.t0);
        ("dur", Json.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int lane);
        ("args", Json.Obj args);
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event (List.sort (fun a b -> compare a.id b.id) spans)));
      ("displayTimeUnit", Json.Str "ms");
    ]
