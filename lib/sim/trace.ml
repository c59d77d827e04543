(* Event tracing for the simulated machine: a bounded ring of the
   transaction lifecycle kinds of the machine's Sev stream (begin /
   commit / abort / conflict / completed op / injected fault) that answers
   the debugging question an HTM simulator always gets asked: "why did
   this transaction abort?".

   Install [push ring] with Machine.set_observer.  The observer receives
   every event, so a traced run also builds the per-access events the
   ring then drops; tracing never changes simulated results. *)

let traced (e : Sev.event) =
  match e.body with
  | Sev.Txn_begin | Txn_commit _ | Txn_aborted _ | Conflict _ | Op_exit _
  | Injected _ ->
      true
  | Plain_read _ | Plain_write _ | Txn_line_read _ | Txn_line_write _
  | Unsafe_read _ | Unsafe_write _ | Alloc_done _ | Free_done _
  | Thread_exit _ | Note _ ->
      false

let untraced fn = invalid_arg ("Trace." ^ fn ^ ": event kind is not traced")

let event_to_string ({ tid; clock; body } : Sev.event) =
  match body with
  | Sev.Txn_begin -> Printf.sprintf "[%10d] t%-2d xbegin" clock tid
  | Txn_commit { reads; writes } ->
      Printf.sprintf "[%10d] t%-2d commit (rs=%d ws=%d)" clock tid reads writes
  | Txn_aborted code ->
      Printf.sprintf "[%10d] t%-2d ABORT %s" clock tid (Abort.to_string code)
  | Conflict { victim; line; kind } ->
      Printf.sprintf "[%10d] t%-2d dooms t%-2d on line %d (%s)" clock tid
        victim line
        (Euno_mem.Linemap.kind_to_string kind)
  | Op_exit key -> Printf.sprintf "[%10d] t%-2d op done (key %d)" clock tid key
  | Injected fault -> Printf.sprintf "[%10d] t%-2d FAULT %s" clock tid fault
  | _ -> untraced "event_to_string"

(* Bounded ring buffer of the most recent traced events. *)
type ring = {
  buf : Sev.event option array;
  mutable next : int;
  mutable total : int;
}

let ring ~capacity =
  if capacity < 1 then invalid_arg "Trace.ring: capacity < 1";
  { buf = Array.make capacity None; next = 0; total = 0 }

let push r e =
  if traced e then begin
    r.buf.(r.next) <- Some e;
    r.next <- (r.next + 1) mod Array.length r.buf;
    r.total <- r.total + 1
  end

let total r = r.total

(* Oldest-first retained events. *)
let events r =
  let n = Array.length r.buf in
  let out = ref [] in
  for i = n - 1 downto 0 do
    match r.buf.((r.next + i) mod n) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  !out

let to_strings r = List.map event_to_string (events r)

(* ---------- machine-readable exports ---------- *)

module Json = Euno_stats.Json

let event_to_json ({ tid; clock; body } : Sev.event) =
  match body with
  | Sev.Txn_begin ->
      Json.Obj
        [ ("ev", Json.Str "xbegin"); ("tid", Json.Int tid); ("clock", Json.Int clock) ]
  | Txn_commit { reads; writes } ->
      Json.Obj
        [
          ("ev", Json.Str "commit");
          ("tid", Json.Int tid);
          ("clock", Json.Int clock);
          ("reads", Json.Int reads);
          ("writes", Json.Int writes);
        ]
  | Txn_aborted code ->
      Json.Obj
        [
          ("ev", Json.Str "abort");
          ("tid", Json.Int tid);
          ("clock", Json.Int clock);
          ("class", Json.Str (Abort.class_name (Abort.index code)));
          ("code", Json.Str (Abort.to_string code));
        ]
  | Conflict { victim; line; kind } ->
      Json.Obj
        [
          ("ev", Json.Str "conflict");
          ("attacker", Json.Int tid);
          ("victim", Json.Int victim);
          ("line", Json.Int line);
          ("kind", Json.Str (Euno_mem.Linemap.kind_to_string kind));
          ("clock", Json.Int clock);
        ]
  | Op_exit key ->
      Json.Obj
        [
          ("ev", Json.Str "op_done");
          ("tid", Json.Int tid);
          ("clock", Json.Int clock);
          ("key", Json.Int key);
        ]
  | Injected fault ->
      Json.Obj
        [
          ("ev", Json.Str "injected");
          ("tid", Json.Int tid);
          ("clock", Json.Int clock);
          ("fault", Json.Str fault);
        ]
  | _ -> untraced "event_to_json"

(* One compact JSON document per retained event, oldest first: cat-able
   into any JSONL pipeline. *)
let to_jsonl r = List.map (fun e -> Json.to_string (event_to_json e)) (events r)

(* Chrome trace_event format (chrome://tracing, Perfetto): each
   transaction becomes a complete ("X") duration slice from its xbegin to
   its commit or abort, conflicts become instant events on the attacker's
   row, and op completions become instants on the owner's row.  Timestamps
   are simulated cycles reported through the "ts"/"dur" microsecond
   fields: absolute units don't matter for inspection, ordering does. *)
let chrome_trace r =
  let open_tx = Hashtbl.create 16 in
  let slices = ref [] in
  let emit json = slices := json :: !slices in
  let common ~name ~ph ~tid ~ts extra =
    Json.Obj
      ([
         ("name", Json.Str name);
         ("ph", Json.Str ph);
         ("pid", Json.Int 0);
         ("tid", Json.Int tid);
         ("ts", Json.Int ts);
       ]
      @ extra)
  in
  let close_tx tid clock ~name args =
    match Hashtbl.find_opt open_tx tid with
    | None -> ()
    | Some start ->
        Hashtbl.remove open_tx tid;
        emit
          (common ~name ~ph:"X" ~tid ~ts:start
             [ ("dur", Json.Int (max 1 (clock - start))); ("args", args) ])
  in
  List.iter
    (fun ({ tid; clock; body } : Sev.event) ->
      match body with
      | Sev.Txn_begin -> Hashtbl.replace open_tx tid clock
      | Txn_commit { reads; writes } ->
          close_tx tid clock ~name:"txn:commit"
            (Json.Obj [ ("reads", Json.Int reads); ("writes", Json.Int writes) ])
      | Txn_aborted code ->
          close_tx tid clock ~name:"txn:abort"
            (Json.Obj
               [ ("class", Json.Str (Abort.class_name (Abort.index code))) ])
      | Conflict { victim; line; kind } ->
          emit
            (common ~name:"conflict" ~ph:"i" ~tid ~ts:clock
               [
                 ("s", Json.Str "t");
                 ( "args",
                   Json.Obj
                     [
                       ("victim", Json.Int victim);
                       ("line", Json.Int line);
                       ("kind", Json.Str (Euno_mem.Linemap.kind_to_string kind));
                     ] );
               ])
      | Op_exit key ->
          emit
            (common ~name:"op" ~ph:"i" ~tid ~ts:clock
               [ ("s", Json.Str "t"); ("args", Json.Obj [ ("key", Json.Int key) ]) ])
      | Injected fault ->
          emit
            (common ~name:"fault" ~ph:"i" ~tid ~ts:clock
               [
                 ("s", Json.Str "t");
                 ("args", Json.Obj [ ("fault", Json.Str fault) ]);
               ])
      | _ -> untraced "chrome_trace")
    (events r);
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev !slices));
      ("displayTimeUnit", Json.Str "ns");
    ]

(* Events selected by thread, oldest first. *)
let for_thread r tid =
  List.filter
    (fun (e : Sev.event) ->
      e.tid = tid
      || match e.body with Sev.Conflict { victim; _ } -> victim = tid | _ -> false)
    (events r)
