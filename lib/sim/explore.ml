(* Schedule-exploration policies for EunoCheck.

   The machine's default scheduler always resumes the ready thread with the
   smallest (clock, tid) — one canonical interleaving per seed.  An
   exploration policy perturbs that order: after every interpreted effect
   it may *park* (deschedule) the thread that just ran for a number of
   picks, and [choose] hands the machine the first unparked thread in
   (clock, tid) order.  Forced context switches at the right instants open
   exactly the windows where fast-path/fallback atomicity bugs hide (a
   fallback holder parked between its read and its write, an optimistic
   reader parked between validation and use).

   Every policy is a pure function of its own state and a SplitMix64
   stream derived from the seed, so a (policy, seed) pair names one
   schedule: running it twice replays the identical interleaving, and the
   preemptions it fired can be replayed verbatim (and shrunk) with
   [Replay].  Policies never see or mutate machine state: [choose] sees
   (last tid, point kind, runnable tids) and returns a tid. *)

type point =
  | Step (* any interpreted effect *)
  | Xbegin
  | Xcommit
  | Xabort (* explicit or delivered abort: the retry/fallback path begins *)
  | Lock_acquire (* successful non-transactional CAS on a Lock-kind word *)
  | Atomic_rmw (* successful non-transactional CAS/FAA elsewhere *)

let point_to_string = function
  | Step -> "step"
  | Xbegin -> "xbegin"
  | Xcommit -> "xcommit"
  | Xabort -> "xabort"
  | Lock_acquire -> "lock"
  | Atomic_rmw -> "rmw"

let point_of_string = function
  | "step" -> Step
  | "xbegin" -> Xbegin
  | "xcommit" -> Xcommit
  | "xabort" -> Xabort
  | "lock" -> Lock_acquire
  | "rmw" -> Atomic_rmw
  | s -> invalid_arg ("Explore.point_of_string: " ^ s)

(* All points a policy may target; [sync_points] excludes the per-effect
   [Step] so a targeted policy only fires at protocol boundaries. *)
let sync_points = [ Xbegin; Xcommit; Xabort; Lock_acquire; Atomic_rmw ]

type preemption = {
  p_tid : int;
  p_at : int; (* per-thread consultation index the preemption fired at *)
  p_point : point; (* point kind observed there (informational) *)
  p_span : int; (* scheduler picks the thread stayed parked for *)
}

let preemption_to_string p =
  Printf.sprintf "%d@%d:%s*%d" p.p_tid p.p_at (point_to_string p.p_point)
    p.p_span

(* An integer field of a descriptor; a malformed one is named. *)
let int_field ctx name v =
  try int_of_string v
  with Failure _ -> invalid_arg (Printf.sprintf "%s: bad %s=%s" ctx name v)

let preemption_of_string s =
  let ctx = "Explore.preemption_of_string" in
  match String.split_on_char '@' s with
  | [ tid; rest ] -> (
      match String.split_on_char ':' rest with
      | [ at; rest ] -> (
          match String.split_on_char '*' rest with
          | [ pt; span ] ->
              {
                p_tid = int_field ctx "tid" tid;
                p_at = int_field ctx "at" at;
                p_point = point_of_string pt;
                p_span = int_field ctx "span" span;
              }
          | _ -> invalid_arg (ctx ^ ": " ^ s))
      | _ -> invalid_arg (ctx ^ ": " ^ s))
  | _ -> invalid_arg (ctx ^ ": " ^ s)

type spec =
  | Min_clock
      (* never deviate: the canonical schedule (useful as a control) *)
  | Random_walk of { per_1024 : int; span : int }
      (* at every consultation, park with probability per_1024/1024 for a
         uniform span in [1, span] *)
  | Pct of { depth : int; span : int; horizon : int }
      (* PCT-style: [depth] global consultation indices are drawn uniformly
         from [0, horizon); whichever thread is consulted at one of those
         indices is parked for exactly [span] picks *)
  | Targeted of { per_1024 : int; span : int; points : point list }
      (* park only at the listed point kinds, with probability
         per_1024/1024, for a uniform span in [1, span] *)
  | Replay of preemption list
      (* fire exactly the listed preemptions, keyed by (tid, per-thread
         consultation index); used for reproduction and shrinking *)

let spec_to_string = function
  | Min_clock -> "min-clock"
  | Random_walk { per_1024; span } ->
      Printf.sprintf "walk:per=%d,span=%d" per_1024 span
  | Pct { depth; span; horizon } ->
      Printf.sprintf "pct:depth=%d,span=%d,horizon=%d" depth span horizon
  | Targeted { per_1024; span; points } ->
      Printf.sprintf "targeted:per=%d,span=%d,points=%s" per_1024 span
        (String.concat "+" (List.map point_to_string points))
  | Replay [] -> "replay:"
  | Replay ps ->
      "replay:" ^ String.concat "," (List.map preemption_to_string ps)

(* "key=value" fields after the policy tag, comma-separated. *)
let parse_fields tag s =
  List.map
    (fun field ->
      match String.index_opt field '=' with
      | Some i ->
          ( String.sub field 0 i,
            String.sub field (i + 1) (String.length field - i - 1) )
      | None -> invalid_arg (Printf.sprintf "Explore.spec_of_string: %s:%s" tag s))
    (String.split_on_char ',' s)

(* Range checks shared by [spec_of_string] and [create]: a span of 0 or a
   replay index below 0 would be accepted and silently never fire. *)
let validated spec =
  let need ?(hi = max_int) name v lo =
    if v < lo || v > hi then
      let hi = if hi = max_int then "" else string_of_int hi in
      invalid_arg (Printf.sprintf "Explore: %s=%d, want %d..%s" name v lo hi)
  in
  (match spec with
  | Min_clock -> ()
  | Random_walk { per_1024; span } | Targeted { per_1024; span; _ } ->
      need "per" per_1024 0 ~hi:1024; need "span" span 1
  | Pct { depth; span; horizon } ->
      need "depth" depth 0; need "span" span 1; need "horizon" horizon 1
  | Replay ps ->
      List.iter (fun p -> need "tid" p.p_tid 0; need "at" p.p_at 0) ps;
      List.iter (fun p -> need "span" p.p_span 1) ps);
  spec

let spec_of_string s =
  let tag, rest =
    match String.index_opt s ':' with
    | Some i ->
        (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> (s, "")
  in
  let ctx = "Explore.spec_of_string: " ^ tag in
  let field name =
    match List.assoc_opt name (parse_fields tag rest) with
    | Some v -> int_field ctx name v
    | None -> invalid_arg (Printf.sprintf "%s missing %s" ctx name)
  in
  validated @@ match tag with
  | "min-clock" -> Min_clock
  | "walk" -> Random_walk { per_1024 = field "per"; span = field "span" }
  | "pct" ->
      let depth = field "depth" and span = field "span" in
      Pct { depth; span; horizon = field "horizon" }
  | "targeted" ->
      let points =
        match List.assoc_opt "points" (parse_fields tag rest) with
        | None | Some "" -> sync_points
        | Some ps -> List.map point_of_string (String.split_on_char '+' ps)
      in
      Targeted { per_1024 = field "per"; span = field "span"; points }
  | "replay" ->
      if rest = "" then Replay []
      else
        Replay
          (List.map preemption_of_string (String.split_on_char ',' rest))
  | _ -> invalid_arg ("Explore.spec_of_string: unknown policy " ^ s)

type t = {
  spec : spec;
  rng : Rng.t;
  counts : int array; (* per-tid consultation counters *)
  mutable global : int; (* total consultations, for Pct change points *)
  pct_points : int array; (* sorted ascending; empty unless Pct *)
  mutable pct_next : int; (* index of the next unfired Pct change point *)
  mutable fired : preemption list; (* newest first *)
  parked : int array; (* per-tid picks left to sit out; 0 = schedulable *)
}

let create ?(seed = 1) spec =
  let spec = validated spec in
  let rng = Rng.create (seed * 2 + 0x9e3779b9) in
  let pct_points =
    match spec with
    | Pct { depth; horizon; _ } ->
        let a = Array.init depth (fun _ -> Rng.int rng horizon) in
        Array.sort Int.compare a;
        a
    | _ -> [| |]
  in
  {
    spec;
    rng;
    counts = Array.make Line_table.max_threads 0;
    global = 0;
    pct_points;
    pct_next = 0;
    fired = [];
    parked = Array.make Line_table.max_threads 0;
  }

let fired t = List.rev t.fired

let spec t = t.spec

(* One consultation about thread [tid] that just executed a [point]; a
   non-zero span parks it.  Called in execution order — the per-thread and
   global counters advance on every call, so decisions are a pure function
   of the consultation stream. *)
let consult t ~tid ~point =
  let at = t.counts.(tid) in
  t.counts.(tid) <- at + 1;
  let g = t.global in
  t.global <- g + 1;
  let span =
    match t.spec with
    | Min_clock -> 0
    | Random_walk { per_1024; span } ->
        (* Draw the coin first so the consumed randomness per consultation
           is fixed, keeping downstream draws aligned across runs. *)
        let coin = Rng.int t.rng 1024 in
        if coin < per_1024 then 1 + Rng.int t.rng span else 0
    | Pct { span; _ } ->
        (* Consultation indices are consecutive, so only duplicate change
           points make the while loop run more than once. *)
        let fire = ref false in
        while
          t.pct_next < Array.length t.pct_points
          && t.pct_points.(t.pct_next) <= g
        do
          if t.pct_points.(t.pct_next) = g then fire := true;
          t.pct_next <- t.pct_next + 1
        done;
        if !fire then span else 0
    | Targeted { per_1024; span; points } ->
        if List.mem point points then begin
          let coin = Rng.int t.rng 1024 in
          if coin < per_1024 then 1 + Rng.int t.rng span else 0
        end
        else 0
    | Replay ps -> (
        match
          List.find_opt (fun p -> p.p_tid = tid && p.p_at = at) ps
        with
        | Some p -> p.p_span
        | None -> 0)
  in
  if span > 0 then begin
    t.parked.(tid) <- span;
    t.fired <- { p_tid = tid; p_at = at; p_point = point; p_span = span } :: t.fired
  end

(* The park overlay: consult about [last] (if >= 0), then run the first
   unparked thread of [ready].  When every runnable thread is parked the
   first one in (clock, tid) order is force-released, so exploration never
   deadlocks the machine.  Each pick drains one from every parked span. *)
let choose t ~last ~point ready =
  if last >= 0 then consult t ~tid:last ~point;
  let c =
    match (List.find_opt (fun i -> t.parked.(i) = 0) ready, ready) with
    | Some c, _ | None, c :: _ -> c
    | None, [] -> invalid_arg "Explore.choose: no runnable thread"
  in
  t.parked.(c) <- 0;
  List.iter (fun i -> t.parked.(i) <- Int.max 0 (t.parked.(i) - 1)) ready;
  c
