(* EunoSan: four checkers over one pass of the semantic-event stream.

   Everything is host state driven by events the machine emits in
   execution order, so verdicts are deterministic per seed.

   Race detection is FastTrack-shaped (Flanagan & Freund, PLDI'09):
   per-thread vector clocks, per-address adaptive read representation
   (last-reader epoch, widened to a read vector clock only when reads are
   genuinely concurrent), per-lock and per-barrier vector clocks.
   Happens-before edges come from

     - lock release -> later acquire of the same (kind, id);
     - publish notes (one-way initialization edges, e.g. Masstree root
       growth);
     - barrier episodes (arrivals join into the barrier clock, departures
       join out of it);
     - transaction commits: a commit stamps the committing thread's clock
       on every line its write set touched, and a later transactional
       access of that line joins the stamp back in (eager conflict
       detection guarantees the later transaction really is ordered after
       the commit);
     - sequential thread incarnations: Machine.run returns only when all
       its threads exited, so a thread's first event after an exit joins
       the clocks of everything that already exited (this is what orders
       a single-threaded preload before the worker phase).

   Aborted transactions transfer nothing (their effects are rolled back;
   dropping the edge is conservative: it can only add reports on
   genuinely racy programs, never hide a race on clean ones — and plain
   accesses made *inside* a transaction are invisible here anyway, the
   machine classifies them as transactional). *)

module Sev = Euno_sim.Sev
module Linemap = Euno_mem.Linemap

let nthreads = Euno_sim.Line_table.max_threads

type kind =
  | Race
  | Lock_leak
  | Bad_release
  | Lock_cycle
  | Atomicity
  | Txn_unbalanced
  | Escaped_abort

let kind_name = function
  | Race -> "race"
  | Lock_leak -> "lock-leak"
  | Bad_release -> "bad-release"
  | Lock_cycle -> "lock-cycle"
  | Atomicity -> "atomicity"
  | Txn_unbalanced -> "txn-unbalanced"
  | Escaped_abort -> "escaped-abort"

type finding = {
  f_kind : kind;
  f_subject : string;
  f_tid : int;
  f_clock : int;
  f_detail : string;
}

type summary = { events : int; findings : finding list; total : int }

(* ---------- vector clocks ---------- *)

let vc_fresh () = Array.make nthreads 0
let vc_join dst src =
  for i = 0 to nthreads - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

(* ---------- per-address FastTrack state ---------- *)

(* [r_tid] is the last-reader tid, [-1] for no reads since the last
   write, [-2] once reads went concurrent and [rvc] took over. *)
type astate = {
  mutable w_tid : int;
  mutable w_clk : int;
  mutable r_tid : int;
  mutable r_clk : int;
  mutable rvc : int array;
}

let no_reader = -1
let shared = -2

(* ---------- per-thread state ---------- *)

type lock_id = Sev.lock_kind * int

type tstate = {
  vc : int array;
  mutable active : bool;
  mutable opt_depth : int;
  mutable attempt_depth : int;
  mutable in_txn : bool;
  mutable held : lock_id list; (* most recent acquisition first *)
  rlines : (int, unit) Hashtbl.t; (* live transactional read lines *)
  wlines : (int, unit) Hashtbl.t; (* live transactional write lines *)
}

type t = {
  max_findings : int;
  mutable events : int;
  mutable last_clock : int;
  mutable findings_rev : finding list;
  mutable kept : int;
  mutable total : int;
  dedup : (string, unit) Hashtbl.t;
  threads : tstate array;
  finished : int array; (* join of every exited incarnation's clock *)
  addrs : (int, astate) Hashtbl.t;
  sync_words : (int, unit) Hashtbl.t; (* e.g. Masstree version words *)
  locks : (lock_id, int array) Hashtbl.t;
  barriers : (int, int array) Hashtbl.t;
  lines : (int, int array) Hashtbl.t; (* committed-write line clocks *)
  live : (int, (int, bool) Hashtbl.t) Hashtbl.t;
      (* line -> live tids, true when the line is in that tid's write set *)
  adj : (lock_id, lock_id list ref) Hashtbl.t; (* acquisition order *)
  edges : (lock_id * lock_id, unit) Hashtbl.t;
}

let create ?(max_findings = 200) () =
  {
    max_findings;
    events = 0;
    last_clock = 0;
    findings_rev = [];
    kept = 0;
    total = 0;
    dedup = Hashtbl.create 64;
    threads =
      Array.init nthreads (fun _ ->
          {
            vc = vc_fresh ();
            active = false;
            opt_depth = 0;
            attempt_depth = 0;
            in_txn = false;
            held = [];
            rlines = Hashtbl.create 8;
            wlines = Hashtbl.create 8;
          });
    finished = vc_fresh ();
    addrs = Hashtbl.create 4096;
    sync_words = Hashtbl.create 256;
    locks = Hashtbl.create 256;
    barriers = Hashtbl.create 8;
    lines = Hashtbl.create 1024;
    live = Hashtbl.create 64;
    adj = Hashtbl.create 256;
    edges = Hashtbl.create 256;
  }

let report t ~kind ~subject ~tid ~clock ~detail =
  let key = kind_name kind ^ "|" ^ subject in
  if not (Hashtbl.mem t.dedup key) then begin
    Hashtbl.replace t.dedup key ();
    t.total <- t.total + 1;
    if t.kept < t.max_findings then begin
      t.kept <- t.kept + 1;
      t.findings_rev <-
        {
          f_kind = kind;
          f_subject = subject;
          f_tid = tid;
          f_clock = clock;
          f_detail = detail;
        }
        :: t.findings_rev
    end
  end

let lk_name : Sev.lock_kind -> string = function
  | Sev.Spin -> "spin"
  | Sev.Ticket -> "ticket"
  | Sev.Seq_writer -> "seqlock"
  | Sev.Slot -> "slot"
  | Sev.Version -> "version"

let lock_subject ((k, id) : lock_id) = Printf.sprintf "%s %d" (lk_name k) id

(* ---------- race detector ---------- *)

let astate_of t addr =
  match Hashtbl.find_opt t.addrs addr with
  | Some st -> st
  | None ->
      let st =
        { w_tid = -1; w_clk = 0; r_tid = no_reader; r_clk = 0; rvc = [||] }
      in
      Hashtbl.replace t.addrs addr st;
      st

let skip_addr t addr (kind : Linemap.kind) =
  (match kind with Linemap.Lock | Linemap.Scratch -> true | _ -> false)
  || Hashtbl.mem t.sync_words addr
  || Sev.is_racy addr

let plain_read t tid clock addr kind =
  if not (skip_addr t addr kind) then begin
    let ts = t.threads.(tid) in
    (* Reads inside an optimistic section are version-validated by the
       protocol itself; checking them would flag every seqlock/OLC reader.
       Writes are never suppressed this way. *)
    if ts.opt_depth = 0 then begin
      let st = astate_of t addr in
      if st.w_tid >= 0 && st.w_tid <> tid && st.w_clk > ts.vc.(st.w_tid) then
        report t ~kind:Race
          ~subject:(Printf.sprintf "addr %d" addr)
          ~tid ~clock
          ~detail:
            (Printf.sprintf
               "read of %s word %d by t%d races with write by t%d"
               (Linemap.kind_to_string kind) addr tid st.w_tid);
      if st.r_tid = shared then st.rvc.(tid) <- ts.vc.(tid)
      else if st.r_tid = tid then st.r_clk <- ts.vc.(tid)
      else if st.r_tid >= 0 && st.r_clk > ts.vc.(st.r_tid) then begin
        (* Two concurrent readers: widen to a read vector clock. *)
        let rvc = vc_fresh () in
        rvc.(st.r_tid) <- st.r_clk;
        rvc.(tid) <- ts.vc.(tid);
        st.rvc <- rvc;
        st.r_tid <- shared
      end
      else begin
        st.r_tid <- tid;
        st.r_clk <- ts.vc.(tid)
      end
    end
  end

let plain_write t tid clock addr kind =
  if not (skip_addr t addr kind) then begin
    let ts = t.threads.(tid) in
    let st = astate_of t addr in
    if st.w_tid >= 0 && st.w_tid <> tid && st.w_clk > ts.vc.(st.w_tid) then
      report t ~kind:Race
        ~subject:(Printf.sprintf "addr %d" addr)
        ~tid ~clock
        ~detail:
          (Printf.sprintf
             "write of %s word %d by t%d races with write by t%d"
             (Linemap.kind_to_string kind) addr tid st.w_tid);
    (if st.r_tid = shared then begin
       let racing = ref (-1) in
       for u = 0 to nthreads - 1 do
         if u <> tid && st.rvc.(u) > ts.vc.(u) && !racing < 0 then racing := u
       done;
       if !racing >= 0 then
         report t ~kind:Race
           ~subject:(Printf.sprintf "addr %d" addr)
           ~tid ~clock
           ~detail:
             (Printf.sprintf
                "write of %s word %d by t%d races with read by t%d"
                (Linemap.kind_to_string kind) addr tid !racing)
     end
     else if st.r_tid >= 0 && st.r_tid <> tid && st.r_clk > ts.vc.(st.r_tid)
     then
       report t ~kind:Race
         ~subject:(Printf.sprintf "addr %d" addr)
         ~tid ~clock
         ~detail:
           (Printf.sprintf
              "write of %s word %d by t%d races with read by t%d"
              (Linemap.kind_to_string kind) addr tid st.r_tid));
    st.w_tid <- tid;
    st.w_clk <- ts.vc.(tid);
    (* This write is ordered after every checked read above, so transitive
       ordering through the write epoch keeps future checks sound. *)
    st.r_tid <- no_reader;
    st.rvc <- [||]
  end

(* A word announced as a lock (Masstree version words live on Node_meta
   lines, so kind-based skipping cannot see them) stops being data:
   forget its access history and suppress it from now on. *)
let mark_sync_word t (k : Sev.lock_kind) id =
  match k with
  | Sev.Version ->
      if not (Hashtbl.mem t.sync_words id) then begin
        Hashtbl.replace t.sync_words id ();
        Hashtbl.remove t.addrs id
      end
  | Sev.Spin | Sev.Ticket | Sev.Seq_writer | Sev.Slot -> ()

(* ---------- lock-discipline ---------- *)

let remove_first x l =
  let rec go acc = function
    | [] -> None
    | y :: rest when y = x -> Some (List.rev_append acc rest)
    | y :: rest -> go (y :: acc) rest
  in
  go [] l

let note_order t ts lock =
  List.iter
    (fun h ->
      if h <> lock && not (Hashtbl.mem t.edges (h, lock)) then begin
        Hashtbl.replace t.edges (h, lock) ();
        let l =
          match Hashtbl.find_opt t.adj h with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.replace t.adj h l;
              l
        in
        l := lock :: !l
      end)
    ts.held

let lock_vc t lock =
  match Hashtbl.find_opt t.locks lock with
  | Some vc -> vc
  | None ->
      let vc = vc_fresh () in
      Hashtbl.replace t.locks lock vc;
      vc

let acquire t tid lock =
  let ts = t.threads.(tid) in
  mark_sync_word t (fst lock) (snd lock);
  note_order t ts lock;
  ts.held <- lock :: ts.held;
  match Hashtbl.find_opt t.locks lock with
  | Some lvc -> vc_join ts.vc lvc
  | None -> ()

let release t tid clock lock =
  let ts = t.threads.(tid) in
  (match remove_first lock ts.held with
  | Some held -> ts.held <- held
  | None ->
      report t ~kind:Bad_release ~subject:(lock_subject lock) ~tid ~clock
        ~detail:
          (Printf.sprintf "t%d released %s it does not hold" tid
             (lock_subject lock)));
  (* Join rather than overwrite so publish edges into the same lock are
     never erased by a release that predates knowing about them. *)
  vc_join (lock_vc t lock) ts.vc;
  ts.vc.(tid) <- ts.vc.(tid) + 1

let publish t tid lock =
  let ts = t.threads.(tid) in
  mark_sync_word t (fst lock) (snd lock);
  vc_join (lock_vc t lock) ts.vc;
  ts.vc.(tid) <- ts.vc.(tid) + 1

let leak_check t tid clock where ts =
  List.iter
    (fun lock ->
      report t ~kind:Lock_leak ~subject:(lock_subject lock) ~tid ~clock
        ~detail:
          (Printf.sprintf "%s still held by t%d at %s" (lock_subject lock)
             tid where))
    ts.held

(* ---------- transactions ---------- *)

let live_tids t line =
  match Hashtbl.find_opt t.live line with
  | Some tids -> tids
  | None ->
      let tids = Hashtbl.create 4 in
      Hashtbl.replace t.live line tids;
      tids

let txn_clear t tid =
  let ts = t.threads.(tid) in
  let drop line () =
    match Hashtbl.find_opt t.live line with
    | Some tids ->
        Hashtbl.remove tids tid;
        if Hashtbl.length tids = 0 then Hashtbl.remove t.live line
    | None -> ()
  in
  Hashtbl.iter drop ts.rlines;
  Hashtbl.iter drop ts.wlines;
  Hashtbl.reset ts.rlines;
  Hashtbl.reset ts.wlines;
  ts.in_txn <- false

let txn_line t tid ~wrote set line =
  let ts = t.threads.(tid) in
  Hashtbl.replace set line ();
  let tids = live_tids t line in
  let wrote =
    wrote || match Hashtbl.find_opt tids tid with Some w -> w | None -> false
  in
  Hashtbl.replace tids tid wrote;
  (* Eager conflict detection means a transaction touching a committed
     line really is ordered after that commit. *)
  match Hashtbl.find_opt t.lines line with
  | Some lvc -> vc_join ts.vc lvc
  | None -> ()

(* Strong-atomicity lint.  An untracked *write* into any line of a live
   transaction's footprint is a hazard either way: against a read set it
   is the update the transaction will never see (and on real RTM the doom
   conflict detection owes it), against a write set a lost update.  An
   untracked *read* is only a hazard against a live *write* set (it can
   observe the pre-transactional value of a line mid-rewrite); reading a
   line other transactions merely read is benign — that read-vs-read shape
   is exactly the 3-path fast path's unsubscribed peek of the
   fallback-activity counter, which is correct by protocol design. *)
let unsafe_access t tid clock addr what ~is_write =
  let line = Euno_mem.Memory.line_of_addr addr in
  match Hashtbl.find_opt t.live line with
  | None -> ()
  | Some tids ->
      Hashtbl.iter
        (fun tid' wrote' ->
          if tid' <> tid && (is_write || wrote') then
            report t ~kind:Atomicity
              ~subject:(Printf.sprintf "line %d" line)
              ~tid ~clock
              ~detail:
                (Printf.sprintf
                   "untracked %s of word %d by t%d hits line %d inside \
                    t%d's live transaction %s set"
                   what addr tid line tid'
                   (if wrote' then "write" else "read")))
        tids

(* ---------- the hook ---------- *)

(* Machine.run returns only once every thread it ran has exited, so a
   thread's first event — first ever, or first after its own exit — is
   ordered after everything already folded into [finished].  The bump
   separates the new incarnation's epochs from the old one's. *)
let ensure_active t tid =
  let ts = t.threads.(tid) in
  if not ts.active then begin
    vc_join ts.vc t.finished;
    ts.vc.(tid) <- ts.vc.(tid) + 1;
    ts.active <- true
  end

let clear_range t addr words =
  for a = addr to addr + words - 1 do
    Hashtbl.remove t.addrs a;
    Hashtbl.remove t.sync_words a
  done

(* The trace-only kinds carry nothing the checkers use and return before
   any bookkeeping, so [events] counts the events the checkers saw and a
   san record does not depend on how many conflicts or injected faults
   the run had. *)
let hook t (ev : Sev.event) =
  match ev.Sev.body with
  | Sev.Conflict _ | Sev.Injected _ -> ()
  | body -> (
      t.events <- t.events + 1;
      t.last_clock <- ev.Sev.clock;
      let tid = ev.Sev.tid and clock = ev.Sev.clock in
      ensure_active t tid;
      let ts = t.threads.(tid) in
      match body with
      | Sev.Plain_read { addr; kind } -> plain_read t tid clock addr kind
      | Sev.Plain_write { addr; kind } -> plain_write t tid clock addr kind
      | Sev.Txn_line_read line -> txn_line t tid ~wrote:false ts.rlines line
      | Sev.Txn_line_write line -> txn_line t tid ~wrote:true ts.wlines line
      | Sev.Txn_begin ->
          if ts.in_txn then
            report t ~kind:Txn_unbalanced
              ~subject:(Printf.sprintf "tid %d" tid)
              ~tid ~clock
              ~detail:(Printf.sprintf "t%d began a transaction inside one" tid);
          ts.in_txn <- true
      | Sev.Txn_commit _ ->
          if not ts.in_txn then
            report t ~kind:Txn_unbalanced
              ~subject:(Printf.sprintf "tid %d" tid)
              ~tid ~clock
              ~detail:
                (Printf.sprintf "t%d committed with no open transaction" tid);
          Hashtbl.iter
            (fun line () ->
              let lvc =
                match Hashtbl.find_opt t.lines line with
                | Some lvc -> lvc
                | None ->
                    let lvc = vc_fresh () in
                    Hashtbl.replace t.lines line lvc;
                    lvc
              in
              vc_join lvc ts.vc)
            ts.wlines;
          txn_clear t tid;
          ts.vc.(tid) <- ts.vc.(tid) + 1
      | Sev.Txn_aborted _ ->
          txn_clear t tid;
          (* The abort unwinds to the enclosing attempt, abandoning any
             optimistic section opened inside the transaction. *)
          ts.opt_depth <- 0;
          if ts.attempt_depth = 0 then
            report t ~kind:Escaped_abort
              ~subject:(Printf.sprintf "tid %d" tid)
              ~tid ~clock
              ~detail:
                (Printf.sprintf "t%d received an abort outside Htm.attempt" tid)
      | Sev.Unsafe_read addr ->
          unsafe_access t tid clock addr "read" ~is_write:false
      | Sev.Unsafe_write addr ->
          unsafe_access t tid clock addr "write" ~is_write:true
      | Sev.Alloc_done { addr; words } -> clear_range t addr words
      | Sev.Free_done { addr; words } -> clear_range t addr words
      | Sev.Op_exit _ ->
          leak_check t tid clock "operation exit" ts;
          ts.opt_depth <- 0
      | Sev.Thread_exit { failed = _; aborted } ->
          if aborted then
            report t ~kind:Escaped_abort
              ~subject:(Printf.sprintf "tid %d" tid)
              ~tid ~clock
              ~detail:
                (Printf.sprintf "t%d died with an uncaught Txn_abort" tid);
          if ts.in_txn then
            report t ~kind:Txn_unbalanced
              ~subject:(Printf.sprintf "tid %d" tid)
              ~tid ~clock
              ~detail:
                (Printf.sprintf "t%d exited with a transaction still open" tid);
          leak_check t tid clock "thread exit" ts;
          txn_clear t tid;
          ts.held <- [];
          ts.opt_depth <- 0;
          ts.attempt_depth <- 0;
          vc_join t.finished ts.vc;
          ts.active <- false
      | Sev.Note note -> (
          match note with
          | Sev.Acquire (k, id) -> acquire t tid (k, id)
          | Sev.Release (k, id) -> release t tid clock (k, id)
          | Sev.Publish (k, id) -> publish t tid (k, id)
          | Sev.Barrier_arrive id ->
              let bvc =
                match Hashtbl.find_opt t.barriers id with
                | Some bvc -> bvc
                | None ->
                    let bvc = vc_fresh () in
                    Hashtbl.replace t.barriers id bvc;
                    bvc
              in
              vc_join bvc ts.vc;
              ts.vc.(tid) <- ts.vc.(tid) + 1
          | Sev.Barrier_depart id -> (
              match Hashtbl.find_opt t.barriers id with
              | Some bvc -> vc_join ts.vc bvc
              | None -> ())
          | Sev.Attempt_enter -> ts.attempt_depth <- ts.attempt_depth + 1
          | Sev.Attempt_exit ->
              if ts.attempt_depth > 0 then
                ts.attempt_depth <- ts.attempt_depth - 1
          | Sev.Opt_enter -> ts.opt_depth <- ts.opt_depth + 1
          | Sev.Opt_exit ->
              if ts.opt_depth > 0 then ts.opt_depth <- ts.opt_depth - 1)
      | Sev.Conflict _ | Sev.Injected _ -> assert false)

(* ---------- lock-order cycles ---------- *)

(* DFS over the observed acquired-while-holding digraph.  A cycle means
   two threads can close a deadlock; clean protocols (Eunomia's
   slot -> split -> fallback order, Masstree's strictly bottom-up
   coupling) keep this graph acyclic. *)
let find_cycle t =
  let color = Hashtbl.create 64 in
  (* 1 = on the current DFS stack, 2 = finished *)
  let cycle = ref None in
  let rec dfs path node =
    match Hashtbl.find_opt color node with
    | Some 2 -> ()
    | Some 1 ->
        if !cycle = None then begin
          let rec cut acc = function
            | [] -> acc
            | x :: _ when x = node -> x :: acc
            | x :: rest -> cut (x :: acc) rest
          in
          cycle := Some (cut [] path)
        end
    | _ ->
        Hashtbl.replace color node 1;
        (match Hashtbl.find_opt t.adj node with
        | Some succs ->
            List.iter (fun s -> if !cycle = None then dfs (node :: path) s) !succs
        | None -> ());
        Hashtbl.replace color node 2
  in
  Hashtbl.iter (fun node _ -> if !cycle = None then dfs [] node) t.adj;
  !cycle

let finish t =
  (match find_cycle t with
  | None -> ()
  | Some cycle ->
      let names = List.map lock_subject cycle in
      report t ~kind:Lock_cycle
        ~subject:(String.concat " -> " (List.sort compare names))
        ~tid:(-1) ~clock:t.last_clock
        ~detail:
          ("lock-order cycle: " ^ String.concat " -> " names ^ " -> ..."));
  { events = t.events; findings = List.rev t.findings_rev; total = t.total }
