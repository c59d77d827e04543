(* User-level RTM interface: retry policies behind pluggable fallback
   strategies.

   A strategy decides what happens around the raw transactional attempt:
   how attempts subscribe to concurrent fallback activity, when retries
   give up, and how the software fallback serializes.  Three strategies
   are provided:

   - [Elision] mirrors the DBX/DrTM lock elision the paper reuses
     (Section 4.2.1): each abort type has its own retry budget; when a
     budget is exhausted the operation falls back to a global lock.
     Transactions read the fallback lock word right after xbegin, so a
     fallback holder aborts them.

   - [Three_path] adapts Brown's template ("A Template for Implementing
     Fast Lock-free Trees Using HTM"): an HTM fast path that assumes no
     concurrent fallback (no subscription read at all), an HTM middle
     path that subscribes to a fallback-activity counter instead of the
     lock word, and a bounded lock-serialized software fallback that
     announces itself on that counter and waits out in-flight fast-path
     attempts (a grace period) before entering its critical section.

   - [Lockfree] is Brown's full template: the same fast/middle discipline,
     but the software path makes progress without queueing on a global
     fallback lock.  An operation that exhausts its budgets publishes a
     per-op descriptor in the padded sidecar, announces itself on the
     activity counter (dooming middle-path subscribers and fencing off new
     fast-path attempts), and is then served by whichever thread currently
     holds the combiner claim — its own claim if it wins the single
     try-acquire, or another thread's tenure that applies every pending
     descriptor (helping).  A helped operation completes without its
     thread ever touching the fallback lock, which is the progress
     property the serialized fallbacks lack.

   Graceful degradation (all strategies): the polite wait spin is bounded
   by a watchdog (a stalled fallback holder cannot hang a waiter forever —
   the waiter falls through to the budget path and eventually serializes),
   the fallback acquisition itself is bounded (a leaked lock surfaces as
   Stuck_fallback instead of a livelock), threads that keep losing the
   fast path are detected as starving and back off with escalating jitter,
   and a convoy on the fallback lock is counted through user-counter
   telemetry. *)

module Api = Euno_sim.Api
module Abort = Euno_sim.Abort
module Eff = Euno_sim.Eff
module Sev = Euno_sim.Sev
module Domain_ref = Euno_sim.Domain_ref
module Spinlock = Euno_sync.Spinlock
module Backoff = Euno_sync.Backoff

(* Test-only mutation switches: reintroduce historical protocol bugs so
   the sanitizer test suite can prove it detects them.  Never set outside
   test code. *)
module Testonly = struct
  (* Domain-local (Domain_ref): a mutation armed by a campaign cell on
     one pool worker must not bleed into cells on other domains. *)
  let escape_xbegin_park = Domain_ref.create (fun () -> false)
  (* PR 2 bug: evaluate xbegin *before* the match scrutinee, so an abort
     delivered while parked at the xbegin call site escapes [attempt]
     uncaught. *)

  let skip_subscription = Domain_ref.create (fun () -> false)
  (* Lock-elision bug: skip the fallback-lock subscription check in
     [attempt_elided].  An unsubscribed transaction neither aborts when a
     fallback holder is active nor joins its read set, so it can commit in
     the middle of the holder's critical section — the classic lost-update
     window EunoCheck must catch as a non-linearizable history. *)

  let skip_activity_read = Domain_ref.create (fun () -> false)
  (* 3-path bug: skip the middle path's in-transaction read of the
     fallback-activity counter.  The unsubscribed middle-path transaction
     neither aborts while a software fallback is active nor is doomed when
     one arrives — the same lost-update window as skip_subscription, in
     the strategy whose *fast* path legitimately has no subscription. *)

  let lf_skip_announce = Domain_ref.create (fun () -> false)
  (* Lockfree bug: skip the software path's announcement FAA on the
     activity counter (and its matching decrement).  An unannounced
     software op neither dooms middle-path subscribers nor fences off new
     fast-path transactions, so the combiner's plain application can
     overlap an unsubscribed commit — the lost-doom torn commit EunoCheck
     must catch as a non-linearizable history. *)
end

type strategy = Elision | Three_path | Lockfree

let strategy_name = function
  | Elision -> "elision"
  | Three_path -> "three-path"
  | Lockfree -> "lockfree"

let strategy_of_name = function
  | "elision" -> Some Elision
  | "three-path" -> Some Three_path
  | "lockfree" -> Some Lockfree
  | _ -> None

let all_strategies = [ Elision; Three_path; Lockfree ]
let strategy_names = List.map strategy_name all_strategies

type policy = {
  strategy : strategy;
  conflict_retries : int;
  capacity_retries : int;
  lock_busy_retries : int;
      (* explicit aborts: fallback lock (or fallback activity) observed *)
  other_retries : int; (* spurious / timer / alloc-fault *)
  fast_path_attempts : int;
      (* [Three_path] only: unsubscribed fast-path attempts before the
         operation drops to the subscribed middle path.  Each failed fast
         attempt still spends its abort-type budget. *)
  backoff_base : int;
  backoff_cap : int;
  wait_for_lock : bool;
      (* spin outside the transaction while the fallback lock is held,
         instead of burning transactional attempts against it.  The
         paper-era implementations (DBX; pre-fix glibc elision) did NOT do
         this — retrying straight into a held lock is what produces the
         fallback death spiral ("lemming effect") under contention. *)
  max_lock_wait : int;
      (* watchdog: cycles a wait_for_lock spin may queue on a held
         fallback lock before giving up and falling through to the budget
         path.  Keeps a preempted/stalled holder from hanging waiters. *)
  stuck_limit : int;
      (* cycles the fallback path may spin acquiring the lock (or, for
         [Three_path], waiting out in-flight fast attempts) before the
         operation raises Stuck_fallback: past this point the lock is
         considered leaked, not merely contended *)
  starvation_threshold : int;
      (* consecutive fallbacks by one thread before it is considered
         starving and starts escalating jittered backoff ahead of the
         lock; max_int disables detection (paper-era behaviour) *)
}

(* The DBX-style policy the paper's baselines use: a small conflict budget,
   mild backoff, and naive retry against a held fallback lock.  Starvation
   detection is disabled so the paper's collapse shapes are preserved. *)
let default_policy =
  {
    strategy = Elision;
    conflict_retries = 2;
    capacity_retries = 2;
    lock_busy_retries = 24;
    other_retries = 4;
    fast_path_attempts = 2;
    backoff_base = 16;
    backoff_cap = 1024;
    wait_for_lock = false;
    max_lock_wait = 50_000;
    stuck_limit = 5_000_000;
    starvation_threshold = max_int;
  }

(* A modern, well-behaved policy (post-lemming-fix), for ablations. *)
let polite_policy =
  {
    default_policy with
    conflict_retries = 16;
    capacity_retries = 2;
    lock_busy_retries = 16;
    other_retries = 4;
    backoff_base = 64;
    backoff_cap = 8192;
    wait_for_lock = true;
    starvation_threshold = 3;
  }

(* Brown's 3-path template with the default budgets: two unsubscribed fast
   attempts, then the activity-subscribed middle path, then the bounded
   software fallback. *)
let three_path_policy = { default_policy with strategy = Three_path }

(* Brown's full template with the lock-free software fallback: same
   fast/middle budgets, but exhausted operations publish descriptors and
   are served by the current combiner instead of queueing on the lock. *)
let lockfree_policy = { default_policy with strategy = Lockfree }

(* User-counter indices (see Machine.n_user_counters), claimed through the
   machine's registry below so a new strategy cannot silently alias an
   index another module owns.  Euno_tree owns 3-7. *)
module Counter = struct
  let fallbacks = 0
  let retries = 1
  let lock_wait_cycles = 2 (* cycles spent queueing on the fallback lock *)
  let watchdog_trips = 8 (* bounded lock waits that gave up *)
  let starvation_backoffs = 9 (* escalating backoffs by starving threads *)
  let convoy_events = 10 (* fallback entries that joined a convoy *)
  let fast_path_wins = 11 (* [Three_path] commits on the unsubscribed path *)
  let middle_path_wins = 12 (* [Three_path] commits on the subscribed path *)
  let grace_wait_cycles = 13
  (* [Three_path]/[Lockfree] cycles fallback entrants (combiner tenures)
     spent waiting out in-flight fast-path attempts before entering the
     critical section *)

  let software_path_wins = 14
  (* [Lockfree] operations served through a published descriptor — by the
     thread's own combining tenure or by another thread's (helped) *)

  let helped_ops = 15
  (* [Lockfree] descriptors a combiner applied on behalf of *other*
     threads during its tenure *)

  (* Telemetry labels for the indices this module owns. *)
  let names =
    [
      (fallbacks, "fallbacks");
      (retries, "retries");
      (lock_wait_cycles, "lock_wait_cycles");
      (watchdog_trips, "watchdog_trips");
      (starvation_backoffs, "starvation_backoffs");
      (convoy_events, "convoy_events");
      (fast_path_wins, "fast_path_wins");
      (middle_path_wins, "middle_path_wins");
      (grace_wait_cycles, "grace_wait_cycles");
      (software_path_wins, "software_path_wins");
      (helped_ops, "helped_ops");
    ]
end

let () = Euno_sim.Machine.register_user_counters ~owner:"htm" Counter.names

(* Threads simultaneously past the fallback entry (queued or holding) that
   count as a convoy. *)
let convoy_depth = 3

(* The fallback lock plus its degradation-tracking sidecar: one word of
   fallback depth (how many threads are past the fallback entry right
   now), then a per-thread consecutive-fallback slot.  The sidecar is
   bookkeeping, not protocol data: the depth word is FAA'd outside
   transactions and the slots use untracked accesses, so none of it can
   doom a transaction or join a read set.

   [tp] is the template protocol sidecar, allocated only when the lock is
   created for a [Three_path] or [Lockfree] policy (so elision-only worlds
   keep the exact allocation stream the golden traces were recorded
   against): word 0 is the fallback-activity counter the middle path
   subscribes to and fallback entrants FAA, then one untracked
   in-fast-attempt flag per thread, then — [Lockfree] only — one
   descriptor-status word per thread.  [tp = -1] when absent. *)
type lock = { word : int; aux : int; tp : int }

let aux_words = 1 + Euno_sim.Line_table.max_threads

(* The 3-path sidecar is laid out one word per cache line: the middle path
   reads the activity counter transactionally, so if the per-thread fast
   flags shared its line every untracked flag write would land inside a
   middle-path subscriber's read-set line (an atomicity-lint finding in
   EunoSan, and a spurious doom on real RTM).  Brown's implementations pad
   these variables apart for exactly this reason. *)
let tp_stride = Euno_mem.Memory.line_words
let tp_words = tp_stride * (1 + Euno_sim.Line_table.max_threads)
let tp_flag lock tid = lock.tp + (tp_stride * (1 + tid))

(* The lockfree sidecar extends the 3-path layout with one padded
   descriptor-status word per thread (empty / pending / taken / done),
   after the activity counter and the fast flags.  Status transitions
   cross threads, so they use CAS (publish and retire are owner-only plain
   writes); polling spins use untracked reads, like the grace wait. *)
let lf_empty = 0
let lf_pending = 1
let lf_taken = 2
let lf_done = 3
let lf_tp_words = tp_stride * (1 + (2 * Euno_sim.Line_table.max_threads))

let lf_desc lock tid =
  lock.tp + (tp_stride * (1 + Euno_sim.Line_table.max_threads + tid))

(* Host-side descriptor bodies: the status word lives in simulated memory,
   but the operation closure and its result cannot, so they ride in a
   per-lock table keyed by the sidecar base address.  [alloc_lock]
   (re)installs the entry, so a sidecar address recycled by a later
   simulated world never leaks stale descriptors; the table itself holds
   no simulated state, so determinism is untouched.  Domain-local:
   concurrent campaign cells simulate disjoint worlds that can allocate
   identical sidecar addresses, so each pool worker keeps its own table.
   Results are monomorphised through [Obj] — sound because only the
   owning thread ever reads its own slot's result, with the type the
   closure it published produced. *)
type lf_cell = {
  mutable lf_fn : (unit -> Obj.t) option;
  mutable lf_res : (Obj.t, exn) result;
}

let lf_tables : (int, lf_cell array) Hashtbl.t Domain_ref.t =
  Domain_ref.create (fun () -> Hashtbl.create 7)

let alloc_lock ?(policy = default_policy) () =
  let word = Spinlock.alloc () in
  let aux = Api.alloc ~kind:Euno_mem.Linemap.Scratch ~words:aux_words in
  let tp =
    match policy.strategy with
    | Elision -> -1
    | Three_path ->
        (* Lock-kind, so a conflict cascade on the activity counter
           classifies as Subscription — it is the 3-path analogue of the
           elision lock word, not a data conflict. *)
        let tp = Api.alloc ~kind:Euno_mem.Linemap.Lock ~words:tp_words in
        (* A recycled address must not alias an earlier world's lockfree
           descriptor table: this sidecar has no descriptor stripe. *)
        Hashtbl.remove (Domain_ref.get lf_tables) tp;
        tp
    | Lockfree ->
        let tp = Api.alloc ~kind:Euno_mem.Linemap.Lock ~words:lf_tp_words in
        Hashtbl.replace (Domain_ref.get lf_tables) tp
          (Array.init Euno_sim.Line_table.max_threads (fun _ ->
               { lf_fn = None; lf_res = Error Not_found }));
        tp
  in
  { word; aux; tp }

let lock_word l = l.word

exception Unreachable_after_xabort
exception Stuck_fallback of { lock : int; waited : int }

(* One transactional attempt of [f].  Returns the abort code on failure.

   [Api.xbegin] must be evaluated *inside* the match scrutinee: the machine
   starts the transaction eagerly when the call is interpreted, so the
   thread can already be doomed (e.g. by an injected preemption) while
   parked at the xbegin call site — the abort is then delivered exactly
   there, and a scrutinee that starts after xbegin would let it escape. *)
let attempt_body f =
  if Domain_ref.get Testonly.escape_xbegin_park then begin
    (* The pre-fix shape: the transaction starts before the match
       scrutinee, so a doom delivered at the xbegin park point is raised
       outside the handler below and escapes. *)
    Api.xbegin ();
    match
      let v = f () in
      Api.xend ();
      v
    with
    | v -> Ok v
    | exception Eff.Txn_abort code -> Error code
    | exception e ->
        (try if Api.xtest () then Api.xabort Abort.xabort_user_exn
         with Eff.Txn_abort _ -> ());
        raise e
  end
  else
    match
      Api.xbegin ();
      let v = f () in
      Api.xend ();
      v
    with
    | v -> Ok v
    | exception Eff.Txn_abort code -> Error code
    | exception e ->
        (* A user exception escaping [f] must not leave the machine with an
           open transaction: explicitly abort (rolling back buffered writes)
           before re-raising.  The xabort itself is observed as Txn_abort at
           its own call site, and the transaction may already have been
           doomed before [e] was raised — swallow that delivery, the user
           exception is what propagates. *)
        (try if Api.xtest () then Api.xabort Abort.xabort_user_exn
         with Eff.Txn_abort _ -> ());
        raise e

(* The sanitizer brackets every attempt so it can tell aborts delivered
   inside the wrapper (normal) from ones escaping it (the bug class the
   scrutinee placement above exists to prevent).  The exit note fires on
   the exception path too: escape detection keys off the thread dying
   with Txn_abort, not off bracket imbalance. *)
let attempt f =
  if Sev.armed () then begin
    Api.san_note Sev.Attempt_enter;
    match attempt_body f with
    | r ->
        Api.san_note Sev.Attempt_exit;
        r
    | exception e ->
        Api.san_note Sev.Attempt_exit;
        raise e
  end
  else attempt_body f

(* One *elided* attempt: subscribe to the fallback lock first.  The
   subscription read is what makes elision safe — it both aborts the
   attempt while a fallback holder is active and puts the lock word in the
   transaction's read set so a later acquisition dooms it. *)
let attempt_elided ~lock f =
  attempt (fun () ->
      if
        (not (Domain_ref.get Testonly.skip_subscription)) && Spinlock.is_locked lock.word
      then begin
        Api.xabort Abort.xabort_lock_held;
        raise Unreachable_after_xabort
      end;
      f ())

(* One *middle-path* attempt of the 3-path strategy: subscribe to the
   fallback-activity counter instead of the lock word.  The transactional
   read both aborts the attempt while a software fallback is in progress
   and puts the activity line in the read set, so a fallback announcing
   itself later (FAA) dooms the attempt — exactly the elision subscription
   property, against a counter the fast path can peek without joining. *)
let attempt_middle ~lock f =
  attempt (fun () ->
      if (not (Domain_ref.get Testonly.skip_activity_read)) && Api.read lock.tp > 0 then begin
        Api.xabort Abort.xabort_fallback_active;
        raise Unreachable_after_xabort
      end;
      f ())

type budgets = {
  mutable conflict : int;
  mutable capacity : int;
  mutable lock_busy : int;
  mutable other : int;
}

let budgets_of policy =
  {
    conflict = policy.conflict_retries;
    capacity = policy.capacity_retries;
    lock_busy = policy.lock_busy_retries;
    other = policy.other_retries;
  }

let budgets_total b = b.conflict + b.capacity + b.lock_busy + b.other

(* Consume one retry from the bucket matching [code]; false when that
   bucket is exhausted and the caller must take the fallback path. *)
let spend budgets (code : Abort.code) =
  let take get set =
    let v = get () in
    if v <= 0 then false
    else begin
      set (v - 1);
      true
    end
  in
  match code with
  | Abort.Conflict _ ->
      take (fun () -> budgets.conflict) (fun v -> budgets.conflict <- v)
  | Abort.Capacity_read | Abort.Capacity_write ->
      take (fun () -> budgets.capacity) (fun v -> budgets.capacity <- v)
  | Abort.Explicit _ ->
      take (fun () -> budgets.lock_busy) (fun v -> budgets.lock_busy <- v)
  | Abort.Spurious | Abort.Timer | Abort.Alloc_fault ->
      take (fun () -> budgets.other) (fun v -> budgets.other <- v)

(* ---------- the strategy interface ---------- *)

(* A fallback strategy is everything around the raw transactional attempt:
   how attempts subscribe, how retries are budgeted, and how the software
   fallback serializes.  [run] is the whole discipline for one operation;
   trees call [atomic], which dispatches here on [policy.strategy], so a
   new strategy needs no tree-code changes. *)
module type STRATEGY = sig
  val name : string

  val needs_sidecar : bool
  (** Whether locks driven by this strategy need the 3-path protocol
      sidecar ([lock.tp]); {!alloc_lock} consults the policy's strategy. *)

  val run :
    policy:policy ->
    on_abort:(Euno_sim.Abort.code -> unit) ->
    lock:lock ->
    (unit -> 'a) ->
    'a
end

(* ---------- shared degradation bookkeeping ---------- *)

(* Bounded polite wait on [quiet] coming true: true when it did, false
   when the watchdog fired first (holder preempted, stalled, or leaked). *)
let bounded_wait ~policy quiet =
  let t0 = Api.clock () in
  let rec spin () =
    if quiet () then true
    else if Api.clock () - t0 > policy.max_lock_wait then false
    else begin
      Api.work 64;
      spin ()
    end
  in
  spin ()

(* Convoy + starvation accounting at fallback entry.  Returns the
   consecutive-fallback count *including* this entry; exits through
   [fallback_abandoned] must give the entry back. *)
let fallback_enter ~policy ~lock ~starvation_slot =
  Api.count Counter.fallbacks 1;
  let consecutive = Api.untracked_read starvation_slot + 1 in
  Api.untracked_write starvation_slot consecutive;
  let depth = Api.faa lock.aux 1 + 1 in
  if depth >= convoy_depth then Api.count Counter.convoy_events 1;
  if consecutive > policy.starvation_threshold then begin
    (* Starving: this thread keeps losing the fast path.  Escalate a
       jittered backoff ahead of the lock so the convoy can drain and
       other threads regain the fast path (the anti-lemming valve). *)
    Api.count Counter.starvation_backoffs 1;
    let over = min 10 (consecutive - policy.starvation_threshold) in
    let d = min policy.backoff_cap (policy.backoff_base * (1 lsl over)) in
    Api.work (d + Api.rand (d + 1))
  end;
  consecutive

(* An operation that entered the fallback but was abandoned by an exception
   (Stuck_fallback, or a user/injected fault escaping [f]) was never served:
   it must not count toward this thread's consecutive-fallback starvation
   score, or a chaos run that defeats a few operations leaves the thread
   escalating starvation backoff forever after (the slot is otherwise only
   reset by a fast-path win). *)
let fallback_abandoned ~starvation_slot ~consecutive =
  Api.untracked_write starvation_slot (consecutive - 1)

(* ---------- strategy 1: DBX-style lock elision ---------- *)

module Elision : STRATEGY = struct
  let name = "elision"
  let needs_sidecar = false

  (* Execute [f] atomically: elided transactional attempts with retries,
     then under the fallback lock. *)
  let run ~policy ~on_abort ~lock f =
    let budgets = budgets_of policy in
    let backoff =
      Backoff.create ~base:policy.backoff_base ~cap:policy.backoff_cap ()
    in
    let wait_unlocked () =
      bounded_wait ~policy (fun () -> not (Spinlock.is_locked lock.word))
    in
    let starvation_slot = lock.aux + 1 + Api.tid () in
    (* Serialize under the fallback lock, with convoy and starvation
       accounting around the bounded acquisition. *)
    let fallback () =
      let consecutive = fallback_enter ~policy ~lock ~starvation_slot in
      let t0 = Api.clock () in
      let acquired =
        Spinlock.acquire_bounded ~max_cycles:policy.stuck_limit lock.word
      in
      Api.count Counter.lock_wait_cycles (Api.clock () - t0);
      if not acquired then begin
        ignore (Api.faa lock.aux (-1));
        fallback_abandoned ~starvation_slot ~consecutive;
        raise (Stuck_fallback { lock = lock.word; waited = Api.clock () - t0 })
      end;
      let leave () =
        Spinlock.release lock.word;
        ignore (Api.faa lock.aux (-1))
      in
      match f () with
      | v ->
          leave ();
          v
      | exception e ->
          leave ();
          fallback_abandoned ~starvation_slot ~consecutive;
          raise e
    in
    let rec go () =
      match attempt_elided ~lock f with
      | Ok v ->
          (* Fast path won: the thread is not starving. *)
          if Api.untracked_read starvation_slot <> 0 then
            Api.untracked_write starvation_slot 0;
          v
      | Error code ->
          on_abort code;
          (* A lock-held abort under a waiting policy is not a failed
             attempt: the thread queues outside the transaction until the
             holder leaves and retries with its budgets intact.  Charging
             the lock_busy bucket here would let a politely-queueing thread
             exhaust it and grab the fallback lock itself — amplifying the
             very convoy wait_for_lock exists to prevent.  The queueing is
             bounded by the watchdog: when the holder outlasts
             max_lock_wait the wait stops being free and the abort falls
             through to the budget path. *)
          let queued =
            policy.wait_for_lock
            &&
            match code with
            | Abort.Explicit c -> c = Abort.xabort_lock_held
            | _ -> false
          in
          if queued && wait_unlocked () then begin
            Api.count Counter.retries 1;
            go ()
          end
          else begin
            if queued then Api.count Counter.watchdog_trips 1;
            if spend budgets code then begin
              Api.count Counter.retries 1;
              (match code with
              | Abort.Conflict _ | Abort.Explicit _ -> Backoff.once backoff
              | Abort.Capacity_read | Abort.Capacity_write | Abort.Spurious
              | Abort.Timer | Abort.Alloc_fault ->
                  ());
              (* Post-fix implementations spin outside the transaction while
                 the fallback lock is held; paper-era ones dive right back
                 in.  (Bounded: a watchdog trip here just means the next
                 attempt aborts lock-held and spends budget.) *)
              if policy.wait_for_lock && not queued then ignore (wait_unlocked ());
              go ()
            end
            else fallback ()
          end
    in
    go ()
end

(* ---------- the shared fast/middle template (Brown) ---------- *)

(* Protocol recap, shared by [Three_path] and [Lockfree].  The sidecar
   carries an activity counter A (word [lock.tp]) and one per-thread
   in-fast-attempt flag (untracked).

   Fast path: set own flag, peek A untracked; if A = 0, attempt the
   transaction with NO subscription read, clear the flag when the
   attempt finishes (commit or abort).  If A > 0, clear the flag and
   drop to the middle path.

   Middle path: attempt with an in-transaction read of A, aborting
   explicitly when A > 0 — the elision subscription discipline against
   A instead of the lock word.

   Software path ([software], the strategy-specific part): announce on A
   (dooming every middle-path subscriber), then wait until every fast
   flag reads 0 — the grace period.  A fast attempt that set its flag
   before the FAA is waited out; one that sets it afterwards peeks A > 0
   and never starts a transaction.  Only then run [f] plainly —
   serialized on the fallback lock ([Three_path]) or applied by the
   current combiner tenure ([Lockfree]) — and FAA A back down.  Mutual
   exclusion between the unsubscribed fast path and the software path
   therefore never depends on conflict detection — it is the flag/counter
   handshake. *)
let template_run ~policy ~on_abort ~lock ~software f =
    let activity = lock.tp in
    let fast_flag = tp_flag lock (Api.tid ()) in
    let budgets = budgets_of policy in
    let backoff =
      Backoff.create ~base:policy.backoff_base ~cap:policy.backoff_cap ()
    in
    let starvation_slot = lock.aux + 1 + Api.tid () in
    let won counter v =
      Api.count counter 1;
      if Api.untracked_read starvation_slot <> 0 then
        Api.untracked_write starvation_slot 0;
      v
    in
    let rec middle () =
      match attempt_middle ~lock f with
      | Ok v -> won Counter.middle_path_wins v
      | Error code ->
          on_abort code;
          (* Same queueing discipline as elision, keyed on fallback
             activity instead of the lock word. *)
          let queued =
            policy.wait_for_lock
            &&
            match code with
            | Abort.Explicit c -> c = Abort.xabort_fallback_active
            | _ -> false
          in
          if
            queued
            && bounded_wait ~policy (fun () -> Api.untracked_read activity = 0)
          then begin
            Api.count Counter.retries 1;
            middle ()
          end
          else begin
            if queued then Api.count Counter.watchdog_trips 1;
            if spend budgets code then begin
              Api.count Counter.retries 1;
              (match code with
              | Abort.Conflict _ | Abort.Explicit _ -> Backoff.once backoff
              | Abort.Capacity_read | Abort.Capacity_write | Abort.Spurious
              | Abort.Timer | Abort.Alloc_fault ->
                  ());
              middle ()
            end
            else software ()
          end
    in
    let rec fast attempts_left =
      if attempts_left <= 0 then middle ()
      else begin
        (* Flag before peeking: a fallback that FAAs A after our peek is
           guaranteed to see the flag during its grace wait. *)
        Api.untracked_write fast_flag 1;
        if Api.untracked_read activity > 0 then begin
          Api.untracked_write fast_flag 0;
          middle ()
        end
        else begin
          let r =
            match attempt f with
            | r ->
                Api.untracked_write fast_flag 0;
                r
            | exception e ->
                Api.untracked_write fast_flag 0;
                raise e
          in
          match r with
          | Ok v -> won Counter.fast_path_wins v
          | Error code ->
              on_abort code;
              if spend budgets code then begin
                Api.count Counter.retries 1;
                (match code with
                | Abort.Conflict _ | Abort.Explicit _ -> Backoff.once backoff
                | Abort.Capacity_read | Abort.Capacity_write | Abort.Spurious
                | Abort.Timer | Abort.Alloc_fault ->
                    ());
                fast (attempts_left - 1)
              end
              else software ()
        end
      end
    in
    fast policy.fast_path_attempts

(* ---------- strategy 2: Brown's 3-path template ---------- *)

module Three_path : STRATEGY = struct
  let name = "three-path"
  let needs_sidecar = true

  (* The template with a lock-serialized software path: announce, grace
     wait, then a bounded acquisition of the fallback lock. *)
  let run ~policy ~on_abort ~lock f =
    if lock.tp < 0 then
      invalid_arg
        "Htm: three-path strategy requires a lock from alloc_lock with a \
         three-path policy";
    let software () =
      let activity = lock.tp in
      let starvation_slot = lock.aux + 1 + Api.tid () in
      let consecutive = fallback_enter ~policy ~lock ~starvation_slot in
      (* Announce before the grace wait: once A > 0 is visible no new
         fast-path transaction starts, so every flag only needs to be
         observed clear once. *)
      ignore (Api.faa activity 1);
      let abandon () =
        ignore (Api.faa activity (-1));
        ignore (Api.faa lock.aux (-1));
        fallback_abandoned ~starvation_slot ~consecutive
      in
      let t0 = Api.clock () in
      let rec grace tid =
        if tid >= Euno_sim.Line_table.max_threads then true
        else if Api.untracked_read (tp_flag lock tid) = 0 then grace (tid + 1)
        else if Api.clock () - t0 > policy.stuck_limit then false
        else begin
          Api.work 64;
          grace tid
        end
      in
      let quiesced = grace 0 in
      Api.count Counter.grace_wait_cycles (Api.clock () - t0);
      if not quiesced then begin
        abandon ();
        raise (Stuck_fallback { lock = lock.word; waited = Api.clock () - t0 })
      end;
      let t1 = Api.clock () in
      let acquired =
        Spinlock.acquire_bounded ~max_cycles:policy.stuck_limit lock.word
      in
      Api.count Counter.lock_wait_cycles (Api.clock () - t1);
      if not acquired then begin
        abandon ();
        raise (Stuck_fallback { lock = lock.word; waited = Api.clock () - t1 })
      end;
      let leave () =
        Spinlock.release lock.word;
        ignore (Api.faa activity (-1));
        ignore (Api.faa lock.aux (-1))
      in
      match f () with
      | v ->
          leave ();
          v
      | exception e ->
          leave ();
          fallback_abandoned ~starvation_slot ~consecutive;
          raise e
    in
    template_run ~policy ~on_abort ~lock ~software f
end

(* ---------- strategy 3: Brown's full template, lock-free software
   fallback (descriptor publication + combining/helping) ---------- *)

module Lockfree : STRATEGY = struct
  let name = "lockfree"
  let needs_sidecar = true

  (* Software-path protocol.  A thread whose budgets run out:

     1. publishes: stores its operation closure in the host-side cell and
        plain-writes its status word empty→pending (owner-only
        transition);
     2. announces: FAA on the activity counter — middle-path subscribers
        are doomed, new fast attempts fenced off (the [Testonly.
        lf_skip_announce] mutation deletes exactly this edge);
     3. serves: polls its own status; when the single [try_acquire] on
        the fallback word wins, it becomes the combiner — one grace wait
        over the fast flags, then every pending descriptor is claimed
        (CAS pending→taken), applied plainly, and marked done.  A thread
        that loses the try_acquire just keeps polling: the current
        combiner applies its descriptor for it (helping), and the op
        completes without this thread ever touching the lock.

     The combiner's own announcement spans its whole tenure (it retires
     it only after taking its result, post-release), so activity ≥ 1
     covers every plain application, and each tenure begins with a grace
     wait — no unsubscribed fast transaction ever overlaps one.

     Abandonment (watchdog past [stuck_limit]) must leave no droppable
     op behind: withdrawing CASes pending→empty; if that fails a combiner
     already owns the descriptor and its effects will land, so the thread
     waits for done and returns normally instead of raising. *)

  let run ~policy ~on_abort ~lock f =
    let cells =
      match
        if lock.tp < 0 then None else Hashtbl.find_opt (Domain_ref.get lf_tables) lock.tp
      with
      | Some cells -> cells
      | None ->
          invalid_arg
            "Htm: lockfree strategy requires a lock from alloc_lock with a \
             lockfree policy"
    in
    let software () =
      let tid = Api.tid () in
      let activity = lock.tp in
      let starvation_slot = lock.aux + 1 + tid in
      let desc = lf_desc lock tid in
      let cell = cells.(tid) in
      let consecutive = fallback_enter ~policy ~lock ~starvation_slot in
      cell.lf_fn <- Some (fun () -> Obj.repr (f ()));
      Api.write desc lf_pending;
      if not (Domain_ref.get Testonly.lf_skip_announce) then ignore (Api.faa activity 1);
      let t0 = Api.clock () in
      (* Status is done: take the result, retire slot + announcement. *)
      let finish () =
        let r = cell.lf_res in
        cell.lf_fn <- None;
        cell.lf_res <- Error Not_found;
        Api.write desc lf_empty;
        if not (Domain_ref.get Testonly.lf_skip_announce) then ignore (Api.faa activity (-1));
        ignore (Api.faa lock.aux (-1));
        match r with
        | Ok v ->
            Api.count Counter.software_path_wins 1;
            Obj.obj v
        | Error e ->
            (* The op ran but raised (injected fault / user exception):
               like its siblings, it was not served — give the starvation
               entry back before propagating. *)
            fallback_abandoned ~starvation_slot ~consecutive;
            raise e
      in
      let withdraw waited =
        if Api.cas desc ~expected:lf_pending ~desired:lf_empty then begin
          cell.lf_fn <- None;
          if not (Domain_ref.get Testonly.lf_skip_announce) then
            ignore (Api.faa activity (-1));
          ignore (Api.faa lock.aux (-1));
          fallback_abandoned ~starvation_slot ~consecutive;
          raise (Stuck_fallback { lock = lock.word; waited })
        end
        else begin
          (* A combiner claimed the descriptor between the timeout and the
             CAS: the op's effects will land, so abandoning now would
             drop a served op.  Application is plain and bounded — wait
             for done and return normally. *)
          while Api.untracked_read desc <> lf_done do
            Api.work 64
          done;
          finish ()
        end
      in
      (* We hold the combiner claim (lock.word). *)
      let combine () =
        if Api.untracked_read desc = lf_done then begin
          (* The previous tenure served us between our poll and our
             claim; nothing left to combine for. *)
          Spinlock.release lock.word;
          finish ()
        end
        else begin
          let tg = Api.clock () in
          let rec grace t =
            if t >= Euno_sim.Line_table.max_threads then true
            else if Api.untracked_read (tp_flag lock t) = 0 then grace (t + 1)
            else if Api.clock () - tg > policy.stuck_limit then false
            else begin
              Api.work 64;
              grace t
            end
          in
          let quiesced = grace 0 in
          Api.count Counter.grace_wait_cycles (Api.clock () - tg);
          if not quiesced then begin
            Spinlock.release lock.word;
            withdraw (Api.clock () - t0)
          end
          else begin
            (* Between claim and release no other combiner runs and
               every status is empty, pending or done — [lf_taken] is
               tenure-local.  Our own descriptor was pending (checked
               above), so it is done when the loop finishes. *)
            for u = 0 to Euno_sim.Line_table.max_threads - 1 do
              let du = lf_desc lock u in
              if
                Api.untracked_read du = lf_pending
                && Api.cas du ~expected:lf_pending ~desired:lf_taken
              then begin
                let cu = cells.(u) in
                (match (Option.get cu.lf_fn) () with
                | v -> cu.lf_res <- Ok v
                | exception e -> cu.lf_res <- Error e);
                Api.write du lf_done;
                if u <> tid then Api.count Counter.helped_ops 1
              end
            done;
            Spinlock.release lock.word;
            finish ()
          end
        end
      in
      let rec serve () =
        if Api.untracked_read desc = lf_done then finish ()
        else if Spinlock.try_acquire lock.word then combine ()
        else if Api.clock () - t0 > policy.stuck_limit then
          withdraw (Api.clock () - t0)
        else begin
          Api.work 64;
          serve ()
        end
      in
      serve ()
    in
    template_run ~policy ~on_abort ~lock ~software f
end

let strategy_impl = function
  | Elision -> (module Elision : STRATEGY)
  | Three_path -> (module Three_path : STRATEGY)
  | Lockfree -> (module Lockfree : STRATEGY)

let strategies =
  List.map (fun s -> (strategy_name s, strategy_impl s)) all_strategies

(* Execute [f] atomically under the policy's strategy: transactionally
   with retries, then under the software fallback.  [f] runs either inside
   a transaction or while the fallback serializes it; it must not catch
   Txn_abort itself.  [on_abort] runs outside the transaction after every
   aborted attempt (used by Eunomia's per-leaf contention detector). *)
let atomic ?(policy = default_policy) ?(on_abort = fun (_ : Abort.code) -> ())
    ~lock f =
  let (module S : STRATEGY) = strategy_impl policy.strategy in
  S.run ~policy ~on_abort ~lock f
