(* The simulated multicore.

   Each simulated hardware thread is an effects-handler coroutine.  The
   scheduler always resumes the ready thread with the smallest local cycle
   clock.  Each instruction it issues (memory access, atomic, RTM
   primitive) is interpreted, charged cycles from the Cost model and
   checked by eager requester-wins conflict detection at cache-line
   granularity.  The Api call does this in place and the thread keeps
   running while it is still the (clock, tid) minimum; otherwise it
   performs Eff.Yield and parks.  Doomed transactions observe their abort
   as a Txn_abort exception delivered at their next instruction, exactly
   like a real RTM abort rolling back to the xbegin point.

   The whole machine runs on one host thread; given a seed, every run is
   bit-for-bit reproducible.

   Fast paths (see docs/SIMULATOR.md "fast paths"): per-access state is
   flat-array only — line ownership and last-writer sockets are arrays
   indexed by line, transaction read/write sets live in the Line_table
   bits plus a per-thread log, buffered stores sit in an epoch-versioned
   table cleared O(1) on abort, the scheduler's pick-min is a lazy binary
   heap (Sched), the fault-injection hooks are skipped entirely while no
   injector is installed, no Sev event is built while no observer is
   installed, and Api calls perform no effect while their thread stays
   the minimum (see "interpreting Api calls" below).  None of this
   changes simulated behavior: the determinism suite replays recorded
   seed-42 traces byte for byte, also with a yield forced after every
   call.

   Observation (see docs/SIMULATOR.md "Observability"): Sev.event is the
   machine's one event stream and [set_observer] its one passive hook;
   the trace ring and the sanitizer are consumers of it. *)

module Mem = Euno_mem.Memory
module Lmap = Euno_mem.Linemap
module Al = Euno_mem.Alloc

let n_user_counters = 16

(* ---------- user-counter registration ----------

   The user-counter index space is shared by every module that emits
   telemetry through Api.count.  Owners declare their indices here at
   module-initialization time; claiming an index another owner already
   holds is a startup failure instead of two counters silently aliasing
   in every report.  Host-side bookkeeping only — nothing simulated.

   The table is domain-local, seeded from the parent at spawn: the
   module-init registrations (htm, euno_tree) happen on the main domain
   before any pool worker exists, so workers inherit a complete copy,
   and a registration performed on one worker (e.g. by a test) can
   neither race nor collide with another domain's. *)

let user_counter_registry : (int, string * string) Hashtbl.t Domain_ref.t =
  Domain_ref.create ~split:Hashtbl.copy (fun () ->
      Hashtbl.create n_user_counters)

let register_user_counters ~owner names =
  let user_counter_registry = Domain_ref.get user_counter_registry in
  List.iter
    (fun (idx, name) ->
      if idx < 0 || idx >= n_user_counters then
        invalid_arg
          (Printf.sprintf
             "Machine.register_user_counters: %s registers index %d outside \
              0..%d"
             owner idx (n_user_counters - 1));
      match Hashtbl.find_opt user_counter_registry idx with
      | Some (owner', name') when owner' <> owner || name' <> name ->
          invalid_arg
            (Printf.sprintf
               "Machine.register_user_counters: index %d (%s, claimed by %s) \
                collides with %s's %s"
               idx name owner owner' name')
      | Some _ -> () (* identical re-registration is harmless *)
      | None -> Hashtbl.replace user_counter_registry idx (owner, name))
    names

let user_counter_names () =
  Hashtbl.fold (fun idx (_, name) acc -> (idx, name) :: acc)
    (Domain_ref.get user_counter_registry)
    []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let user_counter_owner idx =
  Option.map fst (Hashtbl.find_opt (Domain_ref.get user_counter_registry) idx)

type counters = {
  mutable ops : int;
  mutable commits : int;
  aborts : int array; (* indexed by Abort.index *)
  conflict_kinds : int array; (* conflicts by Linemap kind of the line *)
  mutable wasted_cycles : int; (* cycles inside aborted transactions *)
  mutable committed_cycles : int; (* cycles inside committed transactions *)
  mutable accesses : int; (* instruction-count proxy: effects interpreted *)
  user : int array;
}

let fresh_counters () =
  {
    ops = 0;
    commits = 0;
    aborts = Array.make Abort.n_classes 0;
    conflict_kinds = Array.make Al.nkinds 0;
    wasted_cycles = 0;
    committed_cycles = 0;
    accesses = 0;
    user = Array.make n_user_counters 0;
  }

(* ---------- fault injection ----------

   Deterministic fault hooks consulted by the machine at well-defined
   points.  Every hook is a pure function of (tid, simulated clock), so for
   a fixed seed the same faults fire at the same simulated instants on
   every run; the hooks themselves never mutate machine state.  See
   Euno_fault for the declarative plan DSL that compiles to one of these. *)

type injector = {
  inj_spurious : tid:int -> clock:int -> int;
      (* extra spurious-abort probability (per million transactional
         accesses) on top of Cost.spurious_per_million: interrupt/GC storm *)
  inj_capacity : tid:int -> clock:int -> (int * int) option;
      (* Some (rs, ws): override the read/write-set line capacities while
         active (SMT sibling stealing half the L1/L2), None: nominal *)
  inj_preempt : tid:int -> clock:int -> int;
      (* absolute clock the thread is descheduled until; <= clock means
         runnable.  A preempted transaction aborts (context switches kill
         RTM transactions), then the thread's clock jumps forward. *)
  inj_lock_stall : tid:int -> clock:int -> int;
      (* extra cycles the thread stalls immediately after a successful
         non-transactional lock acquisition: preemption while holding the
         fallback lock, the lemming-storm trigger *)
  inj_skew : tid:int -> clock:int -> int;
      (* per-mille slowdown applied to every cycle charge on this thread
         (DVFS / thermal clock skew); 0 = nominal speed *)
  inj_alloc_fail : tid:int -> clock:int -> in_txn:bool -> bool;
      (* allocation attempted at this instant takes the allocator's slow
         path: aborts the enclosing transaction (Abort.Alloc_fault) or, in
         plain code, raises Euno_mem.Alloc.Alloc_failure.  [in_txn] lets a
         plan target only transactional allocations (which roll back
         safely) without failing fallback-path allocations mid-update. *)
}

let no_injector =
  {
    inj_spurious = (fun ~tid:_ ~clock:_ -> 0);
    inj_capacity = (fun ~tid:_ ~clock:_ -> None);
    inj_preempt = (fun ~tid:_ ~clock:_ -> 0);
    inj_lock_stall = (fun ~tid:_ ~clock:_ -> 0);
    inj_skew = (fun ~tid:_ ~clock:_ -> 0);
    inj_alloc_fail = (fun ~tid:_ ~clock:_ ~in_txn:_ -> false);
  }

type status =
  | Start of (unit -> unit)
  | Ready of (unit, unit) Effect.Deep.continuation
      (* parked at an Eff.Yield; the yielding call's result is already
         computed *)
  | Running
  | Done
  | Failed of exn

type tstate = {
  tid : int;
  socket : int;
  mutable clock : int;
  mutable status : status;
  mutable doom : Abort.code option;
  mutable pending_exn : exn option;
    (* non-abort exception to deliver at the next resumption (e.g. an
       injected allocation failure outside a transaction) *)
  mutable txn : Txn.t option;
  arena : Txn.t;
    (* the one Txn value this thread ever uses; [txn = Some arena] while a
       transaction is active.  Reset in O(1) at each xbegin. *)
  rng : Rng.t;
  mutable op_key : int;
  cache : int array; (* direct-mapped warmth cache of line ids *)
  cnt : counters;
}

type t = {
  mem : Mem.t;
  map : Lmap.t;
  alloc : Al.t;
  cost : Cost.t;
  (* Cost-model fields memoized out of the record so the access path does
     one load instead of two; immutable for the machine's lifetime. *)
  c_hit : int;
  c_miss : int;
  c_remote : int;
  c_wextra : int;
  c_cas : int;
  c_xbegin : int;
  c_xend : int;
  c_abort : int;
  c_spur : int;
  c_txn_limit : int;
  c_rs_cap : int;
  c_ws_cap : int;
  c_gran : int; (* conflict-granule shift over line ids; 0 = per-line *)
  lt : Line_table.t;
  threads : tstate array;
  sched : Sched.t;
  mutable current : int;
  mutable owner_socket : int array; (* line -> socket of last writer, -1 *)
  cache_mask : int;
  mutable inject : injector;
  mutable inj_active : bool;
    (* false while [inject == no_injector]: every hook is inert, so the
       access path skips the closure calls entirely *)
  mutable observer : Sev.event -> unit;
  mutable obs_active : bool;
    (* same inert-branch pattern as the injector: while no observer is
       installed every emission site tests one bool and builds no event *)
  mutable explore : last:int -> point:Explore.point -> int list -> int;
  mutable exp_active : bool;
    (* inert-branch pattern again: with no exploration policy installed,
       [run] uses the Sched heap loop untouched and the access path only
       tests this bool before tagging points, so golden traces stay
       byte-identical *)
  mutable exp_point : Explore.point;
    (* point kind of the call currently being interpreted; reset to
       [Step] before each resumption, upgraded by the process functions *)
  mutable sample_window : int; (* 0 = periodic sampling disabled *)
  mutable next_sample : int; (* next window boundary, simulated cycles *)
  mutable samples : (int * snapshot) list; (* newest first *)
  mutable crash_at : int;
    (* simulated cycle at which the whole process dies (Crashed is raised
       from the scheduler); max_int = never, and the check is one integer
       compare per dispatch, so uncrashed runs are byte-identical *)
}

and snapshot = {
  s_ops : int;
  s_commits : int;
  s_aborts : int array;
  s_conflict_kinds : int array;
  s_wasted_cycles : int;
  s_committed_cycles : int;
  s_accesses : int;
  s_user : int array;
  s_clock : int;
}

let create ~threads ~seed ~cost ~mem ~map ~alloc =
  if threads < 1 || threads > Line_table.max_threads then
    invalid_arg "Machine.create: bad thread count";
  let cache_size = 1 lsl cost.Cost.cache_entries_log2 in
  let mk tid =
    {
      tid;
      socket = tid mod cost.Cost.sockets;
      clock = 0;
      status = Done;
      doom = None;
      pending_exn = None;
      txn = None;
      arena = Txn.create ~tid;
      rng = Rng.create (seed + (tid * 7919) + 1);
      op_key = -1;
      cache = Array.make cache_size (-1);
      cnt = fresh_counters ();
    }
  in
  {
    mem;
    map;
    alloc;
    cost;
    c_hit = cost.Cost.cache_hit;
    c_miss = cost.Cost.cache_miss;
    c_remote = cost.Cost.remote_extra;
    c_wextra = cost.Cost.write_extra;
    c_cas = cost.Cost.cas;
    c_xbegin = cost.Cost.xbegin;
    c_xend = cost.Cost.xend;
    c_abort = cost.Cost.abort_penalty;
    c_spur = cost.Cost.spurious_per_million;
    c_txn_limit = cost.Cost.txn_cycle_limit;
    c_rs_cap = cost.Cost.capacity.Cost.rs_lines;
    c_ws_cap = cost.Cost.capacity.Cost.ws_lines;
    c_gran = cost.Cost.capacity.Cost.granule_log2;
    lt = Line_table.create ();
    threads = Array.init threads mk;
    sched = Sched.create ~capacity:threads;
    current = 0;
    owner_socket = Array.make 64 (-1);
    cache_mask = cache_size - 1;
    inject = no_injector;
    inj_active = false;
    observer = ignore;
    obs_active = false;
    explore = (fun ~last:_ ~point:_ _ -> -1);
    exp_active = false;
    exp_point = Explore.Step;
    sample_window = 0;
    next_sample = max_int;
    samples = [];
    crash_at = max_int;
  }

exception Crashed of { at_cycle : int }

let set_crash m ~at_cycle =
  if at_cycle < 0 then invalid_arg "Machine.set_crash: negative cycle";
  m.crash_at <- at_cycle

let set_injector m inj =
  m.inject <- inj;
  m.inj_active <- inj != no_injector

let set_observer m hook =
  match hook with
  | Some f ->
      m.observer <- f;
      m.obs_active <- true
  | None ->
      m.observer <- ignore;
      m.obs_active <- false

let set_explorer m choose =
  m.explore <- Option.value choose ~default:(fun ~last:_ ~point:_ _ -> -1);
  m.exp_active <- Option.is_some choose

(* Emit an event for thread [t].  Callers must test [m.obs_active] first
   and build the body inside that branch, so an unobserved run allocates
   nothing. *)
let[@inline never] observe m (t : tstate) body =
  m.observer { Sev.tid = t.tid; clock = t.clock; body }

let set_sampling m ~window =
  if window < 1 then invalid_arg "Machine.set_sampling: window < 1";
  m.sample_window <- window;
  m.next_sample <- window;
  m.samples <- []

let n_threads m = Array.length m.threads
let memory m = m.mem
let linemap m = m.map
let allocator m = m.alloc
let cost m = m.cost

(* ---------- cache warmth and cycle charging ---------- *)

(* Every cycle charge passes through the skew hook, so a fault plan can
   slow one core down uniformly (DVFS / thermal throttling).  Without an
   injector the charge is a single add. *)
let[@inline] charge m t c =
  let c =
    if not m.inj_active then c
    else
      match m.inject.inj_skew ~tid:t.tid ~clock:t.clock with
      | 0 -> c
      | sk -> c + (c * sk / 1000)
  in
  t.clock <- t.clock + c

(* Injected capacity squeeze overrides the nominal read/write-set limits. *)
let[@inline] rs_capacity m t =
  if not m.inj_active then m.c_rs_cap
  else
    match m.inject.inj_capacity ~tid:t.tid ~clock:t.clock with
    | Some (rs, _) -> rs
    | None -> m.c_rs_cap

let[@inline] ws_capacity m t =
  if not m.inj_active then m.c_ws_cap
  else
    match m.inject.inj_capacity ~tid:t.tid ~clock:t.clock with
    | Some (_, ws) -> ws
    | None -> m.c_ws_cap

(* Conflict/capacity tracking granule of a line.  Everything entering the
   Line_table or a transaction's read/write set is granule-numbered, so a
   non-zero [granule_log2] makes adjacent lines collide (coarse conflict
   detection) and fill capacity in granule units.  Cycle charging, cache
   warmth and socket ownership stay per-line. *)
let[@inline] granule m line = line lsr m.c_gran

let[@inline] socket_of_line m line =
  if line < Array.length m.owner_socket then m.owner_socket.(line) else -1

let set_socket_of_line m line socket =
  (if line >= Array.length m.owner_socket then begin
     let n = max (2 * Array.length m.owner_socket) (line + 1) in
     let a = Array.make n (-1) in
     Array.blit m.owner_socket 0 a 0 (Array.length m.owner_socket);
     m.owner_socket <- a
   end);
  m.owner_socket.(line) <- socket

let mem_cost m t line ~write =
  let idx = line land m.cache_mask in
  let c =
    if t.cache.(idx) = line then m.c_hit
    else begin
      let s = socket_of_line m line in
      let remote = if s >= 0 && s <> t.socket then m.c_remote else 0 in
      t.cache.(idx) <- line;
      m.c_miss + remote
    end
  in
  if write then c + m.c_wextra else c

(* A write that becomes visible: invalidate the line in every other thread's
   warmth cache and record which socket owns it now. *)
let publish_write m ~writer line =
  let idx = line land m.cache_mask in
  let threads = m.threads in
  for i = 0 to Array.length threads - 1 do
    let t = Array.unsafe_get threads i in
    if t.tid <> writer && t.cache.(idx) = line then t.cache.(idx) <- -1
  done;
  set_socket_of_line m line m.threads.(writer).socket

(* ---------- aborting transactions ---------- *)

let release_txn m (v : tstate) (txn : Txn.t) =
  Txn.iter_lines txn (fun line -> Line_table.remove_thread m.lt line v.tid)

let rollback_allocs m (txn : Txn.t) =
  List.iter
    (fun (from_kind, to_kind, words) ->
      Al.reclassify m.alloc ~from_kind:to_kind ~to_kind:from_kind ~words)
    (Txn.reclassifies txn);
  List.iter
    (fun (kind, addr, words) -> Al.free m.alloc ~kind ~addr ~words)
    (Txn.allocs txn)

(* Abort a thread's active transaction: release ownership, roll back
   allocations, account wasted cycles, and arrange for Txn_abort to be
   delivered at the victim's next resumption. *)
let abort_txn m (v : tstate) (code : Abort.code) =
  match v.txn with
  | None -> ()
  | Some txn ->
      release_txn m v txn;
      rollback_allocs m txn;
      v.txn <- None;
      v.cnt.aborts.(Abort.index code) <- v.cnt.aborts.(Abort.index code) + 1;
      v.cnt.wasted_cycles <-
        v.cnt.wasted_cycles + (v.clock - Txn.start_clock txn) + m.c_abort;
      charge m v m.c_abort;
      if m.obs_active then observe m v (Sev.Txn_aborted code);
      v.doom <- Some code

(* Simulated process death: every hardware thread dies at this instant.
   In-flight transactions keep RTM failure atomicity — buffered writes are
   discarded and transactional allocations rolled back, exactly as if the
   dying core's coherence traffic had aborted them — but nothing else is
   cleaned up: parked continuations are dropped WITHOUT being discontinued,
   so no OCaml finalizer or exception handler runs.  Held advisory and
   fallback locks stay written in simulated memory and half-applied plain
   (fallback-path) updates stay torn — that abandoned state is precisely
   what crash recovery has to cope with.  Raised from scheduler context, so
   every thread is parked (never mid-resume) when it fires.  No abort
   penalty is charged and no abort counter bumped: a power failure is not
   an RTM event. *)
let crash m ~at_cycle =
  Array.iter
    (fun t ->
      (match t.txn with
      | Some txn ->
          release_txn m t txn;
          rollback_allocs m txn;
          t.txn <- None
      | None -> ());
      t.doom <- None;
      t.pending_exn <- None;
      t.status <- Done)
    m.threads;
  raise (Crashed { at_cycle })

(* Requester-wins: the thread currently issuing the access survives; the
   transactional holder is doomed (as in TSX, where the incoming coherence
   request aborts the transaction that owns the line). *)
let doom_holder m ~attacker ~victim_tid line =
  let v = m.threads.(victim_tid) in
  let a = m.threads.(attacker) in
  let kind = Lmap.kind_of_line m.map line in
  let cls =
    Abort.classify ~victim_key:v.op_key ~attacker_key:a.op_key
      ~line_kind:kind
  in
  let ki = Al.kind_index kind in
  v.cnt.conflict_kinds.(ki) <- v.cnt.conflict_kinds.(ki) + 1;
  if m.obs_active then
    observe m a (Sev.Conflict { victim = victim_tid; line; kind });
  abort_txn m v (Abort.Conflict cls)

(* The table is granule-indexed; the attacker's concrete [line] is kept for
   kind classification and the trace (with per-line granules the two
   coincide, and with coarse granules the victim's exact line is unknown —
   the access that triggered the doom is the honest thing to report). *)
let[@inline] doom_writer_of m ~attacker line =
  let w = Line_table.writer m.lt (granule m line) in
  if w >= 0 && w <> attacker then doom_holder m ~attacker ~victim_tid:w line

(* Victims in ascending tid order, from the mask as it stood before the
   first doom; a loop, not a closure, so a write allocates nothing here. *)
let[@inline] doom_readers_of m ~attacker line =
  let mask = Line_table.readers_mask_except m.lt (granule m line) attacker in
  if mask <> 0 then
    for r = 0 to Line_table.max_threads - 1 do
      if mask land (1 lsl r) <> 0 then doom_holder m ~attacker ~victim_tid:r line
    done

(* ---------- transactional hazards ---------- *)

(* Spurious (interrupt/GC-like) and timer aborts, checked on every
   transactional access.  Returns true if the transaction just died. *)
let txn_hazards m (t : tstate) (txn : Txn.t) =
  let spur =
    if m.inj_active then m.c_spur + m.inject.inj_spurious ~tid:t.tid ~clock:t.clock
    else m.c_spur
  in
  if spur > 0 && Rng.int t.rng 1_000_000 < spur then begin
    abort_txn m t Abort.Spurious;
    true
  end
  else if t.clock - Txn.start_clock txn > m.c_txn_limit then begin
    abort_txn m t Abort.Timer;
    true
  end
  else false

(* ---------- instruction interpretation ---------- *)

let process_read m (t : tstate) addr =
  t.cnt.accesses <- t.cnt.accesses + 1;
  let line = Mem.line_of_addr addr in
  charge m t (mem_cost m t line ~write:false);
  match t.txn with
  | None ->
      doom_writer_of m ~attacker:t.tid line;
      if m.obs_active then
        observe m t
          (Sev.Plain_read { addr; kind = Lmap.kind_of_line m.map line });
      Mem.get m.mem addr
  | Some txn ->
      if txn_hazards m t txn then 0
      else begin
        if m.obs_active then observe m t (Sev.Txn_line_read line);
        match Txn.buffered_value txn addr with
        | Some v -> v
        | None ->
            doom_writer_of m ~attacker:t.tid line;
            let g = granule m line in
            if not (Line_table.is_reader m.lt g t.tid) then begin
              Txn.note_read txn g;
              if Txn.reads txn > rs_capacity m t then begin
                abort_txn m t Abort.Capacity_read;
                0
              end
              else begin
                Line_table.add_reader m.lt g t.tid;
                Mem.get m.mem addr
              end
            end
            else Mem.get m.mem addr
      end

let process_write m (t : tstate) addr value =
  t.cnt.accesses <- t.cnt.accesses + 1;
  let line = Mem.line_of_addr addr in
  charge m t (mem_cost m t line ~write:true);
  match t.txn with
  | None ->
      doom_writer_of m ~attacker:t.tid line;
      doom_readers_of m ~attacker:t.tid line;
      if m.obs_active then
        observe m t
          (Sev.Plain_write { addr; kind = Lmap.kind_of_line m.map line });
      Mem.set m.mem addr value;
      publish_write m ~writer:t.tid line
  | Some txn ->
      if txn_hazards m t txn then ()
      else begin
        if m.obs_active then observe m t (Sev.Txn_line_write line);
        doom_writer_of m ~attacker:t.tid line;
        doom_readers_of m ~attacker:t.tid line;
        let g = granule m line in
        if Line_table.writer m.lt g <> t.tid then begin
          Txn.note_write txn g;
          if Txn.written txn > ws_capacity m t then
            abort_txn m t Abort.Capacity_write
          else begin
            Line_table.set_writer m.lt g t.tid;
            (* A written line is implicitly monitored for reads too. *)
            if not (Line_table.is_reader m.lt g t.tid) then begin
              Txn.note_read txn g;
              Line_table.add_reader m.lt g t.tid
            end;
            Txn.buffer_write txn addr value
          end
        end
        else begin
          if not (Line_table.is_reader m.lt g t.tid) then begin
            Txn.note_read txn g;
            Line_table.add_reader m.lt g t.tid
          end;
          Txn.buffer_write txn addr value
        end
      end

let current_value m (t : tstate) addr =
  match t.txn with
  | Some txn -> (
      match Txn.buffered_value txn addr with
      | Some v -> v
      | None -> Mem.get m.mem addr)
  | None -> Mem.get m.mem addr

let process_cas m (t : tstate) addr expected desired =
  t.cnt.accesses <- t.cnt.accesses + 1;
  let line = Mem.line_of_addr addr in
  charge m t (m.c_cas + mem_cost m t line ~write:true);
  let old = current_value m t addr in
  let success = old = expected in
  (match t.txn with
  | None ->
      doom_writer_of m ~attacker:t.tid line;
      if success then begin
        doom_readers_of m ~attacker:t.tid line;
        Mem.set m.mem addr desired;
        publish_write m ~writer:t.tid line
      end
  | Some txn ->
      if txn_hazards m t txn then ()
      else begin
        (if m.obs_active then begin
           observe m t (Sev.Txn_line_read line);
           if success then observe m t (Sev.Txn_line_write line)
         end);
        doom_writer_of m ~attacker:t.tid line;
        let g = granule m line in
        if success then begin
          doom_readers_of m ~attacker:t.tid line;
          if Line_table.writer m.lt g <> t.tid then begin
            Txn.note_write txn g;
            if Txn.written txn > ws_capacity m t then
              abort_txn m t Abort.Capacity_write
            else begin
              Line_table.set_writer m.lt g t.tid;
              if not (Line_table.is_reader m.lt g t.tid) then begin
                Txn.note_read txn g;
                Line_table.add_reader m.lt g t.tid
              end;
              Txn.buffer_write txn addr desired
            end
          end
          else begin
            if not (Line_table.is_reader m.lt g t.tid) then begin
              Txn.note_read txn g;
              Line_table.add_reader m.lt g t.tid
            end;
            Txn.buffer_write txn addr desired
          end
        end
        else if not (Line_table.is_reader m.lt g t.tid) then begin
          Txn.note_read txn g;
          if Txn.reads txn > rs_capacity m t then
            abort_txn m t Abort.Capacity_read
          else Line_table.add_reader m.lt g t.tid
        end
      end);
  (* Preemption while holding a lock: a successful non-transactional
     acquisition of a Lock-kind word can be followed by an injected stall,
     so every other thread sees the lock held for that much longer.  This
     is the trigger for the fallback-holder lemming storm.  (Inert, and
     skipped, without an installed injector.) *)
  (* Tag the exploration point: a successful plain CAS is where lock
     handoffs and version bumps become visible, so targeted policies
     preempt right after it. *)
  (if m.exp_active && success && t.txn = None then
     m.exp_point <-
       (if desired <> 0 && Lmap.kind_of_line m.map line = Lmap.Lock then
          Explore.Lock_acquire
        else Explore.Atomic_rmw));
  (if m.inj_active && success && desired <> 0 && t.txn = None
      && Lmap.kind_of_line m.map line = Lmap.Lock
   then
     let stall = m.inject.inj_lock_stall ~tid:t.tid ~clock:t.clock in
     if stall > 0 then begin
       if m.obs_active then
         observe m t
           (Sev.Injected (Printf.sprintf "lock-holder-stall:+%d" stall));
       t.clock <- t.clock + stall
     end);
  success

let process_faa m (t : tstate) addr delta =
  let old = current_value m t addr in
  let (_ : bool) = process_cas m t addr old (old + delta) in
  old

let process_xbegin m (t : tstate) =
  t.cnt.accesses <- t.cnt.accesses + 1;
  (match t.txn with
  | Some _ -> failwith "Machine: nested transactions are not supported"
  | None -> ());
  charge m t m.c_xbegin;
  if m.exp_active then m.exp_point <- Explore.Xbegin;
  if m.obs_active then observe m t Sev.Txn_begin;
  Txn.reset t.arena ~start_clock:t.clock;
  t.txn <- Some t.arena

let process_xend m (t : tstate) =
  t.cnt.accesses <- t.cnt.accesses + 1;
  match t.txn with
  | None -> failwith "Machine: xend outside a transaction"
  | Some txn ->
      charge m t m.c_xend;
      if m.exp_active then m.exp_point <- Explore.Xcommit;
      (* Eager conflict detection guarantees exclusive ownership of the
         write set here, so commit always succeeds. *)
      Txn.iter_writes txn (fun addr value ->
          Mem.set m.mem addr value;
          publish_write m ~writer:t.tid (Mem.line_of_addr addr));
      List.iter
        (fun (kind, addr, words) ->
          if m.obs_active then observe m t (Sev.Free_done { addr; words });
          Al.free m.alloc ~kind ~addr ~words)
        (Txn.frees txn);
      release_txn m t txn;
      t.cnt.commits <- t.cnt.commits + 1;
      t.cnt.committed_cycles <-
        t.cnt.committed_cycles + (t.clock - Txn.start_clock txn);
      if m.obs_active then
        observe m t
          (Sev.Txn_commit { reads = Txn.reads txn; writes = Txn.written txn });
      t.txn <- None

let process_alloc m (t : tstate) kind words =
  t.cnt.accesses <- t.cnt.accesses + 1;
  charge m t m.c_miss;
  if
    m.inj_active
    && m.inject.inj_alloc_fail ~tid:t.tid ~clock:t.clock
         ~in_txn:(t.txn <> None)
  then begin
    (* The allocator's fast path is exhausted: inside a transaction the
       slow path (page fault / syscall) always aborts, like real RTM;
       outside, the failure surfaces as an exception the caller must
       handle. *)
    if m.obs_active then observe m t (Sev.Injected "alloc-pressure");
    (match t.txn with
    | Some _ -> abort_txn m t Abort.Alloc_fault
    | None -> t.pending_exn <- Some Al.Alloc_failure);
    0
  end
  else begin
    let addr = Al.alloc m.alloc ~kind ~words in
    (match t.txn with
    | Some txn -> Txn.record_alloc txn kind addr words
    | None -> ());
    if m.obs_active then observe m t (Sev.Alloc_done { addr; words });
    addr
  end

let process_reclassify m (t : tstate) from_kind to_kind words =
  Al.reclassify m.alloc ~from_kind ~to_kind ~words;
  match t.txn with
  | Some txn -> Txn.record_reclassify txn from_kind to_kind words
  | None -> ()

let process_free m (t : tstate) kind addr words =
  t.cnt.accesses <- t.cnt.accesses + 1;
  charge m t m.c_hit;
  match t.txn with
  | Some txn -> Txn.record_free txn kind addr words
  | None ->
      if m.obs_active then observe m t (Sev.Free_done { addr; words });
      Al.free m.alloc ~kind ~addr ~words

(* ---------- aggregated counters ---------- *)

let aggregate m =
  let acc =
    {
      s_ops = 0;
      s_commits = 0;
      s_aborts = Array.make Abort.n_classes 0;
      s_conflict_kinds = Array.make Al.nkinds 0;
      s_wasted_cycles = 0;
      s_committed_cycles = 0;
      s_accesses = 0;
      s_user = Array.make n_user_counters 0;
      s_clock = 0;
    }
  in
  Array.fold_left
    (fun acc t ->
      Array.iteri (fun i v -> acc.s_aborts.(i) <- acc.s_aborts.(i) + v) t.cnt.aborts;
      Array.iteri
        (fun i v -> acc.s_conflict_kinds.(i) <- acc.s_conflict_kinds.(i) + v)
        t.cnt.conflict_kinds;
      Array.iteri (fun i v -> acc.s_user.(i) <- acc.s_user.(i) + v) t.cnt.user;
      {
        acc with
        s_ops = acc.s_ops + t.cnt.ops;
        s_commits = acc.s_commits + t.cnt.commits;
        s_wasted_cycles = acc.s_wasted_cycles + t.cnt.wasted_cycles;
        s_committed_cycles = acc.s_committed_cycles + t.cnt.committed_cycles;
        s_accesses = acc.s_accesses + t.cnt.accesses;
        s_clock = max acc.s_clock t.clock;
      })
    acc m.threads

(* Periodic counter sampling: the scheduler always resumes the thread with
   the smallest clock, so when that minimum crosses a window boundary every
   thread has already run past it — the cumulative aggregate at that moment
   is the machine state "at" the boundary.  Consumers diff consecutive
   samples to get per-window rates (see Euno_harness.Report). *)
let sample_boundaries m clock =
  while clock >= m.next_sample do
    m.samples <- (m.next_sample, aggregate m) :: m.samples;
    m.next_sample <- m.next_sample + m.sample_window
  done

let samples m = List.rev m.samples

(* ---------- interpreting Api calls ----------

   An Api call does not perform an effect per instruction: it finds this
   domain's running machine here and interprets the call in place, on the
   thread being resumed.  Afterwards the thread keeps running only when
   [step]'s run-ahead would have resumed it at once with no pre-step
   action; otherwise it performs one [Eff.Yield] and the scheduler takes
   over.  An installed injector or explorer consults its hooks between
   instructions, so then every call yields. *)

let running : t option Domain_ref.t = Domain_ref.create (fun () -> None)

let current () = Domain_ref.get running

(* Outside any run there is no machine to interpret the call: fail the
   way an unhandled effect does. *)
let[@inline] machine () =
  match Domain_ref.get running with
  | Some m -> m
  | None -> raise (Effect.Unhandled Eff.Yield)

(* [step]'s run-ahead test after an interpreted call, with every pre-step
   action ruled out: no injector or explorer hook to consult, no doom or
   exception to deliver, no crash, no sample boundary crossed
   ([next_sample] is max_int while sampling is off), and the thread still
   the unique (clock, tid) minimum. *)
let[@inline] runs_ahead m (t : tstate) =
  (not m.inj_active)
  && (not m.exp_active)
  && Option.is_none t.doom
  && Option.is_none t.pending_exn
  && t.clock < m.crash_at
  && t.clock < m.next_sample
  && (Sched.is_empty m.sched
     || Sched.pack ~clock:t.clock ~tid:t.tid < Sched.peek m.sched)

let[@inline] proceed m t v =
  if not (runs_ahead m t) then Effect.perform Eff.Yield;
  v

(* Every call checks [runs_ahead], even one that charges nothing: after an
   interpretation error the thread runs on without a scheduler turn, so
   the invariant that it is still the minimum can lapse until its next
   call. *)
module Direct = struct
  let[@inline] thread m = m.threads.(m.current)

  let read addr =
    let m = machine () in
    let t = thread m in
    proceed m t (process_read m t addr)

  let write addr v =
    let m = machine () in
    let t = thread m in
    proceed m t (process_write m t addr v)

  let cas addr ~expected ~desired =
    let m = machine () in
    let t = thread m in
    proceed m t (process_cas m t addr expected desired)

  let faa addr delta =
    let m = machine () in
    let t = thread m in
    proceed m t (process_faa m t addr delta)

  let work c =
    let m = machine () in
    let t = thread m in
    proceed m t (charge m t (max 0 c))

  let xbegin () =
    let m = machine () in
    let t = thread m in
    proceed m t (process_xbegin m t)

  let xend () =
    let m = machine () in
    let t = thread m in
    proceed m t (process_xend m t)

  let xabort code =
    let m = machine () in
    let t = thread m in
    if m.exp_active then m.exp_point <- Explore.Xabort;
    proceed m t (abort_txn m t (Abort.Explicit code))

  let xtest () =
    let m = machine () in
    let t = thread m in
    proceed m t (t.txn <> None)

  let tid () =
    let m = machine () in
    let t = thread m in
    proceed m t t.tid

  let clock () =
    let m = machine () in
    let t = thread m in
    proceed m t t.clock

  let rand n =
    let m = machine () in
    let t = thread m in
    proceed m t (Rng.int t.rng n)

  let alloc ~kind ~words =
    let m = machine () in
    let t = thread m in
    proceed m t (process_alloc m t kind words)

  let free ~kind ~addr ~words =
    let m = machine () in
    let t = thread m in
    proceed m t (process_free m t kind addr words)

  let reclassify ~from_kind ~to_kind ~words =
    let m = machine () in
    let t = thread m in
    proceed m t (process_reclassify m t from_kind to_kind words)

  let op_key key =
    let m = machine () in
    let t = thread m in
    t.op_key <- key;
    proceed m t ()

  let op_done () =
    let m = machine () in
    let t = thread m in
    t.cnt.ops <- t.cnt.ops + 1;
    if m.obs_active then observe m t (Sev.Op_exit t.op_key);
    t.op_key <- -1;
    proceed m t ()

  let count i d =
    let m = machine () in
    let t = thread m in
    t.cnt.user.(i) <- t.cnt.user.(i) + d;
    proceed m t ()

  let untracked_read addr =
    let m = machine () in
    let t = thread m in
    charge m t 1;
    if m.obs_active then observe m t (Sev.Unsafe_read addr);
    proceed m t (Mem.get m.mem addr)

  let untracked_write addr v =
    let m = machine () in
    let t = thread m in
    charge m t 1;
    if m.obs_active then observe m t (Sev.Unsafe_write addr);
    proceed m t (Mem.set m.mem addr v)

  (* Double-gated on Sev.armed: callers test it before building the note
     (so disabled runs allocate nothing), and the re-check here keeps a
     stray ungated call harmless. *)
  let san_note note =
    if Sev.armed () then begin
      let m = machine () in
      let t = thread m in
      if m.obs_active then observe m t (Sev.Note note);
      proceed m t ()
    end
end

(* ---------- scheduler ---------- *)

let schedule m bodies =
  let handler (t : tstate) : (unit, unit) Effect.Deep.handler =
    (* allocated once per thread: a yield only parks the continuation *)
    let yield = Some (fun k -> t.status <- Ready k) in
    {
      retc =
        (fun () ->
          if m.obs_active then
            observe m t (Sev.Thread_exit { failed = false; aborted = false });
          t.status <- Done);
      exnc =
        (fun e ->
          (match t.txn with
          | Some txn ->
              release_txn m t txn;
              rollback_allocs m txn;
              t.txn <- None
          | None -> ());
          if m.obs_active then
            observe m t
              (Sev.Thread_exit
                 {
                   failed = true;
                   aborted =
                     (match e with Eff.Txn_abort _ -> true | _ -> false);
                 });
          t.status <- Failed e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with Eff.Yield -> yield | _ -> None);
    }
  in
  Array.iter
    (fun t ->
      t.status <- Start (fun () -> bodies t.tid);
      t.clock <- 0;
      t.doom <- None;
      t.pending_exn <- None;
      t.txn <- None)
    m.threads;
  (* The run queue holds one entry per runnable thread, keyed by the clock
     it was parked at.  A parked thread's clock can still advance (an
     attacker charging it the abort penalty), so entries are validated on
     pop and re-pushed at the thread's current clock when stale — clocks
     only grow, so a stale (under-estimating) key can never hide the true
     minimum.  Pop order equals the old O(n)-scan order exactly: smallest
     clock first, ties to the smallest tid (see Sched). *)
  Sched.clear m.sched;
  Array.iter (fun t -> Sched.push m.sched ~clock:0 ~tid:t.tid) m.threads;
  (* Resume thread [t] exactly once: it runs until it yields (or
     finishes).  Shared by the heap loop and the exploration loop. *)
  let resume_once t =
    m.current <- t.tid;
    match t.status with
    | Start f ->
        t.status <- Running;
        Effect.Deep.match_with f () (handler t)
    | Ready k -> (
        t.status <- Running;
        match t.doom with
        | Some code ->
            t.doom <- None;
            (* The first call after a delivered abort is where the
               retry/fallback path begins — a prime preemption target. *)
            if m.exp_active then m.exp_point <- Explore.Xabort;
            Effect.Deep.discontinue k (Eff.Txn_abort code)
        | None -> (
            match t.pending_exn with
            | Some e ->
                t.pending_exn <- None;
                Effect.Deep.discontinue k e
            | None -> Effect.Deep.continue k ()))
    | Running | Done | Failed _ -> assert false
  in
  (* Pre-step, run by both loops before every step of thread [t], whether
     it came off the heap, straight from run-ahead or from the exploration
     pick: the crash, sampling and injected preemption.  In the heap loop
     [t] is the (clock, tid) minimum, so the crash fires exactly when the
     global minimum clock crosses [crash_at]; the exploration loop runs the
     same checks on its pick.  Injected preemption means the OS
     descheduled [t] until [resume_at]: a live transaction dies (context
     switches abort RTM transactions) and the clock jumps, and the caller
     re-picks, so other threads run right past the stalled one. *)
  let preempted t =
    if t.clock >= m.crash_at then crash m ~at_cycle:t.clock;
    if m.sample_window > 0 then sample_boundaries m t.clock;
    let resume_at =
      if m.inj_active then m.inject.inj_preempt ~tid:t.tid ~clock:t.clock
      else 0
    in
    if resume_at <= t.clock then false
    else begin
      if m.obs_active then
        observe m t (Sev.Injected (Printf.sprintf "preempt:until=%d" resume_at));
      abort_txn m t Abort.Spurious;
      (* The abort penalty can carry the clock past [resume_at]. *)
      t.clock <- max t.clock resume_at;
      true
    end
  in
  (* Every scheduler turn is one [Sched.exchange]: the thread that stops
     (yielded, preempted, or found stale) is re-queued at its current clock
     and the minimum comes back in the same sift.  A thread whose key is
     below every entry comes straight back with no heap traffic: that is
     run-ahead, which collapses the single-threaded case (tree preloads,
     run_single, the micro-benches) to straight-line execution.  The test
     is exact: the thread is not in the heap, tids differ, and a stale
     entry only under-estimates its thread's key, so a key below the root
     is the unique (clock, tid) minimum, the thread a pop would pick. *)
  let rec loop () =
    if not (Sched.is_empty m.sched) then pick (Sched.pop m.sched)
  and requeue t =
    pick (Sched.exchange m.sched (Sched.pack ~clock:t.clock ~tid:t.tid))
  and pick packed =
    let t = m.threads.(Sched.tid_of packed) in
    (match t.status with
    | Running | Done | Failed _ -> assert false
    | Start _ | Ready _ -> ());
    (* Stale entry: the thread was charged while parked. *)
    if t.clock <> Sched.clock_of packed then requeue t else dispatch t
  and dispatch t = if preempted t then requeue t else step t
  and step t =
    resume_once t;
    match t.status with
    | Start _ | Ready _ -> requeue t
    | Done | Failed _ -> loop ()
    | Running -> assert false
  in
  (* Exploration: each turn the policy picks from the runnable tids in
     (clock, tid) order, sorted here rather than taken from the heap so the
     min-clock parity tests check one pick against the other.  [last] is
     the thread that just stepped and is still runnable, else -1.  The
     pick's clock is bumped to [now], the start clock of the last effect:
     histories order events by clock, so no thread may run "in the past"
     of recorded effects.  Under min-clock the bump is a no-op. *)
  let explore_loop () =
    let runnable i =
      match m.threads.(i).status with Start _ | Ready _ -> true | _ -> false
    in
    let by_clock a b =
      match Int.compare m.threads.(a).clock m.threads.(b).clock with
      | 0 -> Int.compare a b
      | c -> c
    in
    let tids = List.init (Array.length m.threads) Fun.id in
    let rec turn ~now ~last =
      match List.sort by_clock (List.filter runnable tids) with
      | [] -> ()
      | ready ->
          let c = m.explore ~last ~point:m.exp_point ready in
          if not (List.exists (Int.equal c) ready) then
            invalid_arg (Printf.sprintf "Machine.run: explorer chose tid %d" c);
          let t = m.threads.(c) in
          t.clock <- Int.max now t.clock;
          let now = t.clock in
          if preempted t then turn ~now ~last:(-1)
          else begin
            m.exp_point <- Explore.Step;
            resume_once t;
            turn ~now ~last:(if runnable c then c else -1)
          end
    in
    turn ~now:0 ~last:(-1)
  in
  if m.exp_active then explore_loop () else loop ();
  (* Close the series with a final partial-window sample so the tail of the
     run is never silently dropped. *)
  if m.sample_window > 0 then begin
    let now = Array.fold_left (fun acc t -> max acc t.clock) 0 m.threads in
    match m.samples with
    | (c, _) :: _ when c >= now -> ()
    | _ -> m.samples <- (now, aggregate m) :: m.samples
  end;
  Array.iter
    (fun t -> match t.status with Failed e -> raise e | _ -> ())
    m.threads

let run m bodies =
  let outer = current () in
  Domain_ref.set running (Some m);
  match schedule m bodies with
  | () -> Domain_ref.set running outer
  | exception e ->
      Domain_ref.set running outer;
      raise e

(* ---------- results ---------- *)

let snapshot_thread m tid =
  let t = m.threads.(tid) in
  {
    s_ops = t.cnt.ops;
    s_commits = t.cnt.commits;
    s_aborts = Array.copy t.cnt.aborts;
    s_conflict_kinds = Array.copy t.cnt.conflict_kinds;
    s_wasted_cycles = t.cnt.wasted_cycles;
    s_committed_cycles = t.cnt.committed_cycles;
    s_accesses = t.cnt.accesses;
    s_user = Array.copy t.cnt.user;
    s_clock = t.clock;
  }

let elapsed m = Array.fold_left (fun acc t -> max acc t.clock) 0 m.threads

let total_aborts s = Array.fold_left ( + ) 0 s.s_aborts

(* Run a single-threaded computation to completion and return its result.
   Used for tree preloading and unit tests. *)
let run_single ?(seed = 1) ?(cost = Cost.unit_costs) ~mem ~map ~alloc f =
  let m = create ~threads:1 ~seed ~cost ~mem ~map ~alloc in
  let result = ref None in
  run m (fun _ -> result := Some (f ()));
  match !result with
  | Some v -> v
  | None -> assert false
