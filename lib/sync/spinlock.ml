(* Test-and-test-and-set spinlock on one simulated word with exponential
   backoff.  The word lives on its own cache line (the allocator
   line-aligns), so lock traffic never false-shares with data.

   Ownership discipline: the locked value is the holder's tid + 1, so an
   erroneous release of an unheld lock — or of a lock some other thread
   holds — is detected instead of silently corrupting mutual exclusion.
   Elision subscribers only care that the word is non-zero, so the stamp
   is invisible to the HTM fast path. *)

module Api = Euno_sim.Api
module Sev = Euno_sim.Sev

let unlocked = 0

exception Not_owner of { lock : int; tid : int; holder : int }

(* The locked value identifies the holder. *)
let stamp () = Api.tid () + 1

(* Allocate a fresh lock word (entire line, kind Lock). *)
let alloc () =
  Api.alloc ~kind:Euno_mem.Linemap.Lock ~words:Euno_mem.Memory.line_words

let try_acquire addr =
  let ok =
    Api.read addr = unlocked
    && Api.cas addr ~expected:unlocked ~desired:(stamp ())
  in
  if ok && Sev.armed () then Api.san_note (Sev.Acquire (Sev.Spin, addr));
  ok

(* Both acquires try once before building any backoff state, so an
   uncontended acquire allocates nothing ([Backoff.create] makes no [Api]
   call, so the simulated call stream is the same either way). *)
let acquire addr =
  if not (try_acquire addr) then begin
    let b = Backoff.create () in
    Backoff.once b;
    while not (try_acquire addr) do
      Backoff.once b
    done
  end

(* Bounded acquisition: gives up after ~[max_cycles] of spinning so a
   leaked or stalled lock cannot hang the caller forever. *)
let acquire_bounded ~max_cycles addr =
  let t0 = Api.clock () in
  if try_acquire addr then true
  else begin
    let b = Backoff.create () in
    let rec loop () =
      if Api.clock () - t0 >= max_cycles then false
      else begin
        Backoff.once b;
        try_acquire addr || loop ()
      end
    in
    loop ()
  end

let holder addr =
  let v = Api.read addr in
  if v = unlocked then -1 else v - 1

let release addr =
  let v = Api.read addr in
  let me = stamp () in
  if v <> me then
    raise (Not_owner { lock = addr; tid = me - 1; holder = v - 1 });
  (* Announce before the unlocking write: once the word goes free the next
     acquirer's note may enter the event stream ahead of ours, and the
     sanitizer would miss the release->acquire edge.  The write itself is
     on a Lock line the race checker never examines. *)
  if Sev.armed () then Api.san_note (Sev.Release (Sev.Spin, addr));
  Api.write addr unlocked

let is_locked addr = Api.read addr <> unlocked

let with_lock addr f =
  acquire addr;
  match f () with
  | v ->
      release addr;
      v
  | exception e ->
      release addr;
      raise e
