(* The one effect a simulated hardware thread performs.

   Tree and benchmark code never touches host state directly: every memory
   access, atomic instruction and RTM primitive goes through Api, and the
   Machine interprets it in place on the running thread, charges cycles
   for it, and checks it for conflicts.  When the scheduler must get a
   turn, the thread performs Yield and parks.  This is what makes thread
   interleaving, HTM aborts and clock accounting fully deterministic. *)
type _ Effect.t +=
  | Yield : unit Effect.t
    (* hand the scheduler a turn after an in-place interpretation; the
       Api call's result is already computed *)

exception Txn_abort of Abort.code
(* Delivered into a transaction body when the hardware aborts it.  User code
   must not catch it except via Htm wrappers, which retry or fall back. *)

let null = 0 (* the null simulated pointer *)
