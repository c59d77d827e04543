(** Recovery checker: host-side oracle for crash-restart-replay runs.

    Validates that the recovered tree equals the pre-crash committed
    prefix — no phantom effects, no lost acknowledged ops — and that the
    recovery itself was effective (nothing wedged on an abandoned lock)
    and bounded (work linear in state size + replayed suffix).

    {b Complexity:} O((|expected| + |recovered|) log n) — two sorted
    sweeps over host-side state.

    {b Determinism:} pure; findings come out in ascending-key order
    followed by the two aggregate checks. *)

type kind =
  | Phantom
      (** recovered state contains an effect no acknowledged op justifies
          (torn snapshot, resurrected in-flight write) *)
  | Lost_ack  (** an acknowledged op's effect is missing or stale *)
  | Ineffective_recovery
      (** recovery operations wedged — an abandoned fallback/advisory
          lock survived the restart *)
  | Unbounded_recovery
      (** recovery work exceeded its declared linear bound *)

val kind_name : kind -> string

type finding = { f_kind : kind; f_detail : string }

type stats = {
  stuck_ops : int;  (** recovery ops that raised a stuck-lock exception *)
  recovery_cycles : int;
  work_bound : int;  (** linear allowance computed by the driver *)
}

val check :
  expected:(int, int) Hashtbl.t ->
  recovered:(int * int) list ->
  ever_acked:(int -> int -> bool) ->
  stats:stats ->
  finding list
(** [expected] is the committed shadow at the moment every lost op has
    been re-run; [recovered] the post-recovery tree image;
    [ever_acked key value] whether any acknowledged put (or the preload)
    ever bound [key] to [value]. *)

val clean : finding list -> bool
val has_kind : kind -> finding list -> bool
