(* Recovery checker: the host-side oracle that decides whether a
   crash-restart-replay cycle actually recovered.

   The contract it validates: the recovered tree must equal the pre-crash
   COMMITTED prefix — every acknowledged op's effect present (modulo later
   acknowledged ops on the same key), nothing present that no acknowledged
   op ever wrote — and the recovery itself must have been effective (no
   operation wedged on an abandoned lock) and bounded (work linear in
   state size + replayed suffix, not in pre-crash history).

   Losing ops beyond the declared fsync horizon is NOT a finding by
   itself: the driver re-runs the lost suffix (the workload generator
   re-issues unacknowledged-durable ops), so the expected state already
   accounts for it.  What the horizon does bound is checked structurally
   by Oplog; what this checker sees is only the end state. *)


type kind =
  | Phantom (* recovered state contains an effect no acked op justifies *)
  | Lost_ack (* an acknowledged op's effect is missing *)
  | Ineffective_recovery (* recovery ops wedged (abandoned lock survived) *)
  | Unbounded_recovery (* recovery work exceeded its linear bound *)

let kind_name = function
  | Phantom -> "phantom"
  | Lost_ack -> "lost_ack"
  | Ineffective_recovery -> "ineffective_recovery"
  | Unbounded_recovery -> "unbounded_recovery"

type finding = { f_kind : kind; f_detail : string }

type stats = {
  stuck_ops : int; (* recovery ops that raised Stuck_fallback *)
  recovery_cycles : int;
  work_bound : int; (* linear allowance computed by the driver *)
}

(* Classify one diverging key.  [ever_acked key value] answers whether any
   acknowledged put (or the preload) ever wrote [value] to [key]: a
   recovered value nobody ever acked is a phantom (torn snapshot, effect
   of an op that died unacknowledged); a recovered value that WAS acked
   but is not the latest — or a missing/stale record — is a lost ack. *)
let classify ~ever_acked key ~expected ~got =
  match (expected, got) with
  | None, Some v when not (ever_acked key v) ->
      { f_kind = Phantom;
        f_detail =
          Printf.sprintf "key %d: recovered value %d was never acknowledged"
            key v }
  | Some e, Some v when not (ever_acked key v) ->
      { f_kind = Phantom;
        f_detail =
          Printf.sprintf
            "key %d: recovered value %d was never acknowledged (expected %d)"
            key v e }
  | None, Some v ->
      { f_kind = Lost_ack;
        f_detail =
          Printf.sprintf
            "key %d: acknowledged delete lost (stale value %d resurfaced)"
            key v }
  | Some e, None ->
      { f_kind = Lost_ack;
        f_detail =
          Printf.sprintf "key %d: acknowledged value %d missing" key e }
  | Some e, Some v ->
      { f_kind = Lost_ack;
        f_detail =
          Printf.sprintf
            "key %d: stale acknowledged value %d resurfaced (expected %d)"
            key v e }
  | None, None -> assert false

let check ~expected ~recovered ~ever_acked ~stats =
  let divergences = ref [] in
  let recovered_tbl = Hashtbl.create (List.length recovered * 2) in
  List.iter (fun (k, v) -> Hashtbl.replace recovered_tbl k v) recovered;
  (* Keys the committed prefix expects, in ascending order for
     deterministic finding order. *)
  let expected_keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) expected [] |> List.sort compare
  in
  List.iter
    (fun k ->
      let e = Hashtbl.find_opt expected k in
      let got = Hashtbl.find_opt recovered_tbl k in
      if e <> got then
        divergences := classify ~ever_acked k ~expected:e ~got :: !divergences)
    expected_keys;
  (* Keys recovered but never expected (ascending, skipping those already
     classified above — by construction these have expected = None). *)
  List.iter
    (fun (k, v) ->
      if not (Hashtbl.mem expected k) then
        divergences :=
          classify ~ever_acked k ~expected:None ~got:(Some v) :: !divergences)
    (List.sort compare recovered);
  let findings = List.rev !divergences in
  let findings =
    if stats.stuck_ops > 0 then
      findings
      @ [
          { f_kind = Ineffective_recovery;
            f_detail =
              Printf.sprintf
                "%d recovery operation(s) wedged on an abandoned lock"
                stats.stuck_ops };
        ]
    else findings
  in
  if stats.recovery_cycles > stats.work_bound then
    findings
    @ [
        { f_kind = Unbounded_recovery;
          f_detail =
            Printf.sprintf "recovery took %d cycles, bound was %d"
              stats.recovery_cycles stats.work_bound };
      ]
  else findings

let clean findings = findings = []

let has_kind kind findings = List.exists (fun f -> f.f_kind = kind) findings
