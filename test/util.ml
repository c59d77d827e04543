(* Shared helpers for the test suites. *)

module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module Alloc = Euno_mem.Alloc
module Machine = Euno_sim.Machine
module Cost = Euno_sim.Cost
module Api = Euno_sim.Api

type world = {
  mem : Memory.t;
  map : Linemap.t;
  alloc : Alloc.t;
}

let fresh_world () =
  let mem = Memory.create () in
  let map = Linemap.create () in
  let alloc = Alloc.create mem map in
  { mem; map; alloc }

(* Run [body tid] on [threads] simulated threads and return the machine. *)
let run_threads ?(seed = 42) ?(cost = Cost.unit_costs) ?(threads = 2) w body =
  let m =
    Machine.create ~threads ~seed ~cost ~mem:w.mem ~map:w.map ~alloc:w.alloc
  in
  Machine.run m body;
  m

(* Inert, but not [Machine.no_injector]: installing it changes nothing
   simulated and makes every Api call yield to the scheduler. *)
let inert_injector =
  { Machine.no_injector with inj_skew = (fun ~tid:_ ~clock:_ -> 0) }

let run_one ?(seed = 42) ?(cost = Cost.unit_costs) w f =
  Machine.run_single ~seed ~cost ~mem:w.mem ~map:w.map ~alloc:w.alloc f

let scratch w ~words =
  Alloc.alloc w.alloc ~kind:Linemap.Scratch ~words

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then false
    else if String.sub haystack i n = needle then true
    else go (i + 1)
  in
  go 0

(* Run a structural checker on the machine: it must raise an invariant
   failure whose message contains [msg]. *)
let expect_invariant w ~msg check =
  run_one w (fun () ->
      match check () with
      | () -> Alcotest.failf "checker accepted a corrupted tree (wanted %S)" msg
      | exception Euno_bptree.Index.Invariant s ->
          if not (contains s msg) then
            Alcotest.failf "checker reported %S, wanted %S" s msg)
