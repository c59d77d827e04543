(* Quickstart: build an Euno-B+Tree on the simulated machine, run a few
   operations single-threaded, and read the machine counters.

     dune exec examples/quickstart.exe
*)

module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module Alloc = Euno_mem.Alloc
module Machine = Euno_sim.Machine
module Euno = Eunomia.Euno_tree
module Config = Eunomia.Config

let () =
  (* Every simulated world is three pieces: word memory, a line-kind map,
     and an allocator over them. *)
  let mem = Memory.create () in
  let map = Linemap.create () in
  let alloc = Alloc.create mem map in
  (* Tree code issues Api calls, so it must run on a machine.  run_single
     is the one-thread convenience wrapper. *)
  Machine.run_single ~mem ~map ~alloc (fun () ->
      let tree = Euno.create ~cfg:Config.default ~map () in
      (* Store a few keys. *)
      for k = 1 to 100 do
        Euno.put tree k (k * k)
      done;
      (* Point lookups. *)
      Printf.printf "get 7      = %s\n"
        (match Euno.get tree 7 with
        | Some v -> string_of_int v
        | None -> "None");
      Printf.printf "get 12345  = %s\n"
        (match Euno.get tree 12345 with
        | Some v -> string_of_int v
        | None -> "None");
      (* Updates overwrite in place. *)
      Euno.put tree 7 999;
      Printf.printf "updated 7  = %s\n"
        (match Euno.get tree 7 with
        | Some v -> string_of_int v
        | None -> "None");
      (* Ordered range query. *)
      let range = Euno.scan tree ~from:40 ~count:5 in
      Printf.printf "scan 40..  = %s\n"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%d->%d" k v) range));
      (* Deletion. *)
      ignore (Euno.delete tree 50);
      Printf.printf "deleted 50 = %b (gone: %b)\n"
        true
        (Euno.get tree 50 = None);
      Printf.printf "tree size  = %d\n" (Euno.size tree);
      (* The structural validator is cheap insurance in examples. *)
      Euno.check_invariants tree;
      print_endline "invariants hold");
  Printf.printf "simulated memory in use: %d bytes\n" (Alloc.live_bytes alloc)
