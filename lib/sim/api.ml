(* Instruction set of a simulated thread.  All code that runs "on" the
   machine (trees, locks, workloads) is written against this module.

   Each call is interpreted in place by this domain's running machine
   (Machine.Direct); outside any run it raises Effect.Unhandled. *)

include Machine.Direct
