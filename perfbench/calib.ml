(* Host-speed calibration.  A shared host's speed drifts by tens of
   percent over minutes as other tenants load the machine, which would
   swamp any real change in the benchmark's host timings.  So the
   benchmark times two fixed kernels between rounds, kernels written here
   and independent of the repository's code, and reports host times
   normalised to a host on which one calibration sample takes [nominal]
   seconds.

   The kernels cover what the simulator's host cost is made of: a
   dependent pointer chase over a 4 MiB table with short-lived allocation
   (cache misses, minor GC), and a branchy integer loop over an L1-resident
   table (the shared-core contention a latency-bound chase barely feels).
   A sample is the geometric mean of their times. *)

let nominal = 0.016

(* One random cycle through every slot (Sattolo's algorithm), from a fixed
   seed, so the chase has no locality a prefetcher can use. *)
let table =
  lazy
    (let size = 1 lsl 19 in
     let a = Array.init size Fun.id in
     let st = ref 0x2545F491 in
     for i = size - 1 downto 1 do
       st := ((!st * 0x5DEECE66D) + 11) land 0xFFFFFFFFFFFF;
       let j = (!st lsr 16) mod i in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     a)

let chase () =
  let a = Lazy.force table in
  let j = ref 0 and s = ref 0 and live = ref [] in
  for k = 1 to 200_000 do
    j := a.(!j);
    s := !s + (!j land 255);
    if k land 3 = 0 then live := (!j, k) :: (if k land 1023 = 0 then [] else !live)
  done;
  !s + List.length !live

let compute () =
  let small = Array.init 4096 (fun i -> i * 2654435761 land 0xFFFF) in
  let s = ref 0 and x = ref 12345 in
  for k = 1 to 1_500_000 do
    x := ((!x * 0x5DEECE66D) + k) land 0xFFFFFFFF;
    let v = small.(!x land 4095) in
    if v land 1 = 0 then s := !s + v else s := !s lxor (v lsl 1);
    if v land 6 = 2 then small.(k land 4095) <- !s land 0xFFFF
  done;
  !s

let time f =
  let t0 = Span.now () in
  ignore (Sys.opaque_identity (f ()));
  Span.now () -. t0

(* One calibration sample, in seconds. *)
let sample () =
  ignore (Lazy.force table);
  sqrt (time chase *. time compute)
