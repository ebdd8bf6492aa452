(* Speed calibration.

   The host's speed drifts by up to a factor of two over minutes (other
   tenants share its cores), far more than any bound a gate could use,
   and it changes from one tenth of a second to the next.  So the run
   times a fixed calibration kernel every [every_ns], between ops and
   between the items of a set-up, and the reported times are scaled to
   a host on which the kernel takes [nominal_ms]:

     calibrated = measured * nominal_ms / kernel_ms around that stretch

   where the kernel time around a stretch is the mean of the points
   just before and just after it.  On the two-core host of the
   committed figures that left a spread of 0.04 in 50-op medians of
   5 ms ops whose raw spread was 0.16; the median of the points within
   a second, with a point every 200 ms, left 0.06.

   The kernel is benchmark code that builds and folds short lists, the
   kind of work the program under test spends most of its time on:
   allocation and pointer chasing through fresh memory.  On the
   two-core host of the committed figures its time tracked that of a
   chase, a decide and a parse much better than a loop over a
   cache-resident array did: over 50-second windows the spread of
   10-sample medians went from 0.11-0.13 raw to 0.03-0.06 with this
   kernel, against 0.09-0.13 with the array loop.  The minor heap is
   emptied before each kernel run and the kernel allocates less than
   it holds, so no collection runs inside the timed part: the program
   under test cannot change the kernel's time except through the host,
   and a slower program stays slower after calibration.  The raw times
   are reported beside the calibrated ones in the detail line. *)

let nominal_ms = 0.25
let every_ns = 100_000_000

(* 300 lists of 100 pairs, built and summed: 180 000 words, less than
   the 256k-word minor heap *)
let kernel () =
  let s = ref 0 in
  for i = 1 to 300 do
    let l = List.init 100 (fun k -> (k, i)) in
    s := !s + List.fold_left (fun a (x, y) -> a + x + y) 0 l
  done;
  !s

(* One calibration point: the fastest of five kernel runs, each on an
   empty minor heap, in ms. *)
let measure () =
  let best = ref max_float in
  for _ = 1 to 5 do
    Gc.minor ();
    let t0 = Trace.now_ns () in
    ignore (Sys.opaque_identity (kernel ()));
    best := Float.min !best (float_of_int (Trace.now_ns () - t0) /. 1e6)
  done;
  !best

(* calibration points in time order: start, end, kernel ms *)
let starts = ref (Array.make 1024 0)
let ends = ref (Array.make 1024 0)
let kernels = ref (Array.make 1024 0.)
let n = ref 0
let last = ref min_int

let grow a fill = Array.append a (Array.make (Array.length a) fill)

let point () =
  if !n = Array.length !starts then begin
    starts := grow !starts 0;
    ends := grow !ends 0;
    kernels := grow !kernels 0.
  end;
  let t0 = Trace.now_ns () in
  let k = measure () in
  let t1 = Trace.now_ns () in
  !starts.(!n) <- t0;
  !ends.(!n) <- t1;
  !kernels.(!n) <- k;
  incr n;
  last := t1

(* Take a point when [every_ns] have passed since the last one: between
   ops, and between the items of a long set-up. *)
let maybe_point () = if Trace.now_ns () - !last >= every_ns then point ()

(* the first point that starts at or after [t] *)
let first_from t =
  let lo = ref 0 and hi = ref !n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if !starts.(mid) < t then lo := mid + 1 else hi := mid
  done;
  !lo

(* the kernel time over the stretch between points [j - 1] and [j]: the
   mean of the two, or the one there is at either end of the record *)
let kernel_between j =
  if j = 0 then !kernels.(0)
  else if j >= !n then !kernels.(!n - 1)
  else (!kernels.(j - 1) +. !kernels.(j)) /. 2.

(* Time spent taking points between instants [t0] and [t1]. *)
let points_ns t0 t1 =
  let total = ref 0 and j = ref (first_from t0) in
  while !j < !n && !starts.(!j) < t1 do
    total := !total + !ends.(!j) - !starts.(!j);
    incr j
  done;
  !total

(* [calibrate t0 t1]: the time between instants [t0] and [t1], less the
   points taken in it, in ns at nominal speed.  Each stretch between two
   points is scaled by the kernel time of the points around it. *)
let calibrate t0 t1 =
  let acc = ref 0. and from = ref t0 and j = ref (first_from t0) in
  while !j < !n && !starts.(!j) < t1 do
    acc := !acc +. (float_of_int (!starts.(!j) - !from) *. nominal_ms /. kernel_between !j);
    from := !ends.(!j);
    incr j
  done;
  !acc +. (float_of_int (t1 - !from) *. nominal_ms /. kernel_between !j)

let kernel_ms_median () =
  let a = Array.sub !kernels 0 !n in
  Array.sort compare a;
  if !n mod 2 = 1 then a.(!n / 2) else (a.((!n / 2) - 1) +. a.(!n / 2)) /. 2.
