(* In-memory span recorder for the traced run.

   A span is opened around one call into a library layer.  Each span
   keeps its name, start, end, parent span and op id; the first [cap]
   spans are stored and written out at exit, and every span (stored or
   not) is folded into per-name aggregates as it closes: call count,
   total time and self time, where self time is the span's duration
   minus the time its child spans cover.  With the recorder off,
   [span] is a direct call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let on = ref false
let op = ref 0

(* Time spent in probe spans: calls the traced run makes only to time a
   layer on its own, which the op a user sees does not make. *)
let probe_ns = ref 0

(* interned names; at most [max_names] distinct ones *)
let max_names = 64
let names = Array.make max_names ""
let n_names = ref 0

let name s =
  let rec find i = if i >= !n_names then None else if names.(i) = s then Some i else find (i + 1) in
  match find 0 with
  | Some i -> i
  | None ->
      if !n_names >= max_names then invalid_arg "Trace.name: too many span names";
      names.(!n_names) <- s;
      incr n_names;
      !n_names - 1

let calls = Array.make max_names 0
let total_ns = Array.make max_names 0
let self_ns = Array.make max_names 0

(* the open spans *)
let max_depth = 64
let st_name = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_slot = Array.make max_depth (-1)
let depth = ref 0

(* stored spans *)
let cap = 100_000
let sp_name = Array.make cap 0
let sp_start = Array.make cap 0
let sp_stop = Array.make cap 0
let sp_parent = Array.make cap (-1)
let sp_op = Array.make cap 0
let stored = ref 0
let opened = ref 0
let origin = ref 0

let reset () =
  Array.fill calls 0 max_names 0;
  Array.fill total_ns 0 max_names 0;
  Array.fill self_ns 0 max_names 0;
  depth := 0;
  probe_ns := 0;
  stored := 0;
  opened := 0;
  origin := now_ns ()

let enter id =
  let d = !depth in
  if d >= max_depth then failwith "Trace: spans nested too deeply";
  let t = now_ns () in
  st_name.(d) <- id;
  st_start.(d) <- t;
  st_child.(d) <- 0;
  incr opened;
  if !stored < cap then begin
    let s = !stored in
    sp_name.(s) <- id;
    sp_start.(s) <- t;
    sp_parent.(s) <- (if d = 0 then -1 else st_slot.(d - 1));
    sp_op.(s) <- !op;
    st_slot.(d) <- s;
    incr stored
  end
  else st_slot.(d) <- -1;
  depth := d + 1

let leave () =
  let t = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let id = st_name.(d) in
  let dur = t - st_start.(d) in
  calls.(id) <- calls.(id) + 1;
  total_ns.(id) <- total_ns.(id) + dur;
  self_ns.(id) <- self_ns.(id) + dur - st_child.(d);
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  let s = st_slot.(d) in
  if s >= 0 then sp_stop.(s) <- t

let span id f =
  if not !on then f ()
  else begin
    enter id;
    match f () with
    | r ->
        leave ();
        r
    | exception e ->
        leave ();
        raise e
  end

(* A probe is timed whether or not the recorder is on, so that the
   traced run can leave it out of the op time in both of its halves. *)
let probe id f =
  let t0 = now_ns () in
  let r = span id f in
  probe_ns := !probe_ns + now_ns () - t0;
  r

let calls_of s = calls.(name s)
let total_ms s = float_of_int total_ns.(name s) /. 1e6
let self_ms s = float_of_int self_ns.(name s) /. 1e6

(* Mean duration of one call, in the given unit (1e3 = us, 1e6 = ms). *)
let mean s ~per_ns =
  let c = calls_of s in
  if c = 0 then 0. else float_of_int total_ns.(name s) /. float_of_int c /. per_ns

(* One JSON object per stored span. *)
let write path =
  let oc = open_out path in
  for s = 0 to !stored - 1 do
    Printf.fprintf oc "{\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}\n"
      names.(sp_name.(s))
      (sp_start.(s) - !origin)
      (sp_stop.(s) - !origin)
      sp_parent.(s) sp_op.(s)
  done;
  close_out oc
