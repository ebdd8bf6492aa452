(* The closed-loop runner shared by every workload: timed set-up,
   warm-up, one client sending op after op for a fixed time, reference
   checks outside the timed region, and the traced run. *)

let now_ns = Trace.now_ns
let s_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  corrupt_reference : bool;
}

(* What the check of one op found. [kind] names the op's class (the
   decider method, or write/read/admin for serve). *)
type outcome = { ok : bool; conclusive : bool; kind : string }

(* A workload: ['st] is the set-up state, ['p] one prepared op, ['r]
   its answer.  [prepare] and [check] run outside the timed region;
   [run] is the op a user would see; [traced_run] is the same op with a
   span around each call into a library layer. *)
type ('st, 'p, 'r) t = {
  setup : unit -> 'st;
  warmup : int;
  (* a measured phase ends on a multiple of [cycle] ops, so that it runs
     every input of the pool equally often *)
  cycle : int;
  prepare : 'st -> int -> 'p;
  run : 'st -> 'p -> 'r;
  traced_run : 'st -> 'p -> 'r;
  check : 'st -> 'p -> 'r -> outcome;
  sizes : 'st -> (string * int) list;
  (* per-layer metrics from the traced phase: the Obs counters, the
     number of traced ops and the op classes seen *)
  layers : 'st -> Obs.Stats.t -> ops:int -> kinds:(string * int) list -> (string * float) list;
}

(* Every run sets up this many times and reports the median. *)
let setup_repeats = 9

(* Samples of one closed-loop phase. *)
type phase = {
  mutable starts : int list;  (* op start instants, ns, newest first *)
  mutable times : int list;  (* op durations, ns *)
  mutable kinds : string list;
  mutable n : int;
  mutable failed : int;
  mutable conclusive : int;
  mutable next : int;  (* index of the next op *)
}

let new_phase next = { starts = []; times = []; kinds = []; n = 0; failed = 0; conclusive = 0; next }

let failures = ref []

let note_failure i msg =
  if List.length !failures < 5 then failures := Printf.sprintf "op %d: %s" i msg :: !failures

(* Run ops until [seconds] of wall time have passed, at least [min_ops]
   ops ran, and the op count is a multiple of [cycle]. *)
let closed_loop ?(cycle = 1) w st ph ~run ~seconds ~min_ops =
  let stop = now_ns () + int_of_float (seconds *. 1e9) in
  while now_ns () < stop || ph.n < min_ops || ph.n mod cycle <> 0 do
    Calib.maybe_point ();
    let i = ph.next in
    let p = w.prepare st i in
    let t0 = now_ns () in
    let r = try Ok (run st p) with e -> Error e in
    let t1 = now_ns () in
    let o =
      match Result.map (w.check st p) r with
      | Ok o ->
          if not o.ok then note_failure i ("wrong answer (" ^ o.kind ^ ")");
          o
      | Error e | (exception e) ->
          note_failure i ("raised " ^ Printexc.to_string e);
          { ok = false; conclusive = false; kind = "error" }
    in
    if not o.ok then ph.failed <- ph.failed + 1;
    if o.conclusive then ph.conclusive <- ph.conclusive + 1;
    ph.starts <- t0 :: ph.starts;
    ph.times <- (t1 - t0) :: ph.times;
    ph.kinds <- o.kind :: ph.kinds;
    ph.n <- ph.n + 1;
    ph.next <- i + 1
  done;
  (* the last ops get a point after them too *)
  Calib.point ()

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let sorted_ms times = sorted (List.map ms_of_ns times)

(* op durations in ms at nominal host speed (see Calib) *)
let calibrated_ms ph =
  List.map2 (fun t0 dt -> Calib.calibrate t0 (t0 + dt) /. 1e6) ph.starts ph.times

(* Nearest-rank percentile, or [None] when fewer than ten samples lie
   beyond it. *)
let percentile a p =
  let n = Array.length a in
  let k = int_of_float (ceil (p *. float_of_int n)) in
  if n = 0 || float_of_int n *. (1. -. p) < 10. then None else Some a.(max 0 (k - 1))

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let count_kinds kinds =
  let h = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k))) kinds;
  List.sort compare (List.of_seq (Hashtbl.to_seq h))

(* The calibrated op durations of the ops of one class. *)
let ms_of_kind ph kind =
  List.fold_left2 (fun acc t k -> if k = kind then t :: acc else acc) [] (calibrated_ms ph) ph.kinds

let top_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* --- output ----------------------------------------------------------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("top_heap_mb", "MB");
    ("ops_per_s", "1/s");
    ("op_ms.p50", "ms");
    ("op_ms.p90", "ms");
    ("ok_ratio", "ratio");
    ("decided_ratio", "ratio");
  ]

(* Span names of the traced layers, in report order. *)
let layer_spans =
  [
    "op";
    "parser.parse";
    "store.load";
    "plan.iter_homs";
    "plan.head_satisfied";
    "trigger.result";
    "store.add";
    "plan.delta_homs";
    "pool.push";
    "store.snapshot";
    "json.decode";
    "protocol.decode";
    "server.dispatch";
    "json.encode";
    "incremental.assert";
    "incremental.chase";
    "incremental.rebuild";
    "query.answers";
    "classify";
    "wa";
    "ja";
    "sticky.decide";
    "guarded.decide";
  ]

let per_layer =
  [
    ("parser.parse_ms", "ms");
    ("parser.mb_per_s", "MB/s");
    ("store.load_ms", "ms");
    ("plan.iter_homs_ms", "ms");
    ("plan.probe.index", "count");
    ("plan.probe.scan", "count");
    ("plan.probe.empty", "count");
    ("plan.head_satisfied_ns", "ns");
    ("plan.memo_hit_ratio", "ratio");
    ("restricted.useful_ratio", "ratio");
    ("store.add_ns", "ns");
    ("store.dup_ratio", "ratio");
    ("store.snapshot_ms", "ms");
    ("incremental.assert_ms", "ms");
    ("incremental.chase_ms", "ms");
    ("incremental.rebuild_ms", "ms");
    ("plan.delta_seeds", "count");
    ("query.answers_ms", "ms");
    ("json.decode_us", "us");
    ("protocol.decode_us", "us");
    ("server.dispatch_us", "us");
    ("json.encode_us", "us");
    ("classify_ms", "ms");
    ("wa_ms", "ms");
    ("ja_ms", "ms");
    ("sticky.decide_ms", "ms");
    ("buchi.states", "count");
    ("buchi.transitions", "count");
    ("sticky.memo_hits", "count");
    ("guarded.decide_ms", "ms");
    ("guarded.candidates", "count");
    ("decided_by.sticky-buchi", "count");
    ("decided_by.guarded-search", "count");
    ("decided_by.weak-acyclicity", "count");
    ("trace.overhead_ms", "ms");
    ("trace.overhead_ratio", "ratio");
    ("trace.ops", "count");
    ("trace.spans", "count");
  ]
  @ List.concat_map (fun l -> [ (l ^ ".self_ms", "ms"); (l ^ ".calls", "count") ]) layer_spans

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_obj fields = "{" ^ String.concat ", " fields ^ "}"
let json_field k v = Printf.sprintf "%S: %s" k v

let metric_json (name, unit_) v =
  json_field name (json_obj [ json_field "value" (json_num v); json_field "unit" (Printf.sprintf "%S" unit_) ])

(* Print the closing result line; [values] must cover [names]. *)
let print_result ~correct ~attempted ~failed names values =
  let metrics =
    List.map
      (fun (n, u) ->
        let v = match List.assoc_opt n values with Some v -> v | None -> 0. in
        metric_json (n, u) v)
      names
  in
  print_endline
    (json_obj
       [
         json_field "correct" (string_of_bool correct);
         json_field "attempted" (string_of_int attempted);
         json_field "failed" (string_of_int failed);
         json_field "metrics" (json_obj metrics);
       ])

let print_detail fields =
  print_endline
    ("# detail "
    ^ json_obj (List.map (fun (k, v) -> json_field k v) fields))

(* --- the run ------------------------------------------------------------ *)

(* Set-up times in seconds, raw and calibrated, with a calibration
   point right before and after each and, through [Calib.maybe_point]
   calls in the workload's set-up, every 100 ms inside it; the time
   taken by those points is left out. *)
let timed_setup w =
  let raw = ref [] and cal = ref [] and st = ref None in
  for _ = 1 to setup_repeats do
    st := None;
    Gc.compact ();
    Calib.point ();
    let t0 = now_ns () in
    let s = w.setup () in
    let t1 = now_ns () in
    Calib.point ();
    raw := s_of_ns (t1 - t0 - Calib.points_ns t0 t1) :: !raw;
    cal := Calib.calibrate t0 t1 /. 1e9 :: !cal;
    st := Some s
  done;
  (Option.get !st, List.rev !raw, List.rev !cal)

let op_span = Trace.name "op"

let opt name = function Some v -> [ (name, json_num v) ] | None -> []

let json_list l = "[" ^ String.concat ", " (List.map json_num l) ^ "]"

(* The untraced run: end-to-end metrics, at nominal host speed. *)
let measure cfg w st ~setup_raw ~setup_cal ~head =
  let ph = new_phase head.next in
  closed_loop ~cycle:w.cycle w st ph ~run:w.run ~seconds:cfg.seconds ~min_ops:100;
  let cal = calibrated_ms ph in
  let a = sorted cal and raw = sorted_ms ph.times in
  let n = float_of_int ph.n in
  let sum l = List.fold_left ( +. ) 0. l in
  let e2e =
    [
      ("setup_s", median_float setup_cal);
      ("top_heap_mb", top_heap_mb ());
      ("ops_per_s", n /. (sum cal /. 1e3));
      ("op_ms.p50", Option.get (percentile a 0.5));
      ("op_ms.p90", Option.get (percentile a 0.9));
      ("ok_ratio", float_of_int (ph.n - ph.failed) /. n);
      ("decided_ratio", float_of_int ph.conclusive /. n);
    ]
  in
  let kind_p50 kind =
    match ms_of_kind ph kind with [] -> [] | ms -> opt (kind ^ "_ms.p50") (percentile (sorted ms) 0.5)
  in
  let detail =
    [ ("samples", string_of_int ph.n); ("failed_ratio", json_num (float_of_int ph.failed /. n)) ]
    @ List.map (fun (k, v) -> (k, json_num v)) e2e
    @ opt "op_ms.p99" (percentile a 0.99)
    @ kind_p50 "write" @ kind_p50 "read"
    @ List.map (fun (k, c) -> ("ops." ^ k, string_of_int c)) (count_kinds ph.kinds)
    @ [
        ("calibration_points", string_of_int !Calib.n);
        ("kernel_ms.p50", json_num (Calib.kernel_ms_median ()));
        ("raw.setup_s", json_num (median_float setup_raw));
        ("raw.ops_per_s", json_num (n /. (sum (List.map ms_of_ns ph.times) /. 1e3)));
        ("raw.op_ms.p50", json_num (Option.get (percentile raw 0.5)));
        ("raw.op_ms.p90", json_num (Option.get (percentile raw 0.9)));
      ]
  in
  (ph, detail, end_to_end, e2e)

(* The traced run: every op runs [traced_run], odd ops with the span
   recorder and the Obs stats sink on, even ops with both off (where a
   span is a direct call), so both halves run the same code on the same
   inputs and heap; the difference of their medians is the tracing
   overhead.  Probe calls, which the op a user sees does not make, are
   timed in both halves and left out of both. *)
let measure_traced cfg w st ~parse_ms ~text_bytes ~head =
  Trace.reset ();
  let stats = Obs.Stats.create () in
  let ph = new_phase head.next in
  let plain = ref [] and with_spans = ref [] in
  let run st p =
    let i = ph.next in
    let traced = i mod 2 = 1 in
    Trace.op := i;
    Trace.on := traced;
    let probe0 = !Trace.probe_ns and t0 = now_ns () in
    let r =
      Fun.protect
        ~finally:(fun () -> Trace.on := false)
        (fun () ->
          if traced then
            Obs.with_sink (Obs.Stats.sink stats) (fun () ->
                Trace.span op_span (fun () -> w.traced_run st p))
          else w.traced_run st p)
    in
    let dt = now_ns () - t0 - (!Trace.probe_ns - probe0) in
    if traced then with_spans := dt :: !with_spans else plain := dt :: !plain;
    r
  in
  closed_loop ~cycle:w.cycle w st ph ~run ~seconds:cfg.seconds ~min_ops:40;
  let untraced_p50 = median_float (List.map ms_of_ns !plain) in
  let traced_p50 = median_float (List.map ms_of_ns !with_spans) in
  let traced_n = List.length !with_spans in
  let ops = float_of_int traced_n in
  (* ph.kinds is newest first: the op at position k has index next-1-k *)
  let traced_kinds = List.filteri (fun k _ -> (ph.next - 1 - k) mod 2 = 1) ph.kinds in
  let per_op l =
    [ (l ^ ".self_ms", Trace.self_ms l /. ops); (l ^ ".calls", float_of_int (Trace.calls_of l) /. ops) ]
  in
  let layers =
    [
      ("parser.parse_ms", parse_ms);
      ("parser.mb_per_s", float_of_int text_bytes /. 1e6 /. (parse_ms /. 1e3));
      ("trace.overhead_ms", traced_p50 -. untraced_p50);
      ("trace.overhead_ratio", (traced_p50 -. untraced_p50) /. untraced_p50);
      ("trace.ops", ops);
      ("trace.spans", float_of_int !Trace.opened);
    ]
    @ List.concat_map per_op (List.filter (fun l -> l <> "parser.parse") layer_spans)
    @ w.layers st stats ~ops:traced_n ~kinds:(count_kinds traced_kinds)
  in
  let dir = "perfbench/out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf "%s/trace-%s-seed%d.jsonl" dir cfg.workload cfg.seed in
  Trace.write path;
  let detail =
    [
      ("traced_ops", string_of_int traced_n);
      ("untraced_ops", string_of_int (List.length !plain));
      ("traced_op_ms.p50", json_num traced_p50);
      ("untraced_op_ms.p50", json_num untraced_p50);
      ("spans_file", Printf.sprintf "%S" path);
      ("spans_written", string_of_int !Trace.stored);
    ]
  in
  (ph, detail, per_layer, layers)

let run_workload (cfg : config) w ~text_bytes =
  Trace.reset ();
  Trace.on := cfg.trace;
  let st, setup_raw, setup_cal = timed_setup w in
  let parse_ms = Trace.total_ms "parser.parse" /. float_of_int setup_repeats in
  Trace.on := false;
  (* warm-up: checked and reported, but not part of any metric *)
  let warm = new_phase 0 in
  closed_loop w st warm ~run:w.run ~seconds:0. ~min_ops:w.warmup;
  (* start the measured ops on a collected heap, as every set-up does *)
  Gc.compact ();
  let ph, detail, names, values =
    if cfg.trace then measure_traced cfg w st ~parse_ms ~text_bytes ~head:warm
    else measure cfg w st ~setup_raw ~setup_cal ~head:warm
  in
  print_detail
    ([ ("workload", Printf.sprintf "%S" cfg.workload); ("seed", string_of_int cfg.seed) ]
    @ List.map (fun (k, v) -> (k, string_of_int v)) (w.sizes st)
    @ [
        ("parse_mb", json_num (float_of_int text_bytes /. 1e6));
        ("setup_runs_s", json_list setup_cal);
        ("raw.setup_runs_s", json_list setup_raw);
        ("warmup_ops", string_of_int warm.n);
        ("warmup_ms", json_list (List.rev_map ms_of_ns warm.times));
      ]
    @ detail);
  List.iter (fun f -> prerr_endline ("failure: " ^ f)) (List.rev !failures);
  let failed = warm.failed + ph.failed in
  let correct = failed = 0 in
  print_result ~correct ~attempted:(warm.n + ph.n) ~failed names values;
  correct

(* Helpers the workloads share. *)

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* A seeded permutation of 0..n-1. *)
let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
