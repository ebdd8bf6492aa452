(* chase-bulk and chase-derive: repeated [Restricted.run] (default
   backend and strategy) over a pool of parsed programs, each a seeded
   relabelling of a scalable scenario whose step count is known. *)

open Chase_core
open Chase_engine
module St = Chase_workload.St_mapping

(* A scenario family with its known step count. *)
type family = { make : int -> St.scenario; size : int; small : int; steps : int -> int }

let hub_propagation ~size =
  { make = (fun n -> St.hub_propagation ~n ~pad:n); size; small = 40; steps = (fun n -> n - 1) }

let doctors ~size =
  {
    make = (fun p -> St.doctors ~patients:p);
    size;
    small = 40;
    (* one office per doctor, three atoms per patient, five hospitals *)
    steps = (fun p -> max 1 (p / 4) + (3 * p) + min 5 (max 1 (p / 4)));
  }

let deep ~size =
  { make = (fun w -> St.deep ~depth:20 ~width:w); size; small = 6; steps = (fun w -> 20 * w) }

let hub_exchange ~size =
  { make = (fun n -> St.hub_exchange ~n ~pad:n); size; small = 40; steps = (fun n -> (2 * n) - 1) }

(* The step-count formulas are checked against the [Naive] oracle on a
   small instance of each family; at full size the formula is the
   reference. *)
let validate_family f =
  let sc = f.make f.small in
  let d = Restricted.run ~backend:`Naive ~max_steps:1_000_000 sc.St.tgds sc.St.database in
  let steps = Derivation.length d in
  let final = Instance.cardinal (Derivation.final d) in
  if (not (Derivation.terminated d)) || steps <> f.steps f.small || final <> sc.St.facts + steps
  then
    failwith
      (Printf.sprintf "%s: the naive oracle made %d steps (%d facts), the formula says %d"
         sc.St.name steps final (f.steps f.small))

(* Rename every constant through a seeded bijection and print the
   program with its facts in a seeded order. *)
let relabel rng (sc : St.scenario) =
  let facts = Array.of_list (Instance.to_list sc.St.database) in
  let names = Hashtbl.create 1024 in
  Array.iter
    (fun a -> List.iter (function Term.Const c -> Hashtbl.replace names c () | _ -> ()) (Atom.args a))
    facts;
  let ids = Common.permutation rng (Hashtbl.length names) in
  let k = ref 0 in
  let map = Hashtbl.create (Hashtbl.length names) in
  Hashtbl.iter
    (fun c () ->
      Hashtbl.replace map c (Printf.sprintf "k%d" ids.(!k));
      incr k)
    names;
  let rename = function Term.Const c -> Term.Const (Hashtbl.find map c) | t -> t in
  let order = Common.permutation rng (Array.length facts) in
  let buf = Buffer.create (64 * Array.length facts) in
  List.iter
    (fun t ->
      Buffer.add_string buf (Chase_parser.Printer.print_tgd t);
      Buffer.add_char buf '\n')
    sc.St.tgds;
  Array.iter
    (fun i ->
      Buffer.add_string buf (Chase_parser.Printer.print_fact (Atom.map rename facts.(i)));
      Buffer.add_char buf '\n')
    order;
  Buffer.contents buf

type program = { tgds : Tgd.t list; db : Instance.t }

type state = {
  programs : program array;
  expected : (int * int) array;  (* steps, final cardinality *)
  facts : int;
}

let max_steps = 10_000_000

(* --- the traced op: a copy of [Restricted.run_store] (the loop behind
   the default backend), rebuilt from the public functions of each layer
   with a span around every call.  It leaves out what the loop does for
   its caller only: the derivation record, the obs step events and the
   parallel activity scan, which one job never uses.  The chase
   per-layer figures come from this copy, so a change to the engine loop
   must be made here too. ------------------------------------------- *)

let load_span = Trace.name "store.load"
let iter_homs_span = Trace.name "plan.iter_homs"
let active_span = Trace.name "plan.head_satisfied"
let result_span = Trace.name "trigger.result"
let add_span = Trace.name "store.add"
let delta_span = Trace.name "plan.delta_homs"
let push_span = Trace.name "pool.push"
let snapshot_span = Trace.name "store.snapshot"
let parse_span = Trace.name "parser.parse"

(* totals over the traced ops *)
let steps_total = ref 0
let inactive_total = ref 0
let adds_total = ref 0
let dups_total = ref 0

let traced_chase { tgds; db } =
  let store = Trace.span load_span (fun () -> Store.of_instance `Compiled db) in
  let src = store.Store.source in
  let plans = List.map (fun t -> (t, Plan.of_tgd t)) tgds in
  let plan_of tgd =
    match List.find_opt (fun (t, _) -> t == tgd) plans with
    | Some (_, p) -> p
    | None -> Plan.of_tgd tgd
  in
  let memo = Plan.Head_memo.create () in
  let pool = Restricted.Pool.create Restricted.Fifo in
  let gen = Term.Gen.create () in
  let seed = ref [] in
  Trace.span iter_homs_span (fun () ->
      List.iter
        (fun (t, p) -> Plan.iter_homs p src (fun hom -> seed := Trigger.make t hom :: !seed))
        plans);
  Trace.span push_span (fun () -> Restricted.Pool.push_batch pool !seed);
  let steps = ref 0 in
  let rec loop () =
    match Restricted.Pool.pop pool with
    | None -> ()
    | Some tr ->
        let p = plan_of (Trigger.tgd tr) in
        if Trace.span active_span (fun () -> Plan.Head_memo.is_active memo p src (Trigger.hom tr))
        then begin
          incr steps;
          let produced = Trace.span result_span (fun () -> Trigger.result ~gen tr) in
          List.iter
            (fun a ->
              incr adds_total;
              if not (Trace.span add_span (fun () -> store.Store.add a)) then incr dups_total)
            produced;
          List.iter
            (fun a ->
              let batch = ref [] in
              Trace.span delta_span (fun () ->
                  List.iter
                    (fun (t, p) ->
                      Plan.iter_delta_homs p src a (fun hom -> batch := Trigger.make t hom :: !batch))
                    plans);
              Trace.span push_span (fun () -> Restricted.Pool.push_batch pool !batch))
            produced
        end
        else incr inactive_total;
        loop ()
  in
  loop ();
  steps_total := !steps_total + !steps;
  let final = Trace.span snapshot_span (fun () -> store.Store.snapshot ()) in
  (!steps, Instance.cardinal final, true)

let workload ~families ~variants (cfg : Common.config) =
  List.iter validate_family families;
  let rng = Random.State.make [| cfg.Common.seed; 29 |] in
  (* variant v of family f sits at index v * |families| + f, so ops
     cycle through the families *)
  let inputs =
    Array.of_list
      (List.concat
         (List.init variants (fun _ ->
              List.map
                (fun f ->
                  let sc = f.make f.size in
                  let steps = f.steps f.size in
                  (relabel rng sc, (steps, sc.St.facts + steps), sc.St.facts))
                families)))
  in
  if cfg.Common.corrupt_reference then begin
    let text, (steps, final), facts = inputs.(0) in
    inputs.(0) <- (text, (steps + 1, final), facts)
  end;
  let text_bytes = Array.fold_left (fun acc (t, _, _) -> acc + String.length t) 0 inputs in
  let setup () =
    {
      programs =
        Array.map
          (fun (text, _, _) ->
            Calib.maybe_point ();
            let p = Trace.span parse_span (fun () -> Chase_parser.Parser.parse_program text) in
            { tgds = Chase_parser.Program.tgds p; db = Chase_parser.Program.database p })
          inputs;
      expected = Array.map (fun (_, e, _) -> e) inputs;
      facts = Array.fold_left (fun acc (_, _, n) -> acc + n) 0 inputs;
    }
  in
  let w =
    {
      Common.setup;
      warmup = 2 * Array.length inputs;
      cycle = Array.length inputs;
      prepare = (fun st i -> i mod Array.length st.programs);
      run =
        (fun st k ->
          let { tgds; db } = st.programs.(k) in
          let d = Restricted.run ~max_steps tgds db in
          (Derivation.length d, Instance.cardinal (Derivation.final d), Derivation.terminated d));
      traced_run = (fun st k -> traced_chase st.programs.(k));
      check =
        (fun st k (steps, final, terminated) ->
          {
            Common.ok = (steps, final) = st.expected.(k) && terminated;
            conclusive = terminated;
            kind = "chase";
          });
      sizes =
        (fun st ->
          [
            ("programs", Array.length st.programs);
            ("facts", st.facts);
            ("steps", Array.fold_left (fun acc (s, _) -> acc + s) 0 st.expected);
            ("text_bytes", text_bytes);
          ]);
      layers =
        (fun _ stats ~ops ~kinds:_ ->
          let c = Obs.Stats.counter stats in
          let per_op n = float_of_int n /. float_of_int ops in
          [
            ("store.load_ms", Trace.mean "store.load" ~per_ns:1e6);
            ("plan.iter_homs_ms", Trace.mean "plan.iter_homs" ~per_ns:1e6);
            ("plan.probe.index", per_op (c "plan.probe.index"));
            ("plan.probe.scan", per_op (c "plan.probe.scan"));
            ("plan.probe.empty", per_op (c "plan.probe.empty"));
            ("plan.head_satisfied_ns", Trace.mean "plan.head_satisfied" ~per_ns:1.);
            ("plan.memo_hit_ratio", Common.ratio (c "plan.memo.hit") (c "plan.memo.miss"));
            ("restricted.useful_ratio", Common.ratio !steps_total !inactive_total);
            ("store.add_ns", Trace.mean "store.add" ~per_ns:1.);
            ("store.dup_ratio", Common.ratio !dups_total (!adds_total - !dups_total));
            ("store.snapshot_ms", Trace.mean "store.snapshot" ~per_ns:1e6);
            ("plan.delta_seeds", per_op (c "plan.delta.seed"));
          ]);
    }
  in
  (w, text_bytes)

let bulk cfg =
  workload ~families:[ hub_propagation ~size:4000 ] ~variants:3 cfg

let derive cfg =
  workload
    ~families:[ doctors ~size:1500; deep ~size:250; hub_exchange ~size:2500 ]
    ~variants:4 cfg
