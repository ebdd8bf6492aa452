(* decide: a closed loop of [Decider.decide] calls (fixed dispatch,
   default budgets but for one set, see [shallow_sets]) over a pool of
   TGD-set texts — the scenario gallery plus seeded sticky, guarded and
   weakly acyclic sets. *)

open Chase_core
open Chase_classes
open Chase_termination
module Scenarios = Chase_workload.Scenarios
module Tgd_gen = Chase_workload.Tgd_gen

(* The corpus: the gallery plus [generated_per_class] sets of each
   class from generator seeds 0, 1, ...  It is the same for every
   --seed, so every run decides the same multiset of sets; the seed
   picks the order and the TGD names. *)
let generated_per_class = 300

(* Each corpus set enters the pool this many times, under fresh TGD
   names, so that parsing the pool is a set-up worth measuring while
   the reference verdicts are computed once per corpus set. *)
let copies = 30

(* Generator seeds of guarded sets decided with a depth budget of
   [shallow_depth] instead of the default 200.  At depth 40 and above
   the divergence search on set 388 exhausts its state budget after
   about 4.5 s and answers unknown, which would make that one set most
   of the workload's time; at depth 32 it is answered non-terminating
   in about 25 ms, as slow as the other guarded searches in the tail. *)
let shallow_sets = [ 388 ]
let shallow_depth = 32

type state = {
  pool : Tgd.t list array;
  depth : int option array;  (* the guarded depth budget, when not the default *)
  expected : Decider.answer array;
  order : int array;
}

let sticky_max_states = 50_000

(* The reference verdict: the exact procedure of the set's class, run
   once and untimed.  The sticky procedure runs with subsumption pruning
   (the decider's fixed dispatch runs without), and its non-termination
   certificates are checked independently. *)
let reference ?depth tgds =
  let c = Classification.classify tgds in
  let cf = Tgd.constant_free_set tgds in
  if cf && c.Classification.single_head && c.Classification.sticky then
    match Sticky_decider.decide ~max_states:sticky_max_states ~prune:true tgds with
    | Sticky_decider.All_terminating -> Decider.Terminating
    | Sticky_decider.Non_terminating cert -> (
        match Sticky_decider.check_certificate tgds cert with
        | Ok () -> Decider.Non_terminating
        | Error e -> failwith ("sticky certificate rejected: " ^ e))
    | Sticky_decider.Inconclusive _ -> Decider.Unknown
  else if cf && c.Classification.single_head && c.Classification.guarded then
    match Guarded_decider.decide ?max_depth:depth tgds with
    | Guarded_decider.Terminating _ -> Decider.Terminating
    | Guarded_decider.Non_terminating _ -> Decider.Non_terminating
    | Guarded_decider.No_divergence_found _ -> Decider.Unknown
  else if Weak_acyclicity.is_weakly_acyclic tgds then Decider.Terminating
  else Decider.Unknown

let corrupt = function
  | Decider.Terminating -> Decider.Non_terminating
  | Decider.Non_terminating | Decider.Unknown -> Decider.Terminating

(* The corpus with reference verdicts; the gallery's references must
   agree with its ground truth wherever they are conclusive. *)
let corpus () =
  let gallery =
    List.map
      (fun (s : Scenarios.t) ->
        let tgds = Scenarios.tgds s in
        let r = reference tgds in
        let truth =
          match s.Scenarios.truth with
          | Scenarios.All_terminating -> Decider.Terminating
          | Scenarios.Diverging -> Decider.Non_terminating
        in
        if r <> Decider.Unknown && r <> truth then
          failwith ("reference disagrees with the gallery truth on " ^ s.Scenarios.name);
        (tgds, Scenarios.database s, None, r))
      Scenarios.all
  in
  let gens = [| Tgd_gen.sticky_set; Tgd_gen.guarded_set; Tgd_gen.weakly_acyclic_set |] in
  let generated =
    List.init (3 * generated_per_class) (fun i ->
        let cfg =
          { Tgd_gen.default with Tgd_gen.seed = i; tgds = 4 + (i / 3 mod 2) }
        in
        let tgds = gens.(i mod 3) cfg in
        let depth = if List.mem i shallow_sets then Some shallow_depth else None in
        (tgds, Instance.empty, depth, reference ?depth tgds))
  in
  Array.of_list (gallery @ generated)

(* Pool entry [c * n + j] is corpus set [j] under the TGD names of copy
   [c]; the texts carry the seed in their TGD names. *)
let generate ~seed ~corrupt_reference =
  let distinct = corpus () in
  let n = Array.length distinct in
  Array.init (copies * n) (fun i ->
      let tgds, db, depth, r = distinct.(i mod n) in
      let copy = i / n in
      let b = Buffer.create 256 in
      List.iteri
        (fun k t ->
          let t = Tgd.with_name (Printf.sprintf "s%d_c%d_%d" seed copy k) t in
          Buffer.add_string b (Chase_parser.Printer.print_tgd t);
          Buffer.add_char b '\n')
        tgds;
      Instance.iter
        (fun a ->
          Buffer.add_string b (Chase_parser.Printer.print_fact a);
          Buffer.add_char b '\n')
        db;
      let r = if corrupt_reference && i mod n = 0 then corrupt r else r in
      (Buffer.contents b, depth, r))

let parse_span = Trace.name "parser.parse"
let classify_span = Trace.name "classify"
let wa_span = Trace.name "wa"
let ja_span = Trace.name "ja"
let sticky_span = Trace.name "sticky.decide"
let guarded_span = Trace.name "guarded.decide"

(* The decider's fixed dispatch, one span per layer call; WA and JA are
   timed on their own as well, although [classify] computes both. *)
let traced_decide ?depth tgds =
  let c = Trace.span classify_span (fun () -> Classification.classify tgds) in
  ignore (Trace.probe wa_span (fun () -> Weak_acyclicity.is_weakly_acyclic tgds));
  ignore (Trace.probe ja_span (fun () -> Joint_acyclicity.is_jointly_acyclic tgds));
  let cf = Tgd.constant_free_set tgds in
  if cf && c.Classification.single_head && c.Classification.sticky then
    let s =
      Trace.span sticky_span (fun () ->
          Sticky_decider.decide_with_stats ~max_states:sticky_max_states tgds)
    in
    ( (match s.Sticky_decider.decision with
      | Sticky_decider.All_terminating -> Decider.Terminating
      | Sticky_decider.Non_terminating _ -> Decider.Non_terminating
      | Sticky_decider.Inconclusive _ -> Decider.Unknown),
      Decider.Sticky_buchi )
  else if cf && c.Classification.single_head && c.Classification.guarded then
    ( (match Trace.span guarded_span (fun () -> Guarded_decider.decide ?max_depth:depth tgds) with
      | Guarded_decider.Terminating _ -> Decider.Terminating
      | Guarded_decider.Non_terminating _ -> Decider.Non_terminating
      | Guarded_decider.No_divergence_found _ -> Decider.Unknown),
      Decider.Guarded_search )
  else ((if c.Classification.weakly_acyclic then Decider.Terminating else Decider.Unknown), Decider.Weak_acyclicity_check)

let workload (cfg : Common.config) =
  let inputs = generate ~seed:cfg.Common.seed ~corrupt_reference:cfg.Common.corrupt_reference in
  let text_bytes = Array.fold_left (fun acc (t, _, _) -> acc + String.length t) 0 inputs in
  let n = Array.length inputs / copies in
  (* op i decides corpus set perm.(i mod n), in copy (i / n) mod copies:
     any n consecutive ops decide every corpus set once *)
  let perm = Common.permutation (Random.State.make [| cfg.Common.seed; 17 |]) n in
  let order = Array.init (copies * n) (fun i -> ((i / n) mod copies * n) + perm.(i mod n)) in
  let setup () =
    {
      pool =
        Array.map
          (fun (text, _, _) ->
            Calib.maybe_point ();
            Trace.span parse_span (fun () ->
                Chase_parser.Program.tgds (Chase_parser.Parser.parse_program text)))
          inputs;
      depth = Array.map (fun (_, d, _) -> d) inputs;
      expected = Array.map (fun (_, _, r) -> r) inputs;
      order;
    }
  in
  let w =
    {
      Common.setup;
      warmup = 200;
      cycle = n;
      prepare = (fun st i -> st.order.(i mod Array.length st.order));
      run =
        (fun st k ->
          let r = Decider.decide ?guarded_max_depth:st.depth.(k) st.pool.(k) in
          (r.Decider.answer, r.Decider.method_used));
      traced_run = (fun st k -> traced_decide ?depth:st.depth.(k) st.pool.(k));
      check =
        (fun st k (answer, m) ->
          {
            Common.ok = answer = st.expected.(k);
            conclusive = answer <> Decider.Unknown;
            kind = Decider.method_name m;
          });
      sizes =
        (fun st ->
          [
            ("inputs", Array.length st.pool);
            ("gallery", List.length Scenarios.all);
            ("generated", 3 * generated_per_class);
            ("corpus", n);
            ("copies", copies);
            ("text_bytes", text_bytes);
          ]);
      layers =
        (fun _ stats ~ops:_ ~kinds ->
          let c = Obs.Stats.counter stats in
          let sticky_calls = Trace.calls_of "sticky.decide" in
          let per_sticky n = if sticky_calls = 0 then 0. else float_of_int n /. float_of_int sticky_calls in
          let guarded_calls = Trace.calls_of "guarded.decide" in
          [
            ("classify_ms", Trace.mean "classify" ~per_ns:1e6);
            ("wa_ms", Trace.mean "wa" ~per_ns:1e6);
            ("ja_ms", Trace.mean "ja" ~per_ns:1e6);
            ("sticky.decide_ms", Trace.mean "sticky.decide" ~per_ns:1e6);
            ("buchi.states", per_sticky (c "buchi.states"));
            ("buchi.transitions", per_sticky (c "buchi.transitions"));
            ("sticky.memo_hits", per_sticky (c "sticky.next.memo_hit"));
            ("guarded.decide_ms", Trace.mean "guarded.decide" ~per_ns:1e6);
            ( "guarded.candidates",
              if guarded_calls = 0 then 0.
              else float_of_int (c "guarded.candidates.searched") /. float_of_int guarded_calls );
          ]
          @ List.map (fun (k, n) -> ("decided_by." ^ k, float_of_int n)) kinds);
    }
  in
  (w, text_bytes)
