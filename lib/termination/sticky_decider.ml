(* The decision procedure for CTres∀∀(S) (paper Theorem 6.1, §6.5).

   By the Fairness Theorem (4.1) and the caterpillar characterization
   (6.5), T ∈ S is non-terminating for some database iff a finitary
   caterpillar for T exists, iff L(A_T) ≠ ∅ (Lemma 6.12, §6.5).  We build
   the component automata A_{e₀,Π₀} lazily and run lasso emptiness on
   each; a non-empty component yields a lasso over Λ_T, which we unroll
   into a concrete caterpillar prefix — an independently checkable
   non-termination certificate. *)

open Chase_core
open Chase_engine
open Chase_automata

type certificate = {
  start_et : Equality_type.t;
  start_class : int;
  lasso : Sticky_automaton.letter Buchi.lasso;
  prefix : Caterpillar.t;  (* the lasso unrolled a few turns *)
}

type verdict =
  | All_terminating  (* T ∈ CTres∀∀: every derivation of every database is finite *)
  | Non_terminating of certificate
  | Inconclusive of string  (* a state budget was exceeded *)

type stats = {
  components : int;
  explored_states : int;
  decision : verdict;
}

(* Unroll a lasso into a concrete caterpillar prefix of [turns] cycles. *)
let unroll ctx ~start_et ~start_class ~(lasso : Sticky_automaton.letter Buchi.lasso) ~turns =
  let gen = Term.Gen.create ~prefix:"cat" () in
  let start =
    Equality_type.canonical_atom
      ~term_of_class:(fun c -> Term.Null (Printf.sprintf "a%d" c))
      start_et
  in
  ignore start_class;
  let word = lasso.Buchi.prefix @ List.concat (List.init turns (fun _ -> lasso.Buchi.cycle)) in
  let legs = ref Instance.empty in
  let steps = ref [] in
  let current = ref start in
  List.iter
    (fun (l : Sticky_automaton.letter) ->
      let tgd = (Sticky_automaton.tgds ctx).(l.tgd_index) in
      let body = Array.of_list (Tgd.body tgd) in
      let gamma = body.(l.gamma_index) in
      (* γ variables follow the current atom *)
      let h = ref Substitution.empty in
      Array.iteri
        (fun i t ->
          match t with
          | Term.Var _ -> h := Option.get (Substitution.unify t (Atom.arg !current i) !h)
          | Term.Const _ | Term.Null _ ->
              (* unreachable: the context's TGDs are constant-free
                 (checked by [Sticky_automaton.make_context]) *)
              assert false)
        (Atom.args_a gamma);
      (* remaining body variables are fresh (the free caterpillar) *)
      Term.Set.iter
        (fun x ->
          if not (Substitution.mem x !h) then h := Substitution.bind x (Term.Gen.fresh gen) !h)
        (Tgd.body_vars tgd);
      (* the leg atoms: the body images other than the γ occurrence *)
      Array.iteri
        (fun i b -> if i <> l.gamma_index then legs := Instance.add (Substitution.apply_atom !h b) !legs)
        body;
      let trigger = Trigger.make tgd !h in
      let atom =
        match Trigger.result ~gen trigger with [ a ] -> a | _ -> assert false
      in
      steps := { Caterpillar.trigger; gamma_index = l.gamma_index; atom; pass_on = l.pass_on } :: !steps;
      current := atom)
    word;
  { Caterpillar.legs = !legs; start; steps = List.rev !steps }

let default_unroll_turns = 3

let decide_with_stats ?(max_states = 50_000) ?(unroll_turns = default_unroll_turns)
    ?(prune = false) tgds =
  let ctx = Sticky_automaton.make_context tgds in
  let components = Sticky_automaton.components ctx in
  let explored = ref 0 in
  let budget_hit = ref false in
  (* Each component's emptiness pass reports its own exploration stats,
     so the explored-state total comes for free — no re-exploration. *)
  let rec search = function
    | [] -> None
    | ((start_et, start_class), automaton) :: rest -> (
        match Buchi.emptiness_with_stats ~max_states ~prune automaton with
        | Buchi.Empty, st ->
            explored := !explored + st.Buchi.states;
            search rest
        | Buchi.Budget_exceeded n, _ ->
            explored := !explored + n;
            budget_hit := true;
            search rest
        | Buchi.Nonempty lasso, st ->
            explored := !explored + st.Buchi.states;
            let prefix = unroll ctx ~start_et ~start_class ~lasso ~turns:unroll_turns in
            Some { start_et; start_class; lasso; prefix })
  in
  let decision =
    match search components with
    | Some cert -> Non_terminating cert
    | None ->
        if !budget_hit then
          Inconclusive
            (Printf.sprintf "state budget (%d per component) exceeded" max_states)
        else All_terminating
  in
  { components = List.length components; explored_states = !explored; decision }

let decide ?max_states ?unroll_turns ?prune tgds =
  (decide_with_stats ?max_states ?unroll_turns ?prune tgds).decision

(* Independent certificate check: the unrolled prefix really is a valid
   (connected) caterpillar prefix for T. *)
let check_certificate tgds cert = Caterpillar.validate tgds cert.prefix
