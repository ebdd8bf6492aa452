(* The deterministic Büchi automaton A_T of the sticky decision procedure
   (paper Lemma 6.12 and Appendix D.2).

   A_T accepts exactly the caterpillar words that encode a free connected
   caterpillar for T; L(A_T) ≠ ∅ iff a finitary caterpillar for T exists
   iff T ∉ CTres∀∀ (Theorems 4.1 and 6.5).  A_T is the union, over start
   pairs (e₀, Π₀) — an equality type for the first body atom and the
   class of positions carrying the first relay term — of deterministic
   automata A_{e₀,Π₀}, each the product of three machines:

     A_pc  tracks the equality type of the current body atom and rejects
           words that do not encode a free proto-caterpillar;
     A_qc  tracks the set Θ of T-equality types of all earlier body atoms
           relative to the current atom's terms and rejects when an
           earlier body atom stops the new one (Lemma D.3 makes this a
           finite-state check);
     A_cc  tracks the positions of the current relay term (Π₁) and of all
           relay terms (Π₂), rejecting when the current relay term dies
           before the next pass-on point or when any relay term reaches
           an immortal position; it visits an accepting state exactly at
           pass-on points.

   We implement the product directly: a state carries all components and
   one transition function advances them together (the paper separates
   them for exposition; the product is what runs). *)

open Chase_core
open Chase_classes

(* A letter of Λ_T: a TGD σ, a body atom γ of σ, and a (possibly empty)
   pass-on set P — the head positions of one existential variable of σ. *)
type letter = { tgd_index : int; gamma_index : int; pass_on : int list }

let letter_to_string tgds l =
  let tgd = tgds.(l.tgd_index) in
  Printf.sprintf "(%s,γ%d%s)" (Tgd.name tgd) l.gamma_index
    (if l.pass_on = [] then ""
     else ",P={" ^ String.concat "," (List.map string_of_int l.pass_on) ^ "}")

(* A T-equality type (App. D.2): an equality type whose classes may be
   labeled by classes of the *current* body atom's equality type,
   injectively — "this class holds the same term as that class of the
   current atom".  [labels.(c)] is the current-atom class or -1. *)
type teq = { t_et : Equality_type.t; labels : int array }

let teq_encode t =
  Printf.sprintf "%s|%s" (Equality_type.to_string t.t_et)
    (String.concat "," (List.map string_of_int (Array.to_list t.labels)))

let teq_compare a b = String.compare (teq_encode a) (teq_encode b)

(* Product state. *)
type state = {
  et : Equality_type.t;  (* A_pc: equality type of the current body atom *)
  theta : teq list;  (* A_qc: sorted, deduplicated *)
  pi1 : int list;  (* A_cc: positions of the current relay term, sorted *)
  pi2 : int list;  (* A_cc: positions of all relay terms, sorted *)
  pass : bool;  (* accepting flag: did this step cross a pass-on point? *)
}

let state_key s =
  Printf.sprintf "%s#%s#%s#%s#%b"
    (Equality_type.to_string s.et)
    (String.concat ";" (List.map teq_encode s.theta))
    (String.concat "," (List.map string_of_int s.pi1))
    (String.concat "," (List.map string_of_int s.pi2))
    s.pass

type context = {
  tgds : Tgd.t array;
  marking : Stickiness.t;
  (* [next] is pure per (state, letter) and identical across the
     per-start-pair component automata, so its results are memoized once
     per context and shared by every component. *)
  memo : (state * letter, state option) Hashtbl.t;
}

let tgds ctx = ctx.tgds

let make_context tgds =
  if not (Stickiness.is_sticky tgds) then invalid_arg "Sticky_automaton: TGDs must be sticky";
  (* The equality-type abstraction tracks only which positions carry the
     same term, never which constant a position carries, so a TGD
     mentioning a constant has no sound encoding here; reject up front
     instead of crashing mid-transition (the facade decider falls back to
     weak acyclicity for such sets). *)
  if not (Tgd.constant_free_set tgds) then
    invalid_arg "Sticky_automaton: TGDs must be constant-free";
  {
    tgds = Array.of_list tgds;
    marking = Stickiness.marking tgds;
    memo = Hashtbl.create 4096;
  }

(* Λ_T. *)
let alphabet ctx =
  let letters = ref [] in
  Array.iteri
    (fun ti tgd ->
      let head = Tgd.head_atom tgd in
      let existential_position_sets =
        Term.Set.elements (Tgd.existential_vars tgd)
        |> List.map (fun z -> List.sort Int.compare (Atom.positions_of head z))
        |> List.sort_uniq (List.compare Int.compare)
      in
      List.iteri
        (fun gi _ ->
          letters := { tgd_index = ti; gamma_index = gi; pass_on = [] } :: !letters;
          List.iter
            (fun ps ->
              letters := { tgd_index = ti; gamma_index = gi; pass_on = ps } :: !letters)
            existential_position_sets)
        (Tgd.body tgd))
    ctx.tgds;
  Obs.gauge "sticky.letters" (List.length !letters);
  List.rev !letters

(* Symbolic terms of the next body atom. *)
type sym =
  | Old of int  (* a term of the current atom, by its equality class *)
  | Leg of string  (* a frontier variable occurring only in leg atoms *)
  | Ex of string  (* an existential variable: a fresh null *)

let sym_term = function
  | Old c -> Term.Null (Printf.sprintf "t%d" c)
  | Leg v -> Term.Null ("leg:" ^ v)
  | Ex z -> Term.Null ("ex:" ^ z)

(* One product transition; [None] is the reject sink. *)
let next ctx state letter =
  let tgd = ctx.tgds.(letter.tgd_index) in
  let body = Array.of_list (Tgd.body tgd) in
  let gamma = body.(letter.gamma_index) in
  let head = Tgd.head_atom tgd in
  let e = state.et in
  (* --- A_pc: match γ against the current equality type ------------- *)
  if
    (not (String.equal (Atom.pred gamma) (Equality_type.pred e)))
    || Atom.arity gamma <> Equality_type.arity e
  then None
  else
    (* variable of γ -> class of e, consistently *)
    let vclass : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let consistent = ref true in
    Array.iteri
      (fun i t ->
        match t with
        | Term.Var v -> (
            let c = Equality_type.class_of e i in
            match Hashtbl.find_opt vclass v with
            | Some c' -> if c <> c' then consistent := false
            | None -> Hashtbl.add vclass v c)
        | Term.Const _ | Term.Null _ -> consistent := false)
      (Atom.args_a gamma);
    if not !consistent then None
    else begin
      (* --- the next atom, symbolically ------------------------------ *)
      let frontier = Tgd.frontier tgd in
      let syms =
        Array.map
          (fun t ->
            match t with
            | Term.Var v -> (
                match Hashtbl.find_opt vclass v with
                | Some c -> Old c
                | None -> if Term.Set.mem (Term.Var v) frontier then Leg v else Ex v)
            | Term.Const _ | Term.Null _ ->
                (* unreachable: [make_context] rejects constant-bearing
                   TGDs and [Tgd.make] rejects nulls *)
                assert false)
          (Atom.args_a head)
      in
      let n' = Array.length syms in
      (* next equality type: positions equal iff same symbol *)
      let sym_id = Hashtbl.create 8 in
      let raw = Array.make n' 0 in
      let nextid = ref 0 in
      Array.iteri
        (fun i s ->
          match Hashtbl.find_opt sym_id s with
          | Some id -> raw.(i) <- id
          | None ->
              raw.(i) <- !nextid;
              Hashtbl.add sym_id s !nextid;
              incr nextid)
        syms;
      let e' = Equality_type.canonicalize (Atom.pred head) raw in
      (* survival: class of e -> class of e' through γ/head variables *)
      let surv = Array.make (Equality_type.num_classes e) (-1) in
      Array.iteri
        (fun i s ->
          match s with
          | Old c -> if surv.(c) = -1 then surv.(c) <- Equality_type.class_of e' i
          | Leg _ | Ex _ -> ())
        syms;
      (* --- A_qc: stop checks via Lemma D.3 --------------------------- *)
      (* concrete next atom and its frontier terms *)
      let next_atom = Atom.make_a (Atom.pred head) (Array.map sym_term syms) in
      let frontier_terms =
        Array.to_list syms
        |> List.filteri (fun i _ -> Term.Set.mem (Atom.arg head i) frontier)
        |> List.fold_left (fun acc s -> Term.Set.add (sym_term s) acc) Term.Set.empty
      in
      (* Θ_j including the current atom itself *)
      let self_j =
        { t_et = e; labels = Array.init (Equality_type.num_classes e) Fun.id }
      in
      let all_theta = self_j :: state.theta in
      let stopped =
        List.exists
          (fun theta ->
            let can =
              Equality_type.canonical_atom
                ~term_of_class:(fun c ->
                  let l = theta.labels.(c) in
                  if l >= 0 then Term.Null (Printf.sprintf "t%d" l)
                  else Term.Null (Printf.sprintf "u%d" c))
                theta.t_et
            in
            Chase_engine.Stop.stops ~frontier:frontier_terms ~candidate:can ~result:next_atom)
          all_theta
      in
      if stopped then None
      else begin
        (* new Θ: relabel all types through the survival map, add self *)
        let relabel t =
          {
            t with
            labels =
              Array.map (fun l -> if l >= 0 then surv.(l) else -1) t.labels;
          }
        in
        let self' =
          { t_et = e'; labels = Array.init (Equality_type.num_classes e') Fun.id }
        in
        let theta' =
          self' :: List.map relabel all_theta |> List.sort_uniq teq_compare
        in
        (* --- A_cc: relay-term tracking -------------------------------- *)
        let dpos pi =
          (* positions i of head with head[i] = γ[j] for some j ∈ pi *)
          let vars_of_pi =
            List.filter_map
              (fun j ->
                match Atom.arg gamma j with Term.Var v -> Some v | _ -> None)
              pi
          in
          List.init n' Fun.id
          |> List.filter (fun i ->
                 match Atom.arg head i with
                 | Term.Var v -> List.exists (String.equal v) vars_of_pi
                 | Term.Const _ | Term.Null _ -> false)
        in
        let d1 = dpos state.pi1 and d2 = dpos state.pi2 in
        if d1 = [] then None
        else
          let immortal = Stickiness.immortal_positions ctx.marking letter.tgd_index in
          if List.exists (fun i -> immortal.(i)) d2 then None
          else if letter.pass_on = [] then
            Some { et = e'; theta = theta'; pi1 = d1; pi2 = d2; pass = false }
          else
            Some
              {
                et = e';
                theta = theta';
                pi1 = letter.pass_on;
                pi2 = List.sort_uniq Int.compare (d1 @ d2);
                pass = true;
              }
      end
    end

(* Memoized transition: one table per context, shared by every
   component automaton (the transition function does not depend on the
   start pair). *)
let memo_next ctx s l =
  (* states and letters are fully structural (canonical equality types,
     int arrays/lists), so the polymorphic hash is a sound — and much
     cheaper — key than an encoded string *)
  let key = (s, l) in
  match Hashtbl.find_opt ctx.memo key with
  | Some r ->
      Obs.incr "sticky.next.memo_hit";
      r
  | None ->
      let r = next ctx s l in
      Hashtbl.add ctx.memo key r;
      r

(* Subsumption order for pruned exploration (DESIGN.md §10): within a
   group of states sharing (et, pi1, pass), [existing ≤ candidate] when
   existing.theta ⊆ candidate.theta and existing.pi2 ⊆ candidate.pi2.
   The transition function is monotone along ≤ — a smaller state fails
   fewer stop checks (Θ is existentially quantified) and fewer immortal
   checks (Π₂ likewise), and successors preserve the order — so every
   word accepted from the candidate is accepted from the subsumer. *)
let subsumption_key s =
  Printf.sprintf "%s#%s#%b"
    (Equality_type.to_string s.et)
    (String.concat "," (List.map string_of_int s.pi1))
    s.pass

(* Sorted-list inclusion. *)
let rec subset_sorted cmp xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' ->
      let c = cmp x y in
      if c = 0 then subset_sorted cmp xs' ys'
      else if c > 0 then subset_sorted cmp xs ys'
      else false

let subsumes existing candidate =
  subset_sorted teq_compare existing.theta candidate.theta
  && subset_sorted Int.compare existing.pi2 candidate.pi2

(* The component automaton A_{e₀,Π₀}. *)
let component ctx ~start_et ~start_class =
  let positions =
    List.init (Equality_type.arity start_et) Fun.id
    |> List.filter (fun i -> Equality_type.class_of start_et i = start_class)
  in
  let initial = { et = start_et; theta = []; pi1 = positions; pi2 = []; pass = false } in
  Chase_automata.Buchi.make ~initial ~alphabet:(alphabet ctx)
    ~next:(fun s l -> memo_next ctx s l)
    ~accepting:(fun s -> s.pass)
    ~state_key
  |> Chase_automata.Buchi.with_subsumption ~key:subsumption_key ~subsumes

(* All start pairs (e₀, Π₀): every equality type over sch(T), every class. *)
let start_pairs ctx =
  let schema = Schema.of_tgds (Array.to_list ctx.tgds) in
  Equality_type.all_of_schema schema
  |> List.concat_map (fun e ->
         List.init (Equality_type.num_classes e) (fun c -> (e, c)))

(* The union automaton A_T as the list of its components. *)
let components ctx =
  let comps =
    List.map (fun (e, c) -> ((e, c), component ctx ~start_et:e ~start_class:c)) (start_pairs ctx)
  in
  Obs.gauge "sticky.components" (List.length comps);
  comps

(* Run the deterministic automaton over a finite caterpillar word; [None]
   when it falls into the reject sink. *)
let simulate ctx ~start_et ~start_class word =
  let positions =
    List.init (Equality_type.arity start_et) Fun.id
    |> List.filter (fun i -> Equality_type.class_of start_et i = start_class)
  in
  let initial = { et = start_et; theta = []; pi1 = positions; pi2 = []; pass = false } in
  List.fold_left
    (fun acc letter -> Option.bind acc (fun s -> next ctx s letter))
    (Some initial) word
