(* Model-faithful acyclicity (MFA) [Cuenca Grau et al., JAIR'13 — the
   paper's reference 16]: the strongest practical acyclicity notion.

   Skolemize the existential variables — z in σ becomes the term
   f_{σ,z}(x̄) over the frontier — and chase the critical database with
   the skolem (= semi-oblivious) chase: triggers agreeing on the frontier
   produce the same terms and fire once.  The set is MFA when no *cyclic*
   term appears: a skolem function nested inside its own arguments.  MFA
   implies termination of the skolem chase on every database, hence of
   the restricted chase: a sound termination certificate strictly
   subsuming weak and joint acyclicity (and incomparable with the
   restricted-only effects the paper captures — see the tests). *)

open Chase_core
open Chase_engine

type verdict =
  | Mfa of { atoms : int }  (* saturated with no cyclic term: certified *)
  | Cyclic_term of { tgd : Tgd.t; var : string }  (* the repeated skolem function *)
  | Budget of { atoms : int }  (* inconclusive *)

let critical_database tgds =
  let schema = Schema.of_tgds tgds in
  Schema.fold
    (fun p ar acc -> Instance.add (Atom.make p (List.init ar (fun _ -> Term.Const "c"))) acc)
    schema Instance.empty

module FnSet = Set.Make (struct
  type t = string * string  (* TGD name, existential variable *)

  let compare (a1, b1) (a2, b2) =
    let c = String.compare a1 a2 in
    if c <> 0 then c else String.compare b1 b2
end)

let default_max_steps = 20_000

(* The skolem null for (σ, h|fr, z): a digest-named stand-in for the
   term f_{σ,z}(h(x̄)). *)
let skolem_null tgd frontier_hom var =
  let key =
    Printf.sprintf "%s|%s|%s" (Tgd.name tgd) (Substitution.to_string frontier_hom) var
  in
  Term.Null ("sk" ^ String.sub (Digest.to_hex (Digest.string key)) 0 16)

let decide ?(max_steps = default_max_steps) tgds =
  let history : (Term.t, FnSet.t) Hashtbl.t = Hashtbl.create 64 in
  let history_of t = Option.value ~default:FnSet.empty (Hashtbl.find_opt history t) in
  let cyclic = ref None in
  let db = critical_database tgds in
  (* semi-oblivious: one application per (σ, h|fr) *)
  let module KeySet = Set.Make (Trigger) in
  let applied = ref KeySet.empty in
  let queue = Queue.create () in
  let enqueue t =
    let key = Trigger.make (Trigger.tgd t) (Trigger.frontier_hom t) in
    if not (KeySet.mem key !applied) then begin
      applied := KeySet.add key !applied;
      Queue.add t queue
    end
  in
  Seq.iter enqueue (Trigger.all tgds db);
  let rec loop instance n =
    if !cyclic <> None then (instance, true)
    else if Queue.is_empty queue then (instance, true)
    else if n >= max_steps then (instance, false)
    else begin
      let trigger = Queue.pop queue in
      let tgd = Trigger.tgd trigger in
      let fr_hom = Trigger.frontier_hom trigger in
      let inherited =
        Term.Set.fold
          (fun t acc -> FnSet.union (history_of t) acc)
          (Trigger.frontier_terms trigger) FnSet.empty
      in
      (* build the skolem instantiation of the head *)
      let v =
        Term.Set.fold
          (fun x acc ->
            match x with
            | Term.Var var ->
                let fn = (Tgd.name tgd, var) in
                if FnSet.mem fn inherited then begin
                  (match !cyclic with None -> cyclic := Some (tgd, var) | Some _ -> ());
                  acc
                end
                else begin
                  let null = skolem_null tgd fr_hom var in
                  Hashtbl.replace history null
                    (FnSet.add fn (FnSet.union inherited (history_of null)));
                  Substitution.bind x null acc
                end
            | Term.Const _ | Term.Null _ -> acc)
          (Tgd.existential_vars tgd) fr_hom
      in
      if !cyclic <> None then (instance, true)
      else begin
        let produced = List.map (Substitution.apply_atom v) (Tgd.head tgd) in
        let after = List.fold_left (fun i a -> Instance.add a i) instance produced in
        List.iter
          (fun atom ->
            if not (Instance.mem atom instance) then
              Seq.iter enqueue (Trigger.involving tgds after atom))
          produced;
        loop after (n + 1)
      end
    end
  in
  let final, finished = loop db 0 in
  match !cyclic with
  | Some (tgd, var) -> Cyclic_term { tgd; var }
  | None ->
      if finished then Mfa { atoms = Instance.cardinal final }
      else Budget { atoms = Instance.cardinal final }

let is_mfa ?max_steps tgds =
  match decide ?max_steps tgds with Mfa _ -> true | Cyclic_term _ | Budget _ -> false
