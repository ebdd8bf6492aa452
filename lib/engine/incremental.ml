(* A resumable restricted-chase state — the engine core of
   `chasectl serve` (see incremental.mli for the soundness argument).

   The state is exactly what [Restricted.run_compiled] keeps on its
   stack, lifted into a value that survives between calls: the mutable
   instance and its plan source, the compiled plans, the head memo, and
   the pending-candidate pool (the trigger frontier).  [assert_atoms]
   is the semi-naive delta step: each genuinely new atom seeds
   [Plan.iter_delta_homs], so only triggers whose body uses a new atom
   ever enter the pool — never a full re-enumeration.  Monotonicity
   makes this complete: an instance only grows, so a trigger found
   inactive (or applied) before the assert stays inactive forever, and
   every trigger that could have become active matches a new atom.

   Retraction breaks monotonicity, so it falls back honestly: the state
   is rebuilt from the surviving base facts and the next chase is a
   full re-chase ([warm] drops to false).

   Nulls are always canonical (Def 3.1, [gen = None]): a trigger firing
   before or after a resume produces the same atom, so resumed runs
   cannot double-introduce witnesses. *)

open Chase_core

type limit = Steps | Wall | Facts

let limit_name = function Steps -> "steps" | Wall -> "wall" | Facts -> "facts"

type outcome = {
  steps : int;
  saturated : bool;
  incremental : bool;
  limit : limit option;
}

type t = {
  tgds : Tgd.t list;
  strategy : Restricted.strategy;
  backend : Store.backend;
  plans : (Tgd.t * Plan.t) list;
  mutable base : Instance.t;  (* accumulated asserted facts *)
  mutable store : Store.t;
  mutable memo : Plan.Head_memo.t;
  mutable pool : Restricted.Pool.t;
  mutable saturated : bool;
  mutable warm : bool;  (* some chase saturated since the last rebuild *)
  mutable rebuilds : int;
  mutable steps_total : int;
  mutable chases : int;
}

let plan_of t tgd =
  match List.find_opt (fun (x, _) -> x == tgd) t.plans with
  | Some (_, p) -> p
  | None -> Plan.of_tgd tgd

(* Seed the pool with every trigger on the current instance — the cold
   start, also the restart point after a retraction. *)
let seed_pool t =
  let batch = ref [] in
  List.iter
    (fun (tgd, p) ->
      Plan.iter_homs p t.store.Store.source (fun hom -> batch := Trigger.make tgd hom :: !batch))
    t.plans;
  Restricted.Pool.push_batch t.pool !batch

let create ?(strategy = Restricted.Fifo) ?(backend = `Compiled) tgds database =
  let t =
    {
      tgds;
      strategy;
      backend;
      plans = List.map (fun tgd -> (tgd, Plan.of_tgd tgd)) tgds;
      base = database;
      store = Store.of_instance backend database;
      memo = Plan.Head_memo.create ();
      pool = Restricted.Pool.create strategy;
      saturated = false;
      warm = false;
      rebuilds = 0;
      steps_total = 0;
      chases = 0;
    }
  in
  seed_pool t;
  t

let tgds t = t.tgds
let base t = t.base
let backend t = t.backend
let instance t = t.store.Store.snapshot ()
let cardinal t = t.store.Store.cardinal ()
let pending t = Restricted.Pool.size t.pool
let saturated t = t.saturated
let warm t = t.warm
let steps_total t = t.steps_total
let chases t = t.chases
let rebuilds t = t.rebuilds

(* Delta discovery for one new atom: one [plan.delta.seed] pass per
   plan, pushed as a canonically sorted batch (same discipline as
   [Restricted.run_compiled]). *)
let discover_delta t atom =
  let batch = ref [] in
  List.iter
    (fun (tgd, p) ->
      Plan.iter_delta_homs p t.store.Store.source atom (fun hom ->
          batch := Trigger.make tgd hom :: !batch))
    t.plans;
  Restricted.Pool.push_batch t.pool !batch

let assert_atoms t atoms =
  let added =
    List.fold_left
      (fun n atom ->
        t.base <- Instance.add atom t.base;
        if t.store.Store.add atom then begin
          discover_delta t atom;
          n + 1
        end
        else n)
      0 atoms
  in
  if added > 0 then begin
    Obs.count "session.assert.added" added;
    t.saturated <- false
  end;
  added

(* Rebuild from the surviving base: fresh instance, memo and frontier.
   Derived atoms, and any memoized head satisfaction that depended on
   them, are discarded wholesale — retraction is not monotone, so
   nothing finer is sound without provenance tracking. *)
let rebuild t =
  t.store <- Store.of_instance t.backend t.base;
  t.memo <- Plan.Head_memo.create ();
  t.pool <- Restricted.Pool.create t.strategy;
  t.saturated <- false;
  t.warm <- false;
  t.rebuilds <- t.rebuilds + 1;
  Obs.incr "session.rebuild";
  seed_pool t

let retract_atoms t atoms =
  let present = List.filter (fun a -> Instance.mem a t.base) atoms in
  match present with
  | [] -> 0
  | _ ->
      List.iter (fun a -> t.base <- Instance.remove a t.base) present;
      rebuild t;
      List.length present

let default_max_steps = Restricted.default_max_steps

let chase ?(max_steps = default_max_steps) ?deadline ?max_facts t =
  Obs.span "session.chase" @@ fun () ->
  let incremental = t.warm in
  t.chases <- t.chases + 1;
  let next_active =
    Restricted.make_next_active ~plan_of:(plan_of t) ~src:t.store.Store.source
      ~memo:t.memo t.pool
  in
  let over_deadline =
    match deadline with
    | None -> fun _ -> false
    | Some hit -> fun steps -> steps land 31 = 0 && hit ()
  in
  let over_facts =
    match max_facts with
    | None -> fun () -> false
    | Some cap -> fun () -> t.store.Store.cardinal () > cap
  in
  let rec go steps =
    if steps >= max_steps then (steps, Some Steps)
    else if over_deadline steps then (steps, Some Wall)
    else if over_facts () then (steps, Some Facts)
    else
      match next_active () with
      | None ->
          t.saturated <- true;
          t.warm <- true;
          (steps, None)
      | Some trigger ->
          let produced = Trigger.result trigger in
          List.iter
            (fun atom -> if t.store.Store.add atom then discover_delta t atom)
            produced;
          Obs.incr "session.steps";
          go (steps + 1)
  in
  let steps, limit = go 0 in
  t.steps_total <- t.steps_total + steps;
  { steps; saturated = t.saturated; incremental; limit }
