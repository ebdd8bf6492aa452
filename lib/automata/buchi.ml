(* Deterministic Büchi automata with lazily generated state spaces.

   The sticky decision procedure (paper §6.5, App. D.2) reduces
   CTres∀∀(S) to the emptiness of a deterministic Büchi automaton A_T
   whose states are combinatorial objects (equality types, sets of
   T-equality types, position sets).  We never build A_T up front: states
   are materialized on demand during the emptiness search, driven by a
   partial transition function ([None] = the automaton's reject sink).

   L(A) ≠ ∅ iff some cycle through an accepting state is reachable from
   the initial state; a witness is a *lasso* — a finite prefix word and a
   non-empty cycle word that can be pumped forever. *)

type ('s, 'a) t = {
  initial : 's;
  alphabet : 'a array;
  next : 's -> 'a -> 's option;  (* deterministic, partial *)
  accepting : 's -> bool;
  state_key : 's -> string;  (* injective encoding, used for hashing *)
  (* Optional subsumption structure (group key, [subsumes existing
     candidate]): a candidate state may be replaced by an
     already-registered state of the same group that subsumes it.  Only
     consulted when exploration is asked to prune (DESIGN.md §10). *)
  subsumption : (('s -> string) * ('s -> 's -> bool)) option;
}

type 'a lasso = { prefix : 'a list; cycle : 'a list }

type 'a emptiness =
  | Empty
  | Nonempty of 'a lasso
  | Budget_exceeded of int  (* states explored when the budget ran out *)

type stats = { states : int; transitions : int; pruned : int }

let make ~initial ~alphabet ~next ~accepting ~state_key =
  {
    initial;
    alphabet = Array.of_list alphabet;
    next;
    accepting;
    state_key;
    subsumption = None;
  }

let with_subsumption ~key ~subsumes a = { a with subsumption = Some (key, subsumes) }

let default_max_states = 200_000

(* Exploration result: the reachable graph, or the point where the
   budget stopped it.  Counts travel alongside so a single pass yields
   both the graph and its stats. *)
type 's graph = {
  g_states : (int, 's) Hashtbl.t;
  g_edges : (int, (int * int) list) Hashtbl.t;  (* src -> (letter, dst) *)
  g_count : int;
  g_transitions : int;
  g_pruned : int;
}

type 's exploration =
  | Complete of 's graph
  | Truncated of stats  (* state budget exhausted *)

(* Explore the reachable graph breadth-first.

   With [prune] and a subsumption structure on the automaton, a
   candidate state subsumed by an already-registered state of the same
   group is not registered; the edge is *redirected* to the subsuming
   state (never dropped — dropping would hide accepting cycles).  See
   DESIGN.md §10 for why Empty verdicts on the pruned graph are sound
   and Nonempty witnesses must be re-validated. *)
let explore ?(max_states = default_max_states) ?(prune = false) a =
  let index : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let states : (int, 's) Hashtbl.t = Hashtbl.create 1024 in
  let edges : (int, (int * int) list) Hashtbl.t = Hashtbl.create 1024 in
  let count = ref 0 and transitions = ref 0 and pruned = ref 0 in
  let queue = Queue.create () in
  let pruning = prune && a.subsumption <> None in
  (* subsumption-group key -> registered state indices, newest first *)
  let groups : (string, int list ref) Hashtbl.t = Hashtbl.create 64 in
  (* pruned candidate key -> index it was redirected to (memo, and keeps
     redirections deterministic across revisits) *)
  let pruned_to : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let register s key =
    match Hashtbl.find_opt index key with
    | Some i -> i
    | None ->
        Obs.incr "buchi.states";
        let i = !count in
        incr count;
        Hashtbl.add index key i;
        Hashtbl.add states i s;
        Queue.add i queue;
        if pruning then begin
          let gkey = (fst (Option.get a.subsumption)) s in
          match Hashtbl.find_opt groups gkey with
          | Some l -> l := i :: !l
          | None -> Hashtbl.add groups gkey (ref [ i ])
        end;
        i
  in
  let find_subsumer s key =
    if not pruning then None
    else
      match Hashtbl.find_opt pruned_to key with
      | Some j -> Some j
      | None -> (
          let gkey, subsumes = Option.get a.subsumption in
          match Hashtbl.find_opt groups (gkey s) with
          | None -> None
          | Some l ->
              List.find_opt (fun i -> subsumes (Hashtbl.find states i) s) !l)
  in
  ignore (register a.initial (a.state_key a.initial));
  let over = ref false in
  (* Visit states in registration order, each one's letters in alphabet
     order; no further [next] call is made once the budget stops. *)
  while (not (Queue.is_empty queue)) && not !over do
    let i = Queue.pop queue in
    let s = Hashtbl.find states i in
    let outs = ref [] in
    Array.iteri
      (fun li letter ->
        if not !over then
          match a.next s letter with
          | None -> ()
          | Some s' -> (
              let key = a.state_key s' in
              match Hashtbl.find_opt index key with
              | Some j ->
                  Obs.incr "buchi.transitions";
                  incr transitions;
                  outs := (li, j) :: !outs
              | None -> (
                  match find_subsumer s' key with
                  | Some j ->
                      (* redirect, don't register *)
                      Hashtbl.replace pruned_to key j;
                      incr pruned;
                      Obs.incr "buchi.pruned";
                      Obs.incr "buchi.transitions";
                      incr transitions;
                      outs := (li, j) :: !outs
                  | None ->
                      if !count >= max_states then over := true
                      else begin
                        Obs.incr "buchi.transitions";
                        incr transitions;
                        let j = register s' key in
                        outs := (li, j) :: !outs
                      end)))
      a.alphabet;
    Hashtbl.replace edges i !outs
  done;
  let counts = { states = !count; transitions = !transitions; pruned = !pruned } in
  if !over then Truncated counts
  else
    Complete
      {
        g_states = states;
        g_edges = edges;
        g_count = !count;
        g_transitions = !transitions;
        g_pruned = !pruned;
      }

(* Tarjan SCC over an explicit int graph. *)
let sccs n succ =
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] and counter = ref 0 and ncomp = ref 0 in
  (* iterative Tarjan to avoid stack overflow on long chains *)
  let strong v0 =
    let call_stack = ref [ (v0, ref (succ v0)) ] in
    index.(v0) <- !counter;
    low.(v0) <- !counter;
    incr counter;
    stack := v0 :: !stack;
    on_stack.(v0) <- true;
    while !call_stack <> [] do
      match !call_stack with
      | [] -> ()
      | (v, rest) :: tl -> (
          match !rest with
          | w :: more ->
              rest := more;
              if index.(w) = -1 then begin
                index.(w) <- !counter;
                low.(w) <- !counter;
                incr counter;
                stack := w :: !stack;
                on_stack.(w) <- true;
                call_stack := (w, ref (succ w)) :: !call_stack
              end
              else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
          | [] ->
              call_stack := tl;
              if low.(v) = index.(v) then begin
                let rec pop () =
                  match !stack with
                  | w :: rest' ->
                      stack := rest';
                      on_stack.(w) <- false;
                      comp.(w) <- !ncomp;
                      if w <> v then pop ()
                  | [] -> ()
                in
                pop ();
                incr ncomp
              end;
              (match tl with
              | (p, _) :: _ -> low.(p) <- min low.(p) low.(v)
              | [] -> ()))
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strong v
  done;
  (comp, !ncomp)

(* Run the automaton on a lasso, checking that it accepts: the run must
   reach the cycle start, traverse the cycle back to the same state, and
   see an accepting state within the cycle.  Used to validate witnesses
   (certificate checking), and to re-validate lassos found on a
   subsumption-pruned graph whose redirected edges need not correspond
   to real runs. *)
let accepts_lasso a { prefix; cycle } =
  if cycle = [] then false
  else
    let step s letter = a.next s letter in
    let run s word =
      List.fold_left
        (fun acc letter -> match acc with None -> None | Some s -> step s letter)
        (Some s) word
    in
    match run a.initial prefix with
    | None -> false
    | Some s0 -> (
        (* accepting state visited somewhere along the cycle (checked from
           s0, inclusive of intermediate states) *)
        let rec go s word seen_acc =
          match word with
          | [] -> if a.state_key s = a.state_key s0 then seen_acc else false
          | l :: rest -> (
              match step s l with
              | None -> false
              | Some s' -> go s' rest (seen_acc || a.accepting s'))
        in
        go s0 cycle (a.accepting s0))

(* Lasso extraction from an explored graph with a chosen accepting state
   [acc] inside an SCC with an internal edge. *)
let extract_lasso a g comp acc =
  let edges = g.g_edges in
  (* BFS path from 0 (initial) to acc, then a cycle from acc to acc
     staying inside its SCC. *)
  let bfs ~restrict src dst =
    let prev = Hashtbl.create 64 in
    let visited = Hashtbl.create 64 in
    Hashtbl.add visited src ();
    let q = Queue.create () in
    Queue.add src q;
    let found = ref false in
    while (not (Queue.is_empty q)) && not !found do
      let i = Queue.pop q in
      List.iter
        (fun (li, j) ->
          if
            (not (Hashtbl.mem visited j))
            && (not (restrict && comp.(j) <> comp.(dst)))
          then begin
            Hashtbl.add visited j ();
            Hashtbl.add prev j (i, li);
            if j = dst then found := true else Queue.add j q
          end)
        (Option.value ~default:[] (Hashtbl.find_opt edges i))
    done;
    if (not !found) && src <> dst then None
    else begin
      (* reconstruct *)
      let rec build j acc' =
        if j = src && acc' <> [] then acc'
        else
          match Hashtbl.find_opt prev j with
          | Some (i, li) -> build i (a.alphabet.(li) :: acc')
          | None -> acc'
      in
      Some (build dst [])
    end
  in
  (* Cycle: one step out of acc inside the SCC, then back. *)
  let cycle =
    let outs = Option.value ~default:[] (Hashtbl.find_opt edges acc) in
    List.find_map
      (fun (li, j) ->
        if comp.(j) <> comp.(acc) then None
        else if j = acc then Some [ a.alphabet.(li) ]
        else
          match bfs ~restrict:true j acc with
          | Some w -> Some (a.alphabet.(li) :: w)
          | None -> None)
      outs
  in
  let prefix = if acc = 0 then Some [] else bfs ~restrict:false 0 acc in
  match (prefix, cycle) with
  | Some p, Some c -> Some { prefix = p; cycle = c }
  | _ -> None (* unreachable: acc was picked reachable in a good SCC *)

let analyse a g =
  let n = g.g_count in
  let succ i = List.map snd (Option.value ~default:[] (Hashtbl.find_opt g.g_edges i)) in
  let comp, _ = sccs n succ in
  (* An SCC is "good" when it contains an accepting state and has an
     internal edge (covers the self-loop case too). *)
  let has_internal_edge = Hashtbl.create 16 in
  Hashtbl.iter
    (fun i outs ->
      List.iter
        (fun (_, j) -> if comp.(i) = comp.(j) then Hashtbl.replace has_internal_edge comp.(i) ())
        outs)
    g.g_edges;
  let target = ref None in
  for i = 0 to n - 1 do
    if
      !target = None
      && a.accepting (Hashtbl.find g.g_states i)
      && Hashtbl.mem has_internal_edge comp.(i)
    then target := Some i
  done;
  match !target with
  | None -> Empty
  | Some acc -> (
      match extract_lasso a g comp acc with
      | Some ({ prefix; cycle } as lasso) ->
          if Obs.enabled () then
            Obs.event "lasso"
              [
                ("prefix", Obs.Int (List.length prefix));
                ("cycle", Obs.Int (List.length cycle));
                ("states", Obs.Int n);
              ];
          Nonempty lasso
      | None -> Empty (* unreachable: acc was picked reachable in a good SCC *))

(* Emptiness and exploration stats from one pass.  On a pruned graph an
   Empty verdict is sound as-is; a Nonempty witness may ride redirected
   edges, so it is validated against the real transition function and,
   when invalid, the search reruns without pruning (DESIGN.md §10). *)
let rec emptiness_with_stats ?max_states ?(prune = false) a =
  Obs.span "buchi.emptiness" @@ fun () ->
  match explore ?max_states ~prune a with
  | Truncated c -> (Budget_exceeded c.states, c)
  | Complete g -> (
      let counts = { states = g.g_count; transitions = g.g_transitions; pruned = g.g_pruned } in
      match analyse a g with
      | Nonempty lasso when g.g_pruned > 0 && not (accepts_lasso a lasso) ->
          (* The witness used redirected edges and is not a real run:
             fall back to the exact graph. *)
          Obs.incr "buchi.prune.fallback";
          emptiness_with_stats ?max_states ~prune:false a
      | verdict -> (verdict, counts))

let emptiness ?max_states ?prune a = fst (emptiness_with_stats ?max_states ?prune a)

let is_empty_opt ?max_states a =
  match emptiness ?max_states a with
  | Empty -> Some true
  | Nonempty _ -> Some false
  | Budget_exceeded _ -> None

let is_empty ?max_states a =
  match emptiness ?max_states a with
  | Empty -> true
  | Nonempty _ -> false
  | Budget_exceeded n -> invalid_arg (Printf.sprintf "Buchi.is_empty: budget at %d states" n)

let stats ?max_states ?(prune = false) a =
  match explore ?max_states ~prune a with
  | Truncated c -> c
  | Complete g -> { states = g.g_count; transitions = g.g_transitions; pruned = g.g_pruned }
