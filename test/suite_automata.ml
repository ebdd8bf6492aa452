(* Direct tests for the Büchi substrate: hand-built automata with known
   languages, lasso validation, budgets. *)

open Chase_automata

(* States and letters are ints; transitions given as a function. *)
let make ~initial ~alphabet ~next ~accepting =
  Buchi.make ~initial ~alphabet ~next ~accepting ~state_key:string_of_int

let unit_tests =
  [
    Alcotest.test_case "empty language: no accepting cycle" `Quick (fun () ->
        (* 0 -a-> 1 -a-> 2 (sink, non-accepting self loop) *)
        let a =
          make ~initial:0 ~alphabet:[ 'a' ]
            ~next:(fun s _ -> match s with 0 -> Some 1 | 1 -> Some 2 | _ -> Some 2)
            ~accepting:(fun s -> s = 1)
        in
        Alcotest.(check bool) "empty" true (Buchi.is_empty a));
    Alcotest.test_case "accepting self-loop is non-empty with a unit cycle" `Quick (fun () ->
        let a =
          make ~initial:0 ~alphabet:[ 'a'; 'b' ]
            ~next:(fun s c ->
              match (s, c) with 0, 'a' -> Some 1 | 1, 'b' -> Some 1 | _ -> None)
            ~accepting:(fun s -> s = 1)
        in
        match Buchi.emptiness a with
        | Buchi.Nonempty lasso ->
            Alcotest.(check (list char)) "prefix" [ 'a' ] lasso.Buchi.prefix;
            Alcotest.(check (list char)) "cycle" [ 'b' ] lasso.Buchi.cycle;
            Alcotest.(check bool) "validates" true (Buchi.accepts_lasso a lasso)
        | _ -> Alcotest.fail "expected non-empty");
    Alcotest.test_case "accepting state outside any cycle does not count" `Quick (fun () ->
        (* 0 -a-> 1 (accepting) -a-> 0 : cycle through accepting — nonempty;
           variant: 1 -a-> 2 sink: empty *)
        let cyc =
          make ~initial:0 ~alphabet:[ 'a' ]
            ~next:(fun s _ -> match s with 0 -> Some 1 | 1 -> Some 0 | _ -> None)
            ~accepting:(fun s -> s = 1)
        in
        Alcotest.(check bool) "cycle accepted" false (Buchi.is_empty cyc);
        let nocyc =
          make ~initial:0 ~alphabet:[ 'a' ]
            ~next:(fun s _ -> match s with 0 -> Some 1 | 1 -> Some 2 | _ -> None)
            ~accepting:(fun s -> s = 1)
        in
        Alcotest.(check bool) "no cycle" true (Buchi.is_empty nocyc));
    Alcotest.test_case "lasso validation rejects wrong cycles" `Quick (fun () ->
        let a =
          make ~initial:0 ~alphabet:[ 'a'; 'b' ]
            ~next:(fun s c ->
              match (s, c) with 0, 'a' -> Some 1 | 1, 'b' -> Some 1 | _ -> None)
            ~accepting:(fun s -> s = 1)
        in
        Alcotest.(check bool) "empty cycle rejected" false
          (Buchi.accepts_lasso a { Buchi.prefix = [ 'a' ]; cycle = [] });
        Alcotest.(check bool) "non-returning cycle rejected" false
          (Buchi.accepts_lasso a { Buchi.prefix = []; cycle = [ 'a' ] });
        Alcotest.(check bool) "rejecting letter rejected" false
          (Buchi.accepts_lasso a { Buchi.prefix = [ 'a' ]; cycle = [ 'a' ] }));
    Alcotest.test_case "budget exceeded on an unbounded state space" `Quick (fun () ->
        let a =
          make ~initial:0 ~alphabet:[ 'a' ] ~next:(fun s _ -> Some (s + 1)) ~accepting:(fun _ -> false)
        in
        match Buchi.emptiness ~max_states:50 a with
        | Buchi.Budget_exceeded n -> Alcotest.(check bool) "counted" true (n >= 50)
        | _ -> Alcotest.fail "expected budget exhaustion");
    Alcotest.test_case "stats count reachable states and transitions" `Quick (fun () ->
        let a =
          make ~initial:0 ~alphabet:[ 'a'; 'b' ]
            ~next:(fun s c ->
              match (s, c) with
              | 0, 'a' -> Some 1
              | 0, 'b' -> Some 2
              | 1, 'a' -> Some 2
              | _ -> None)
            ~accepting:(fun _ -> false)
        in
        let st = Buchi.stats a in
        Alcotest.(check int) "states" 3 st.Buchi.states;
        Alcotest.(check int) "transitions" 3 st.Buchi.transitions);
    Alcotest.test_case "degenerate: accepting initial self-loop has an empty prefix" `Quick
      (fun () ->
        (* the whole automaton is one accepting state looping on itself:
           the lasso needs no prefix at all *)
        let a =
          make ~initial:0 ~alphabet:[ 'a' ] ~next:(fun _ _ -> Some 0) ~accepting:(fun s -> s = 0)
        in
        match Buchi.emptiness a with
        | Buchi.Nonempty lasso ->
            Alcotest.(check (list char)) "empty prefix" [] lasso.Buchi.prefix;
            Alcotest.(check (list char)) "unit cycle" [ 'a' ] lasso.Buchi.cycle;
            Alcotest.(check bool) "validates" true (Buchi.accepts_lasso a lasso)
        | _ -> Alcotest.fail "expected non-empty");
    Alcotest.test_case "degenerate: single non-accepting sink is empty" `Quick (fun () ->
        let looping =
          make ~initial:0 ~alphabet:[ 'a' ] ~next:(fun _ _ -> Some 0) ~accepting:(fun _ -> false)
        in
        Alcotest.(check bool) "self-loop sink" true (Buchi.is_empty looping);
        let dead =
          make ~initial:0 ~alphabet:[ 'a' ] ~next:(fun _ _ -> None) ~accepting:(fun s -> s = 0)
        in
        (* accepting but with no infinite run at all *)
        Alcotest.(check bool) "no successor" true (Buchi.is_empty dead));
    Alcotest.test_case "degenerate: cycle accepting only at its start validates" `Quick
      (fun () ->
        (* 0 -a-> 1 -a-> 2 -a-> 0 with only the cycle's start state (= the
           initial state) accepting *)
        let a =
          make ~initial:0 ~alphabet:[ 'a' ]
            ~next:(fun s _ -> Some ((s + 1) mod 3))
            ~accepting:(fun s -> s = 0)
        in
        Alcotest.(check bool) "hand-built lasso accepted" true
          (Buchi.accepts_lasso a { Buchi.prefix = []; cycle = [ 'a'; 'a'; 'a' ] });
        match Buchi.emptiness a with
        | Buchi.Nonempty lasso ->
            Alcotest.(check bool) "found lasso validates" true (Buchi.accepts_lasso a lasso)
        | _ -> Alcotest.fail "expected non-empty");
    Alcotest.test_case "emptiness and anatomy come from one pass" `Quick (fun () ->
        let a =
          make ~initial:0 ~alphabet:[ 'a'; 'b' ]
            ~next:(fun s c ->
              match (s, c) with
              | 0, 'a' -> Some 1
              | 0, 'b' -> Some 2
              | 1, 'a' -> Some 2
              | _ -> None)
            ~accepting:(fun _ -> false)
        in
        let verdict, st = Buchi.emptiness_with_stats a in
        (match verdict with Buchi.Empty -> () | _ -> Alcotest.fail "expected empty");
        Alcotest.(check int) "states" 3 st.Buchi.states;
        Alcotest.(check int) "transitions" 3 st.Buchi.transitions;
        Alcotest.(check int) "nothing pruned" 0 st.Buchi.pruned);
    Alcotest.test_case "is_empty_opt degrades budget overruns to None" `Quick (fun () ->
        let unbounded =
          make ~initial:0 ~alphabet:[ 'a' ] ~next:(fun s _ -> Some (s + 1))
            ~accepting:(fun _ -> false)
        in
        Alcotest.(check (option bool)) "budget is None" None
          (Buchi.is_empty_opt ~max_states:50 unbounded);
        let small =
          make ~initial:0 ~alphabet:[ 'a' ] ~next:(fun _ _ -> Some 0) ~accepting:(fun _ -> false)
        in
        Alcotest.(check (option bool)) "small answers" (Some true) (Buchi.is_empty_opt small));
    Alcotest.test_case "subsumption pruning shrinks the graph and stays sound" `Quick
      (fun () ->
        (* state (i, j): acceptance depends only on i, so states with the
           same i are language-equal and any j-relation is a valid
           subsumption; j is monotone baggage capped at 4 *)
        let build accepting =
          Buchi.make ~initial:(0, 0) ~alphabet:[ 'a' ]
            ~next:(fun (i, j) _ -> Some ((i + 1) mod 3, min (j + 1) 4))
            ~accepting
            ~state_key:(fun (i, j) -> Printf.sprintf "%d,%d" i j)
          |> Buchi.with_subsumption
               ~key:(fun (i, _) -> string_of_int i)
               ~subsumes:(fun (_, j1) (_, j2) -> j1 <= j2)
        in
        let a = build (fun _ -> false) in
        let verdict, st = Buchi.emptiness_with_stats ~prune:true a in
        (match verdict with
        | Buchi.Empty -> ()
        | _ -> Alcotest.fail "pruned verdict should be empty");
        Alcotest.(check int) "pruned graph has 3 states" 3 st.Buchi.states;
        Alcotest.(check bool) "pruning happened" true (st.Buchi.pruned >= 1);
        let _, full = Buchi.emptiness_with_stats a in
        Alcotest.(check int) "exact graph is larger" 7 full.Buchi.states);
    Alcotest.test_case "pruned lasso that fails validation falls back to exact" `Quick
      (fun () ->
        (* same shape, now accepting on i = 0: the pruned quotient's lasso
           rides a redirected edge and does not replay in the exact
           automaton, so the search must rerun unpruned and return a
           genuine witness *)
        let a =
          Buchi.make ~initial:(0, 0) ~alphabet:[ 'a' ]
            ~next:(fun (i, j) _ -> Some ((i + 1) mod 3, min (j + 1) 4))
            ~accepting:(fun (i, _) -> i = 0)
            ~state_key:(fun (i, j) -> Printf.sprintf "%d,%d" i j)
          |> Buchi.with_subsumption
               ~key:(fun (i, _) -> string_of_int i)
               ~subsumes:(fun (_, j1) (_, j2) -> j1 <= j2)
        in
        match Buchi.emptiness ~prune:true a with
        | Buchi.Nonempty lasso ->
            Alcotest.(check bool) "witness validates in the exact automaton" true
              (Buchi.accepts_lasso a lasso)
        | _ -> Alcotest.fail "expected non-empty");
    Alcotest.test_case "long chains do not overflow the stack" `Quick (fun () ->
        (* 100k-state chain into an accepting loop: exercises the
           iterative Tarjan *)
        let n = 100_000 in
        let a =
          make ~initial:0 ~alphabet:[ 'a' ]
            ~next:(fun s _ -> if s < n then Some (s + 1) else Some n)
            ~accepting:(fun s -> s = n)
        in
        match Buchi.emptiness ~max_states:(n + 10) a with
        | Buchi.Nonempty lasso ->
            Alcotest.(check int) "prefix length" n (List.length lasso.Buchi.prefix);
            Alcotest.(check bool) "validates" true (Buchi.accepts_lasso a lasso)
        | _ -> Alcotest.fail "expected non-empty");
  ]

let suite = [ ("buchi", unit_tests) ]
