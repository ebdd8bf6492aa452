(* Entry point: bench.exe --workload W --seed N --seconds S --trace 0|1
   [--corrupt-reference].  Prints a "# detail" line and, last, the
   result object; exits 1 when any answer was wrong. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload decide|chase-bulk|chase-derive|serve --seed N --seconds S \
     --trace 0|1 [--corrupt-reference]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let corrupt = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := v = "1";
        parse rest
    | "--corrupt-reference" :: rest ->
        corrupt := true;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let cfg =
    {
      Common.workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace;
      corrupt_reference = !corrupt;
    }
  in
  let go (w, text_bytes) = Common.run_workload cfg w ~text_bytes in
  let correct =
    match !workload with
    | "decide" -> go (W_decide.workload cfg)
    | "chase-bulk" -> go (W_chase.bulk cfg)
    | "chase-derive" -> go (W_chase.derive cfg)
    | "serve" -> go (W_serve.workload cfg)
    | _ -> usage ()
  in
  exit (if correct then 0 else 1)
