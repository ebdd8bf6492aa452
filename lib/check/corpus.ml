(* Corpus files: surface-syntax programs with '% expect:' directives,
   written by the fuzzer on a shrunk discrepancy and replayed as a
   regression suite (test/suite_check.ml). *)

open Chase_core

type expectation = No_discrepancy | Parse_error

type entry = { path : string; expectation : expectation; source : string }

let directive_of_line line =
  let line = String.trim line in
  let prefix = "% expect:" in
  if String.length line >= String.length prefix && String.starts_with ~prefix line then
    Some (String.trim (String.sub line (String.length prefix) (String.length line - String.length prefix)))
  else None

let expectation_of_source path source =
  let lines = String.split_on_char '\n' source in
  match List.find_map directive_of_line lines with
  | None | Some "no-discrepancy" -> No_discrepancy
  | Some "parse-error" -> Parse_error
  | Some other -> invalid_arg (Printf.sprintf "%s: unknown directive '%% expect: %s'" path other)

let source_of_case ?(comments = []) tgds db =
  let program =
    List.fold_left
      (fun p t -> Chase_parser.Program.add_tgd t p)
      Chase_parser.Program.empty tgds
  in
  let program = Instance.fold Chase_parser.Program.add_fact db program in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "% expect: no-discrepancy\n";
  List.iter (fun c -> Buffer.add_string buf ("% " ^ c ^ "\n")) comments;
  Buffer.add_string buf (Chase_parser.Printer.print_program program);
  Buffer.contents buf

let write_case ~dir ~name ?comments tgds db =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".chase") in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (source_of_case ?comments tgds db));
  path

let load path =
  let source = In_channel.with_open_bin path In_channel.input_all in
  { path; expectation = expectation_of_source path source; source }

let load_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".chase")
  |> List.sort String.compare
  |> List.map (fun f -> load (Filename.concat dir f))

let replay entry =
  let name = Filename.basename entry.path in
  match entry.expectation with
  | Parse_error -> (
      match Chase_parser.Parser.parse_program entry.source with
      | _ -> Error (Printf.sprintf "%s: expected a parse error, but the program parsed" name)
      | exception Chase_parser.Parser.Error _ | exception Chase_parser.Lexer.Error _ -> Ok ()
      | exception e ->
          Error
            (Printf.sprintf "%s: expected a positioned parse error, got %s" name
               (Printexc.to_string e)))
  | No_discrepancy -> (
      match Chase_parser.Parser.parse_program entry.source with
      | exception e ->
          Error (Printf.sprintf "%s: failed to parse: %s" name (Printexc.to_string e))
      | program -> (
          let tgds = Chase_parser.Program.tgds program in
          let db = Chase_parser.Program.database program in
          match Oracle.check tgds db with
          | [] -> Ok ()
          | ds ->
              Error
                (Printf.sprintf "%s: %s" name
                   (String.concat "; "
                      (List.map
                         (fun d ->
                           Format.asprintf "%a" Oracle.pp_discrepancy d)
                         ds)))
          | exception e ->
              Error (Printf.sprintf "%s: oracle raised %s" name (Printexc.to_string e))))
