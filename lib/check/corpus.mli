(** The regression corpus: minimal repros serialized in the surface
    syntax, replayed by the test suite.  A corpus file is an ordinary
    program file whose leading comments may carry directives:

    {v
    % expect: no-discrepancy     (default) parse, run the oracle, expect []
    % expect: parse-error        parsing must raise a positioned error
    v}

    Everything the fuzzer writes uses [no-discrepancy]; [parse-error]
    entries pin lexer/parser bugs whose repro is unparseable by design. *)

open Chase_core

type expectation = No_discrepancy | Parse_error

type entry = { path : string; expectation : expectation; source : string }

(** Serialize a case (via [Printer]) with a directive and provenance
    comments; the output re-parses to the same program. *)
val source_of_case : ?comments:string list -> Tgd.t list -> Instance.t -> string

(** Write a case under [dir] (created if missing); returns the path. *)
val write_case :
  dir:string -> name:string -> ?comments:string list -> Tgd.t list -> Instance.t -> string

val load : string -> entry

(** All [.chase] entries under a directory, sorted by name. *)
val load_dir : string -> entry list

(** Replay one entry against its expectation; [Error] describes the
    regression.  Oracle crashes (including assertion failures) are
    caught and reported, never propagated. *)
val replay : entry -> (unit, string) result
