(* serve: one long-lived session driven through [Server.dispatch_line]
   by one closed-loop client.  Writes assert facts and chase
   incrementally, reads query the saturated instance, and a few ops
   decide or ask for stats.  Every [retract_every]-th op retracts all
   the facts written since the previous one (a full rebuild), so the
   session goes back to its base database: the size of the session at
   op i depends on i only, never on how many ops a run managed. *)

open Chase_core
open Chase_engine
module Server = Chase_serve.Server
module Json = Chase_serve.Json

let tgds_text =
  {|w1: emp(E,D), loc(D,C) -> works_in(E,C).
w2: emp(E,D) -> exists M. mgr(D,M).
w3: mgr(D,M) -> exists O. office(M,O).
w4: works_in(E,C) -> city(C).
|}

let departments = 200
let cities = 60
let base_employees = 8000
let retract_every = 6000
let max_steps = 10_000_000

(* The benchmark's own copy of the asserted facts, from which it derives
   every expected query answer. *)
type mirror = {
  mutable emps : (int, int list) Hashtbl.t;  (* department -> employees *)
  mutable locs : (int, int list) Hashtbl.t;  (* department -> cities *)
  rng : Random.State.t;
  mutable next_emp : int;
  (* the base database, and the facts written since the last retract *)
  base_emps : (int, int list) Hashtbl.t;
  base_locs : (int, int list) Hashtbl.t;
  mutable written : string list;
}

let emp e d = Printf.sprintf "emp(e%d,d%d)." e d
let loc d c = Printf.sprintf "loc(d%d,c%d)." d c
let get tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)
let push tbl k v = Hashtbl.replace tbl k (v :: get tbl k)

(* Employees join departments in turn, so at any moment departments are
   the same size and reads cost about the same whichever department
   they ask. *)
let hire m =
  push m.emps (m.next_emp mod departments) m.next_emp;
  m.next_emp <- m.next_emp + 1

let new_mirror seed =
  let rng = Random.State.make [| seed; 41 |] in
  let emps = Hashtbl.create departments and locs = Hashtbl.create departments in
  let m = { emps; locs; rng; next_emp = 0; base_emps = emps; base_locs = locs; written = [] } in
  (* two distinct cities per department *)
  for d = 0 to departments - 1 do
    let c = Random.State.int rng cities in
    push m.locs d c;
    push m.locs d ((c + 1 + Random.State.int rng (cities - 1)) mod cities)
  done;
  for _ = 1 to base_employees do
    hire m
  done;
  { m with emps = Hashtbl.copy emps; locs = Hashtbl.copy locs }

let program_text m =
  let b = Buffer.create (32 * base_employees) in
  Buffer.add_string b tgds_text;
  for d = 0 to departments - 1 do
    List.iter (fun c -> Buffer.add_string b (loc d c ^ "\n")) (get m.base_locs d);
    List.iter (fun e -> Buffer.add_string b (emp e d ^ "\n")) (get m.base_emps d)
  done;
  Buffer.contents b

type expect =
  | Saturated  (* a chase reply with status "terminated" *)
  | Answers of string list  (* sorted "e,c" pairs *)
  | Any_ok

(* One prepared op: its request lines, the reply expected of the last
   one, and what the traced run replays on the mirror engine state. *)
type engine_op =
  | Assert of Atom.t list
  | Retract of Atom.t list
  | Query of string
  | Nothing

type op = {
  kind : string;
  lines : string list;
  expect : expect;
  work : engine_op;
  mutable applied : bool;  (* [work] has reached the mirror engine state *)
}

let request fields = Json.to_string (Json.Obj fields)

let chase_line = request [ ("op", Json.Str "chase"); ("max_steps", Json.Int max_steps) ]

let facts_line op facts = request [ ("op", Json.Str op); ("facts", Json.Str (String.concat " " facts)) ]

let atoms facts = List.map Chase_parser.Parser.parse_atom_exn facts

(* One write in ten opens a new city for one of the [hot] departments
   (a fan-out write: every employee there gains a works_in fact); the
   others hire an employee. *)
let hot = 10

let write m =
  let d = Random.State.int m.rng hot in
  let fact =
    if Random.State.int m.rng 10 = 0 && List.length (get m.locs d) < 8 then begin
      let c = Random.State.int m.rng cities in
      let fact = loc d c in
      (* a city the department already has is asserted again, a no-op *)
      if not (List.mem c (get m.locs d)) then begin
        push m.locs d c;
        m.written <- fact :: m.written
      end;
      fact
    end
    else begin
      let e = m.next_emp in
      hire m;
      let fact = emp e (e mod departments) in
      m.written <- fact :: m.written;
      fact
    end
  in
  {
    kind = "write";
    lines = [ facts_line "assert" [ fact ]; chase_line ];
    expect = Saturated;
    work = Assert (atoms [ fact ]);
    applied = false;
  }

(* Retract every fact written since the last retract: the session is
   back at its base database, and new hires take the retracted names. *)
let retract m =
  let facts = List.rev m.written in
  m.written <- [];
  m.emps <- Hashtbl.copy m.base_emps;
  m.locs <- Hashtbl.copy m.base_locs;
  m.next_emp <- base_employees;
  {
    kind = "retract";
    lines = [ facts_line "retract" facts; chase_line ];
    expect = Saturated;
    work = Retract (atoms facts);
    applied = false;
  }

let read m =
  let d = Random.State.int m.rng departments in
  let q = Printf.sprintf "emp(X,d%d), works_in(X,C) -> ans(X,C)." d in
  let expected =
    List.concat_map
      (fun e -> List.map (fun c -> Printf.sprintf "e%d,c%d" e c) (get m.locs d))
      (get m.emps d)
  in
  {
    kind = "read";
    lines = [ request [ ("op", Json.Str "query"); ("query", Json.Str q) ] ];
    expect = Answers (List.sort compare expected);
    work = Query q;
    applied = false;
  }

let admin op = { kind = "admin"; lines = [ request [ ("op", Json.Str op) ] ]; expect = Any_ok; work = Nothing; applied = false }

let prepare m i =
  if i mod retract_every = retract_every - 1 then retract m
  else
    let r = Random.State.int m.rng 100 in
    if r < 20 then write m else if r < 90 then read m else if r < 95 then admin "stats" else admin "decide"

type state = { server : Server.t; mirror : mirror; engine : Incremental.t option; text_bytes : int }

let parse_span = Trace.name "parser.parse"
let json_decode_span = Trace.name "json.decode"
let protocol_decode_span = Trace.name "protocol.decode"
let dispatch_span = Trace.name "server.dispatch"
let json_encode_span = Trace.name "json.encode"
let assert_span = Trace.name "incremental.assert"
let chase_span = Trace.name "incremental.chase"
let rebuild_span = Trace.name "incremental.rebuild"
let snapshot_span = Trace.name "store.snapshot"
let query_span = Trace.name "query.answers"
let mirror_span = Trace.name "mirror"

(* traced writes, the base of plan.delta_seeds *)
let writes = ref 0

(* The op's engine work on an [Incremental] state that mirrors the
   session, with a span around each engine call. *)
let apply_engine inc op =
  op.applied <- true;
  match op.work with
  | Assert atoms ->
      if !Trace.on then incr writes;
      ignore (Trace.span assert_span (fun () -> Incremental.assert_atoms inc atoms));
      ignore (Trace.span chase_span (fun () -> Incremental.chase ~max_steps inc))
  | Retract atoms ->
      Trace.span rebuild_span (fun () ->
          ignore (Incremental.retract_atoms inc atoms);
          ignore (Incremental.chase ~max_steps inc))
  | Query q ->
      let q = Chase_query.Conjunctive_query.parse q in
      let i = Trace.span snapshot_span (fun () -> Incremental.instance inc) in
      ignore (Trace.span query_span (fun () -> Chase_query.Conjunctive_query.answers q i))
  | Nothing -> ()

(* The traced op: each request through the serve layers with a span
   around each, then the same op on the mirror engine state. *)
let traced_op st op =
  let replies =
    Obs.suspended (fun () ->
        List.map
          (fun line ->
            let j = Trace.probe json_decode_span (fun () -> Json.parse line) in
            ignore (Trace.probe protocol_decode_span (fun () -> Chase_serve.Protocol.of_json j));
            let reply = Trace.span dispatch_span (fun () -> Server.dispatch st.server line) in
            Trace.span json_encode_span (fun () -> Json.to_string reply))
          op.lines)
  in
  Trace.probe mirror_span (fun () -> apply_engine (Option.get st.engine) op);
  replies

let ok_reply j = Json.member "ok" j = Some (Json.Bool true)

let check st op replies =
  (* untraced ops reach the mirror engine state here, untimed *)
  Option.iter (fun inc -> if not op.applied then apply_engine inc op) st.engine;
  let parsed = List.map Json.parse replies in
  let last = List.nth parsed (List.length parsed - 1) in
  let ok =
    List.for_all ok_reply parsed
    &&
    match op.expect with
    | Any_ok -> true
    | Saturated -> Json.member "status" last = Some (Json.Str "terminated")
    | Answers expected -> (
        match Json.member "answers" last with
        | Some (Json.Arr tuples) ->
            let got =
              List.map
                (function
                  | Json.Arr [ Json.Str e; Json.Str c ] -> e ^ "," ^ c | _ -> "malformed")
                tuples
            in
            List.sort compare got = expected
        | _ -> false)
  in
  { Common.ok; conclusive = ok; kind = op.kind }

let expect_ok line reply =
  if not (ok_reply (Json.parse reply)) then failwith ("set-up request failed: " ^ line ^ " -> " ^ reply)

let workload (cfg : Common.config) =
  let seed = cfg.Common.seed in
  let text = program_text (new_mirror seed) in
  let load =
    request
      [ ("op", Json.Str "load-program"); ("program", Json.Str text); ("max_steps", Json.Int max_steps) ]
  in
  let setup () =
    (* set-up is what opening a session costs: create, load, cold chase *)
    let server = Server.create Server.default_config in
    List.iter
      (fun line ->
        Calib.maybe_point ();
        expect_ok line (Server.dispatch_line server line))
      [ load; chase_line ];
    let engine =
      if not !Trace.on then None
      else begin
        (* the parser on its own, on the text the server just parsed *)
        let p = Trace.span parse_span (fun () -> Chase_parser.Parser.parse_program text) in
        let inc = Incremental.create (Chase_parser.Program.tgds p) (Chase_parser.Program.database p) in
        ignore (Incremental.chase ~max_steps inc);
        Some inc
      end
    in
    { server; mirror = new_mirror seed; engine; text_bytes = String.length text }
  in
  let prepare st i =
    let op = prepare st.mirror i in
    if cfg.Common.corrupt_reference && i = 0 then
      (* the first op's reference is wrong on purpose *)
      { op with expect = Answers [ "corrupted" ] }
    else op
  in
  let w =
    {
      Common.setup;
      (* the measured ops start right after a retract, on the base
         database, and end on one *)
      warmup = retract_every;
      cycle = retract_every;
      prepare;
      run = (fun st op -> List.map (Server.dispatch_line st.server) op.lines);
      traced_run = traced_op;
      check;
      sizes =
        (fun st ->
          [
            ("departments", departments);
            ("cities", cities);
            ("base_employees", base_employees);
            ("retract_every", retract_every);
            ("text_bytes", st.text_bytes);
          ]);
      layers =
        (fun _ stats ~ops:_ ~kinds:_ ->
          let c = Obs.Stats.counter stats in
          [
            ("incremental.assert_ms", Trace.mean "incremental.assert" ~per_ns:1e6);
            ("incremental.chase_ms", Trace.mean "incremental.chase" ~per_ns:1e6);
            ("incremental.rebuild_ms", Trace.mean "incremental.rebuild" ~per_ns:1e6);
            ( "plan.delta_seeds",
              if !writes = 0 then 0. else float_of_int (c "plan.delta.seed") /. float_of_int !writes );
            ("store.snapshot_ms", Trace.mean "store.snapshot" ~per_ns:1e6);
            ("query.answers_ms", Trace.mean "query.answers" ~per_ns:1e6);
            ("json.decode_us", Trace.mean "json.decode" ~per_ns:1e3);
            ("protocol.decode_us", Trace.mean "protocol.decode" ~per_ns:1e3);
            ("server.dispatch_us", Trace.mean "server.dispatch" ~per_ns:1e3);
            ("json.encode_us", Trace.mean "json.encode" ~per_ns:1e3);
          ]);
    }
  in
  (w, String.length text)
