module S = Alive_sat.Solver

(* --- Budgets and give-up reasons --- *)

type reason = Timeout | Conflict_limit | Cegar_limit of int

let pp_reason ppf = function
  | Timeout -> Format.pp_print_string ppf "timeout"
  | Conflict_limit -> Format.pp_print_string ppf "conflict limit"
  | Cegar_limit n -> Format.fprintf ppf "CEGAR limit (%d iterations)" n

let reason_to_string r = Format.asprintf "%a" pp_reason r

(* Stable machine-readable tag, used by verdict names, JSON reports and
   the per-reason unknown counters. *)
let reason_slug = function
  | Timeout -> "timeout"
  | Conflict_limit -> "conflicts"
  | Cegar_limit _ -> "cegar"

type budget = {
  timeout : float option;
  conflict_limit : int option;
  max_cegar : int;
}

let default_max_cegar = 1 lsl 16

let no_budget = { timeout = None; conflict_limit = None; max_cegar = default_max_cegar }

let budget ?timeout ?conflict_limit ?(max_cegar = default_max_cegar) () =
  { timeout; conflict_limit; max_cegar }

(* --- Telemetry --- *)

type telemetry = {
  mutable checks : int;
  mutable sat_time : float;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable clauses : int;
  mutable vars : int;
  mutable peak_clauses : int;
  mutable peak_vars : int;
  mutable cegar_iterations : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable store_hits : int;
  mutable store_misses : int;
  mutable static_proved : int;
  (* Always 0 until the benchmark drops [smt.solve.cubes_*]. *)
  mutable cubes_spawned : int;
  mutable cubes_pruned : int;
  mutable aig_nodes_in : int;
  mutable aig_nodes_out : int;
}

let telemetry () =
  {
    checks = 0;
    sat_time = 0.0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    clauses = 0;
    vars = 0;
    peak_clauses = 0;
    peak_vars = 0;
    cegar_iterations = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    store_hits = 0;
    store_misses = 0;
    static_proved = 0;
    cubes_spawned = 0;
    cubes_pruned = 0;
    aig_nodes_in = 0;
    aig_nodes_out = 0;
  }

let add_telemetry ~into (t : telemetry) =
  into.checks <- into.checks + t.checks;
  into.sat_time <- into.sat_time +. t.sat_time;
  into.conflicts <- into.conflicts + t.conflicts;
  into.decisions <- into.decisions + t.decisions;
  into.propagations <- into.propagations + t.propagations;
  into.restarts <- into.restarts + t.restarts;
  into.clauses <- into.clauses + t.clauses;
  into.vars <- into.vars + t.vars;
  into.peak_clauses <- max into.peak_clauses t.peak_clauses;
  into.peak_vars <- max into.peak_vars t.peak_vars;
  into.cegar_iterations <- into.cegar_iterations + t.cegar_iterations;
  into.cache_hits <- into.cache_hits + t.cache_hits;
  into.cache_misses <- into.cache_misses + t.cache_misses;
  into.cache_evictions <- into.cache_evictions + t.cache_evictions;
  into.store_hits <- into.store_hits + t.store_hits;
  into.store_misses <- into.store_misses + t.store_misses;
  into.static_proved <- into.static_proved + t.static_proved;
  into.aig_nodes_in <- into.aig_nodes_in + t.aig_nodes_in;
  into.aig_nodes_out <- into.aig_nodes_out + t.aig_nodes_out

(* A meter tracks what one logical query has consumed: the deadline is fixed
   at query start, the conflict allowance is drawn down across every solver
   call the query makes (CEGAR rounds share one budget). *)
type meter = {
  deadline : float option;  (* absolute, gettimeofday scale *)
  mutable conflicts_left : int option;
  sink : telemetry option;
}

let start_meter ?telemetry:sink (b : budget) =
  {
    deadline = Option.map (fun s -> Unix.gettimeofday () +. s) b.timeout;
    conflicts_left = b.conflict_limit;
    sink;
  }

module Trace = Alive_trace.Trace
module Metrics = Alive_trace.Metrics

(* Registered at module load so they export (at zero) from the first
   Prometheus scrape, before any hard query has fired. *)
let aig_nodes_in_c = Metrics.counter "solve.aig_nodes_in"
let aig_nodes_out_c = Metrics.counter "solve.aig_nodes_out"

(* --- Optional per-query dumps: DIMACS (--dump-cnf), AIGER (--dump-aig) --- *)

let dump_dir : string option Atomic.t = Atomic.make None
let set_dump_dir d = Atomic.set dump_dir d
let dump_aig_dir : string option Atomic.t = Atomic.make None
let set_dump_aig_dir d = Atomic.set dump_aig_dir d
let dump_seq = Atomic.make 0

let dump_query ctx result =
  let cnf_dir = Atomic.get dump_dir in
  let aig_dir = Atomic.get dump_aig_dir in
  if not (cnf_dir = None && aig_dir = None) then begin
    (* One sequence number per query, shared by both artifact kinds, so
       q000017-unsat.cnf and q000017-unsat.aag describe the same solve. *)
    let n = Atomic.fetch_and_add dump_seq 1 in
    let tag =
      match result with
      | `Sat -> "sat"
      | `Unsat -> "unsat"
      | `Unknown r -> "unknown-" ^ reason_slug r
    in
    (match cnf_dir with
    | None -> ()
    | Some dir ->
        let file = Filename.concat dir (Printf.sprintf "q%06d-%s.cnf" n tag) in
        let nvars, clauses = Bitblast.export ctx in
        let oc = open_out file in
        Printf.fprintf oc "c alive query %d result %s\n" n tag;
        output_string oc (Alive_sat.Dimacs.print ~nvars clauses);
        close_out oc);
    match aig_dir with
    | None -> ()
    | Some dir -> (
        match Bitblast.export_aiger ctx with
        | None -> () (* direct (non-AIG) encoding: nothing to dump *)
        | Some text ->
            let file =
              Filename.concat dir (Printf.sprintf "q%06d-%s.aag" n tag)
            in
            let oc = open_out file in
            output_string oc text;
            close_out oc)
  end

(* One solver invocation under the meter, with stats deltas recorded.
   Returns [`Unknown] instead of letting [Budget_exceeded] escape. *)
let metered_check ?assumptions m ctx :
    [ `Sat | `Unsat | `Unknown of reason ] =
  let sp = Trace.begin_span "sat_solve" in
  let s0 = Bitblast.stats ctx in
  let t0 = Unix.gettimeofday () in
  let result =
    match
      Bitblast.check ?assumptions ?conflict_limit:m.conflicts_left
        ?deadline:m.deadline ctx
    with
    | `Sat -> `Sat
    | `Unsat -> `Unsat
    | exception S.Budget_exceeded r ->
        `Unknown (match r with S.Conflicts -> Conflict_limit | S.Deadline -> Timeout)
  in
  let s1 = Bitblast.stats ctx in
  let spent = s1.conflicts - s0.conflicts in
  m.conflicts_left <-
    Option.map (fun left -> max 0 (left - spent)) m.conflicts_left;
  (match m.sink with
  | None -> ()
  | Some t ->
      t.checks <- t.checks + 1;
      t.sat_time <- t.sat_time +. (Unix.gettimeofday () -. t0);
      t.conflicts <- t.conflicts + spent;
      t.decisions <- t.decisions + (s1.decisions - s0.decisions);
      t.propagations <- t.propagations + (s1.propagations - s0.propagations);
      t.restarts <- t.restarts + (s1.restarts - s0.restarts));
  Trace.add_meta sp
    [
      ( "result",
        Trace.Str
          (match result with
          | `Sat -> "sat"
          | `Unsat -> "unsat"
          | `Unknown r -> "unknown:" ^ reason_slug r) );
      ("conflicts", Trace.Int spent);
      ("clauses", Trace.Int s1.clauses);
      ("vars", Trace.Int s1.vars);
    ];
  Trace.end_span sp;
  dump_query ctx result;
  result

(* Clause/variable counts grow during [assert_formula], outside any solve
   call, so they are charged once per context when the query is done with
   it rather than as solve-time deltas. [clauses]/[vars] accumulate across
   contexts; the peaks record the largest single context, which is what the
   encoding's footprint per query actually is. *)
let retire_ctx m ctx =
  let aig = Bitblast.aig_stats ctx in
  (match aig with
  | None -> ()
  | Some a ->
      Metrics.add aig_nodes_in_c a.Aig.n_requests;
      Metrics.add aig_nodes_out_c a.Aig.n_ands);
  match m.sink with
  | None -> ()
  | Some t ->
      let s = Bitblast.stats ctx in
      t.clauses <- t.clauses + s.clauses;
      t.vars <- t.vars + s.vars;
      t.peak_clauses <- max t.peak_clauses s.clauses;
      t.peak_vars <- max t.peak_vars s.vars;
      (match aig with
      | None -> ()
      | Some a ->
          t.aig_nodes_in <- t.aig_nodes_in + a.Aig.n_requests;
          t.aig_nodes_out <- t.aig_nodes_out + a.Aig.n_ands)

(* --- Public interface --- *)

type answer = Sat of Model.t | Unsat | Unknown of reason

let value_to_term = function
  | Term.Vbool b -> Term.bool_ b
  | Term.Vbv c -> Term.const c

let extract_model ctx vars =
  Trace.with_span "model_extract" (fun () ->
      Model.of_list
        (List.map
           (fun (name, sort) -> (name, Bitblast.model_value ctx name sort))
           vars))

(* One context, one metered solve, one retire. *)
let check_sat ?(budget = no_budget) ?telemetry formulas =
  let ctx = Bitblast.create () in
  List.iter (Bitblast.assert_formula ctx) formulas;
  let m = start_meter ?telemetry budget in
  let result =
    match metered_check m ctx with
    | `Unsat -> Unsat
    | `Unknown r -> Unknown r
    | `Sat ->
        Sat
          (extract_model ctx
             (List.sort_uniq Stdlib.compare (List.concat_map Term.vars formulas)))
  in
  retire_ctx m ctx;
  result

let is_valid ?(budget = no_budget) ?telemetry f =
  match check_sat ~budget ?telemetry [ Term.not_ f ] with
  | Unsat -> `Valid
  | Sat m -> `Invalid m
  | Unknown r -> `Unknown r

let default_value = function
  | Term.Bool -> Term.Vbool false
  | Term.Bv n -> Term.Vbv (Bitvec.zero n)

(* Incremental-CEGAR switch: keep one inner context alive across CEGAR
   iterations, asserting each round's instantiation under a fresh guard
   variable and solving with the guard assumed. Off, every round re-creates
   and re-blasts the inner formula from scratch (the historical behavior,
   kept for A/B comparison and differential testing). *)
let incremental_flag = Atomic.make true
let set_incremental b = Atomic.set incremental_flag b
let incremental_enabled () = Atomic.get incremental_flag

let check_valid_ef ?(budget = no_budget) ?telemetry ?max_iterations ~exists f =
  let max_iterations = Option.value max_iterations ~default:budget.max_cegar in
  match exists with
  | [] -> is_valid ~budget ?telemetry f
  | _ ->
      let m = start_meter ?telemetry budget in
      let evar_names = List.map fst exists in
      let outer_vars =
        List.filter (fun (n, _) -> not (List.mem n evar_names)) (Term.vars f)
      in
      (* The negation ∃O ∀E ¬f, solved by expanding the universal E over a
         growing candidate set. The outer solver is incremental: each new
         candidate adds one more conjunct ¬f[E:=cand]. *)
      let outer = Bitblast.create () in
      let add_candidate cand =
        let bindings =
          List.map (fun (n, _) -> (n, value_to_term (Model.find_exn cand n))) exists
        in
        Bitblast.assert_formula outer (Term.not_ (Term.subst bindings f))
      in
      (* Seed with the all-zero candidate. *)
      add_candidate
        (Model.of_list (List.map (fun (n, s) -> (n, default_value s)) exists));
      (* The inner ∃E check. Incremental mode keeps one context for the whole
         query: round [i]'s instantiation f[O:=oᵢ] is asserted as
         guardᵢ ⇒ f[O:=oᵢ] and solved assuming guardᵢ, so variable bits are
         allocated once and learnt clauses carry across rounds. Earlier
         guards are left unconstrained — the solver may simply set them
         false — so each round sees exactly its own instantiation. *)
      let use_incremental = incremental_enabled () in
      let inner_ctx = ref None in
      let inner_rounds = ref 0 in
      let solve_inner f_inner =
        if use_incremental then begin
          let inner =
            match !inner_ctx with
            | Some c -> c
            | None ->
                let c = Bitblast.create () in
                inner_ctx := Some c;
                c
          in
          let guard =
            Term.var (Printf.sprintf "!cegar.on%d" !inner_rounds) Term.Bool
          in
          incr inner_rounds;
          Bitblast.assert_formula inner (Term.implies guard f_inner);
          (inner, metered_check ~assumptions:[ guard ] m inner)
        end
        else begin
          let inner = Bitblast.create () in
          Bitblast.assert_formula inner f_inner;
          let r = metered_check m inner in
          retire_ctx m inner;
          (inner, r)
        end
      in
      (* One refinement round under its own span, so iterations render as
         sibling slices rather than one ever-deepening nest. The recursion
         happens outside the span. *)
      let step iter =
        Trace.with_span ~meta:[ ("iteration", Trace.Int iter) ] "cegar_iter"
          (fun () ->
            match metered_check m outer with
            | `Unknown r -> `Stop (`Unknown r)
            | `Unsat -> `Stop `Valid
            | `Sat -> (
                let o_model = extract_model outer outer_vars in
                (* Does some E satisfy f under this O? *)
                let o_bindings =
                  List.map
                    (fun (n, _) -> (n, value_to_term (Model.find_exn o_model n)))
                    outer_vars
                in
                let f_inner = Term.subst o_bindings f in
                let inner, inner_result = solve_inner f_inner in
                match inner_result with
                | `Unknown r -> `Stop (`Unknown r)
                | `Unsat -> `Stop (`Invalid o_model)
                | `Sat ->
                    let e_model =
                      extract_model inner
                        (List.sort_uniq Stdlib.compare (Term.vars f_inner))
                    in
                    let cand =
                      Model.of_list
                        (List.map
                           (fun (n, s) ->
                             ( n,
                               match Model.find e_model n with
                               | Some v -> v
                               | None -> default_value s ))
                           exists)
                    in
                    add_candidate cand;
                    `Refine))
      in
      let rec loop iter =
        if iter >= max_iterations then `Unknown (Cegar_limit iter)
        else begin
          (match telemetry with
          | Some t -> t.cegar_iterations <- t.cegar_iterations + 1
          | None -> ());
          match step iter with
          | `Stop r -> r
          | `Refine -> loop (iter + 1)
        end
      in
      let result = loop 0 in
      (match !inner_ctx with Some c -> retire_ctx m c | None -> ());
      retire_ctx m outer;
      result
