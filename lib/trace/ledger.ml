(* The cross-run performance ledger.

   Every instrumented engine run appends exactly one JSONL record to
   bench/ledger.jsonl: enough identity to know what ran (git revision,
   label, jobs, budget) and enough aggregate to spot a regression (wall
   time, solver counters, verdict histogram, per-phase totals from the
   metrics registry). `alive_cli perf diff` compares the newest record
   against a baseline and flags wall/conflict movements beyond a
   threshold. *)

type phase_total = { phase : string; count : int; total_s : float }

type op_stat = { op : string; op_count : int; op_total_s : float; op_p99_s : float }

type host = { nproc : int; cpu_model : string; ocaml_version : string }

type record = {
  schema : int;
  timestamp : string;  (* ISO-8601 UTC *)
  git_rev : string;
  dirty : bool;  (* uncommitted changes in the tree (schema >= 9) *)
  host : host;  (* where the run happened (schema >= 10) *)
  label : string;  (* e.g. "corpus_check", "bench.parallel" *)
  jobs : int;
  tasks : int;
  budget_timeout_s : float;  (* 0 = none *)
  budget_conflicts : int;  (* 0 = none *)
  wall_s : float;
  cpu_s : float;  (* process user + sys seconds (schema >= 9; 0 before) *)
  sat_s : float;
  infer_s : float;  (* precondition-inference wall (schema >= 3; 0 before) *)
  queries : int;
  conflicts : int;
  cegar_iterations : int;
  cache_hits : int;  (* canonical verdict cache (schema >= 2; 0 before) *)
  cache_misses : int;
  cache_evictions : int;
  peak_clauses : int;  (* largest single SAT context of the run *)
  peak_vars : int;
  requests : int;  (* daemon/service fields (schema >= 4; 0 before) *)
  store_hits : int;  (* persistent verdict store *)
  store_misses : int;
  static_proved : int;  (* tier-0 static prover (schema >= 5; 0 before) *)
  log_lines : int;  (* telemetry fields (schema >= 6; 0/[] before) *)
  slow_queries : int;
  ops : op_stat list;  (* per-op daemon latency totals *)
  aig_nodes_in : int;  (* AIG simplifier gate counts (schema >= 7) *)
  aig_nodes_out : int;
  opt_firings : int;  (* optimizer fields (schema >= 8; 0 before) *)
  opt_firings_per_s : float;  (* whole-pass rewrite throughput *)
  opt_match_per_s : float;  (* compiled single-match throughput *)
  opt_match_linear_per_s : float;  (* per-rule-scan baseline throughput *)
  opt_top10_share : float;  (* firing share of the top ten rules (Fig. 9) *)
  opt_gen_s : float;  (* workload generation seconds (schema >= 9) *)
  opt_pass_s : float;  (* rewrite-pass seconds (schema >= 9) *)
  verdicts : (string * int) list;  (* verdict name -> count *)
  phases : phase_total list;
}

let schema_version = 10

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let git_rev () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some s when String.length s >= 12 -> String.sub s 0 12
  | Some s when s <> "" -> s
  | _ -> (
      try
        let ic =
          Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null"
        in
        let line = try input_line ic with End_of_file -> "" in
        ignore (Unix.close_process_in ic);
        if line = "" then "unknown" else line
      with _ -> "unknown")

(* Any output from [git status --porcelain] means the tree differs from
   [git_rev]: the record then cannot be reproduced from that commit. *)
let git_dirty () =
  try
    let ic = Unix.open_process_in "git status --porcelain 2>/dev/null" in
    let out = In_channel.input_all ic in
    ignore (Unix.close_process_in ic);
    String.trim out <> ""
  with _ -> false

(* Older records carry no host; [nproc = 0] marks it unknown. *)
let unknown_host = { nproc = 0; cpu_model = ""; ocaml_version = "" }

let cpu_model () =
  try
    In_channel.with_open_text "/proc/cpuinfo" In_channel.input_lines
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.trim (String.sub line 0 i) = "model name" ->
               Some
                 (String.trim
                    (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> None)
    |> Option.value ~default:"unknown"
  with Sys_error _ -> "unknown"

let this_host =
  lazy
    {
      nproc = Domain.recommended_domain_count ();
      cpu_model = cpu_model ();
      ocaml_version = Sys.ocaml_version;
    }

let host () = Lazy.force this_host

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let phases_of_metrics () =
  List.filter_map
    (fun (h : Metrics.hist_snapshot) ->
      if h.count > 0 then
        Some { phase = h.name; count = h.count; total_s = h.total_s }
      else None)
    (Metrics.snapshot ()).histograms

let make ~label ~jobs ~tasks ?(budget_timeout_s = 0.0) ?(budget_conflicts = 0)
    ~wall_s ?(cpu_s = cpu_time ()) ~sat_s ?(infer_s = 0.0) ~queries ~conflicts ~cegar_iterations
    ?(cache_hits = 0)
    ?(cache_misses = 0) ?(cache_evictions = 0) ?(peak_clauses = 0)
    ?(peak_vars = 0) ?(requests = 0) ?(store_hits = 0) ?(store_misses = 0)
    ?(static_proved = 0) ?(log_lines = 0) ?(slow_queries = 0) ?(ops = [])
    ?(aig_nodes_in = 0) ?(aig_nodes_out = 0) ?(opt_firings = 0)
    ?(opt_firings_per_s = 0.0) ?(opt_match_per_s = 0.0)
    ?(opt_match_linear_per_s = 0.0) ?(opt_top10_share = 0.0)
    ?(opt_gen_s = 0.0) ?(opt_pass_s = 0.0) ~verdicts ?(phases = phases_of_metrics ()) () =
  {
    schema = schema_version;
    timestamp = iso8601 (Unix.gettimeofday ());
    git_rev = git_rev ();
    dirty = git_dirty ();
    host = host ();
    label;
    jobs;
    tasks;
    budget_timeout_s;
    budget_conflicts;
    wall_s;
    cpu_s;
    sat_s;
    infer_s;
    queries;
    conflicts;
    cegar_iterations;
    cache_hits;
    cache_misses;
    cache_evictions;
    peak_clauses;
    peak_vars;
    requests;
    store_hits;
    store_misses;
    static_proved;
    log_lines;
    slow_queries;
    ops;
    aig_nodes_in;
    aig_nodes_out;
    opt_firings;
    opt_firings_per_s;
    opt_match_per_s;
    opt_match_linear_per_s;
    opt_top10_share;
    opt_gen_s;
    opt_pass_s;
    verdicts;
    phases;
  }

(* --- JSON --- *)

let to_json r =
  Json.Obj
    [
      ("schema", Json.Int r.schema);
      ("timestamp", Json.String r.timestamp);
      ("git_rev", Json.String r.git_rev);
      ("dirty", Json.Bool r.dirty);
      ( "host",
        Json.Obj
          [
            ("nproc", Json.Int r.host.nproc);
            ("cpu_model", Json.String r.host.cpu_model);
            ("ocaml_version", Json.String r.host.ocaml_version);
          ] );
      ("label", Json.String r.label);
      ("jobs", Json.Int r.jobs);
      ("tasks", Json.Int r.tasks);
      ( "budget",
        Json.Obj
          [
            ("timeout_s", Json.Float r.budget_timeout_s);
            ("conflict_limit", Json.Int r.budget_conflicts);
          ] );
      ("wall_s", Json.Float r.wall_s);
      ("cpu_s", Json.Float r.cpu_s);
      ("sat_s", Json.Float r.sat_s);
      ("infer_s", Json.Float r.infer_s);
      ("queries", Json.Int r.queries);
      ("conflicts", Json.Int r.conflicts);
      ("cegar_iterations", Json.Int r.cegar_iterations);
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int r.cache_hits);
            ("misses", Json.Int r.cache_misses);
            ("evictions", Json.Int r.cache_evictions);
          ] );
      ("peak_clauses", Json.Int r.peak_clauses);
      ("peak_vars", Json.Int r.peak_vars);
      ( "store",
        Json.Obj
          [
            ("requests", Json.Int r.requests);
            ("hits", Json.Int r.store_hits);
            ("misses", Json.Int r.store_misses);
          ] );
      ("static_proved", Json.Int r.static_proved);
      ("log_lines", Json.Int r.log_lines);
      ("slow_queries", Json.Int r.slow_queries);
      ( "ops",
        Json.Obj
          (List.map
             (fun o ->
               ( o.op,
                 Json.Obj
                   [
                     ("count", Json.Int o.op_count);
                     ("total_s", Json.Float o.op_total_s);
                     ("p99_s", Json.Float o.op_p99_s);
                   ] ))
             r.ops) );
      ( "aig",
        Json.Obj
          [
            ("nodes_in", Json.Int r.aig_nodes_in);
            ("nodes_out", Json.Int r.aig_nodes_out);
          ] );
      ( "opt",
        Json.Obj
          [
            ("firings", Json.Int r.opt_firings);
            ("firings_per_s", Json.Float r.opt_firings_per_s);
            ("match_per_s", Json.Float r.opt_match_per_s);
            ("match_linear_per_s", Json.Float r.opt_match_linear_per_s);
            ("top10_share", Json.Float r.opt_top10_share);
            ("gen_s", Json.Float r.opt_gen_s);
            ("pass_s", Json.Float r.opt_pass_s);
          ] );
      ("verdicts", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.verdicts));
      ( "phases",
        Json.Obj
          (List.map
             (fun p ->
               ( p.phase,
                 Json.Obj
                   [
                     ("count", Json.Int p.count);
                     ("total_s", Json.Float p.total_s);
                   ] ))
             r.phases) );
    ]

let of_json j =
  let str k d = Option.value ~default:d (Option.bind (Json.member k j) Json.to_str) in
  let int k d = Option.value ~default:d (Option.bind (Json.member k j) Json.to_int) in
  let flt k d =
    Option.value ~default:d (Option.bind (Json.member k j) Json.to_float)
  in
  match Json.member "wall_s" j with
  | None -> Error "ledger record: missing wall_s"
  | Some _ ->
      let budget = Option.value ~default:(Json.Obj []) (Json.member "budget" j) in
      let cache = Option.value ~default:(Json.Obj []) (Json.member "cache" j) in
      let store = Option.value ~default:(Json.Obj []) (Json.member "store" j) in
      let verdicts =
        match Option.bind (Json.member "verdicts" j) Json.to_obj with
        | None -> []
        | Some fields ->
            List.filter_map
              (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v))
              fields
      in
      let phases =
        match Option.bind (Json.member "phases" j) Json.to_obj with
        | None -> []
        | Some fields ->
            List.map
              (fun (phase, v) ->
                {
                  phase;
                  count =
                    Option.value ~default:0
                      (Option.bind (Json.member "count" v) Json.to_int);
                  total_s =
                    Option.value ~default:0.0
                      (Option.bind (Json.member "total_s" v) Json.to_float);
                })
              fields
      in
      Ok
        {
          schema = int "schema" 1;
          timestamp = str "timestamp" "";
          git_rev = str "git_rev" "unknown";
          (* "dirty" and "cpu_s" are schema-9 keys; older records read back
             as clean and zero. *)
          dirty =
            Option.value ~default:false
              (Option.bind (Json.member "dirty" j) Json.to_bool);
          (* "host" is a schema-10 key; older records read back unknown. *)
          host =
            (match Json.member "host" j with
            | None -> unknown_host
            | Some h ->
                let field k f d =
                  Option.value ~default:d (Option.bind (Json.member k h) f)
                in
                {
                  nproc = field "nproc" Json.to_int 0;
                  cpu_model = field "cpu_model" Json.to_str "";
                  ocaml_version = field "ocaml_version" Json.to_str "";
                });
          label = str "label" "";
          jobs = int "jobs" 1;
          tasks = int "tasks" 0;
          budget_timeout_s =
            Option.value ~default:0.0
              (Option.bind (Json.member "timeout_s" budget) Json.to_float);
          budget_conflicts =
            Option.value ~default:0
              (Option.bind (Json.member "conflict_limit" budget) Json.to_int);
          wall_s = flt "wall_s" 0.0;
          cpu_s = flt "cpu_s" 0.0;
          sat_s = flt "sat_s" 0.0;
          (* "infer_s" is a schema-3 key; older records read back as 0. *)
          infer_s = flt "infer_s" 0.0;
          queries = int "queries" 0;
          conflicts = int "conflicts" 0;
          cegar_iterations = int "cegar_iterations" 0;
          (* "cache" and the peaks are schema-2 keys; schema-1 records read
             back as zeros. *)
          cache_hits =
            Option.value ~default:0
              (Option.bind (Json.member "hits" cache) Json.to_int);
          cache_misses =
            Option.value ~default:0
              (Option.bind (Json.member "misses" cache) Json.to_int);
          cache_evictions =
            Option.value ~default:0
              (Option.bind (Json.member "evictions" cache) Json.to_int);
          peak_clauses = int "peak_clauses" 0;
          peak_vars = int "peak_vars" 0;
          (* "store" is a schema-4 key; older records read back as zeros
             and the schema field flags them as not comparable. *)
          requests =
            Option.value ~default:0
              (Option.bind (Json.member "requests" store) Json.to_int);
          store_hits =
            Option.value ~default:0
              (Option.bind (Json.member "hits" store) Json.to_int);
          store_misses =
            Option.value ~default:0
              (Option.bind (Json.member "misses" store) Json.to_int);
          (* "static_proved" is a schema-5 key; older records read back as
             zero and the schema field flags them as not comparable. *)
          static_proved = int "static_proved" 0;
          (* telemetry keys are schema-6; older records read back empty. *)
          log_lines = int "log_lines" 0;
          slow_queries = int "slow_queries" 0;
          ops =
            (match Option.bind (Json.member "ops" j) Json.to_obj with
            | None -> []
            | Some fields ->
                List.map
                  (fun (op, v) ->
                    {
                      op;
                      op_count =
                        Option.value ~default:0
                          (Option.bind (Json.member "count" v) Json.to_int);
                      op_total_s =
                        Option.value ~default:0.0
                          (Option.bind (Json.member "total_s" v) Json.to_float);
                      op_p99_s =
                        Option.value ~default:0.0
                          (Option.bind (Json.member "p99_s" v) Json.to_float);
                    })
                  fields);
          (* "aig" is a schema-7 key; older records read back as zeros and
             the schema field flags them as not comparable. Schema 7-8
             records also carry a "cubes" object, which is ignored. *)
          aig_nodes_in =
            (let a = Option.value ~default:(Json.Obj []) (Json.member "aig" j) in
             Option.value ~default:0
               (Option.bind (Json.member "nodes_in" a) Json.to_int));
          aig_nodes_out =
            (let a = Option.value ~default:(Json.Obj []) (Json.member "aig" j) in
             Option.value ~default:0
               (Option.bind (Json.member "nodes_out" a) Json.to_int));
          (* "opt" is a schema-8 key; older records read back as zeros and
             the schema field flags them as not comparable. *)
          opt_firings =
            (let o = Option.value ~default:(Json.Obj []) (Json.member "opt" j) in
             Option.value ~default:0
               (Option.bind (Json.member "firings" o) Json.to_int));
          opt_firings_per_s =
            (let o = Option.value ~default:(Json.Obj []) (Json.member "opt" j) in
             Option.value ~default:0.0
               (Option.bind (Json.member "firings_per_s" o) Json.to_float));
          opt_match_per_s =
            (let o = Option.value ~default:(Json.Obj []) (Json.member "opt" j) in
             Option.value ~default:0.0
               (Option.bind (Json.member "match_per_s" o) Json.to_float));
          opt_match_linear_per_s =
            (let o = Option.value ~default:(Json.Obj []) (Json.member "opt" j) in
             Option.value ~default:0.0
               (Option.bind (Json.member "match_linear_per_s" o) Json.to_float));
          opt_top10_share =
            (let o = Option.value ~default:(Json.Obj []) (Json.member "opt" j) in
             Option.value ~default:0.0
               (Option.bind (Json.member "top10_share" o) Json.to_float));
          (* the opt time split is schema-9; older records read back 0. *)
          opt_gen_s =
            (let o = Option.value ~default:(Json.Obj []) (Json.member "opt" j) in
             Option.value ~default:0.0
               (Option.bind (Json.member "gen_s" o) Json.to_float));
          opt_pass_s =
            (let o = Option.value ~default:(Json.Obj []) (Json.member "opt" j) in
             Option.value ~default:0.0
               (Option.bind (Json.member "pass_s" o) Json.to_float));
          verdicts;
          phases;
        }

(* --- Persistence --- *)

let append ~path r =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json r));
      output_char oc '\n')

let load ~path =
  if not (Sys.file_exists path) then Error (path ^ ": no such ledger")
  else
    let lines =
      In_channel.with_open_text path In_channel.input_lines
      |> List.filter (fun l -> String.trim l <> "")
    in
    let rec go acc i = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
          match Json.parse line with
          | Error e -> Error (Printf.sprintf "%s:%d: %s" path (i + 1) e)
          | Ok j -> (
              match of_json j with
              | Error e -> Error (Printf.sprintf "%s:%d: %s" path (i + 1) e)
              | Ok r -> go (r :: acc) (i + 1) rest))
    in
    go [] 0 lines

(* --- Diffing --- *)

type delta = {
  metric : string;
  base : float;
  now : float;
  pct : float;  (* signed percentage change, +: now is bigger *)
  regressed : bool;
}

type diff = {
  baseline : record;
  latest : record;
  deltas : delta list;  (* gating metrics first, then per-phase info *)
  regressions : delta list;
}

(* Records from different schema versions only share the older schema's
   fields: keys the older schema lacks read back as zeros, so comparing
   them would report phantom regressions (or, worse, silently compare
   zeros and pass — PR 4's schema-1 records exhibited exactly that).
   [diff] therefore restricts itself to the shared field prefix, and
   callers surface [schema_mismatch] as a warning rather than refusing
   outright, so a schema bump does not invalidate every old baseline. *)
let schema_mismatch ~baseline ~latest =
  if baseline.schema = latest.schema then None
  else
    Some
      (Printf.sprintf
         "schema mismatch: baseline record is schema %d, latest is schema \
          %d; comparing only the fields both schemas define. Re-seed the \
          baseline with a schema-%d record for a full diff."
         baseline.schema latest.schema schema_version)

let dirty_warning ~baseline ~latest =
  match
    List.filter_map
      (fun (name, r) -> if r.dirty then Some name else None)
      [ ("baseline", baseline); ("latest", latest) ]
  with
  | [] -> None
  | names ->
      Some
        (Printf.sprintf
           "%s record written from a dirty tree: its numbers may not \
            reproduce from its git revision."
           (String.concat " and " names))

let pp_host h =
  Printf.sprintf "%d x %s, OCaml %s" h.nproc h.cpu_model h.ocaml_version

(* Informational only: a record pair from two hosts still diffs, but its
   wall and CPU rows compare machines as much as code. *)
let host_mismatch ~baseline ~latest =
  if
    baseline.host.nproc = 0 || latest.host.nproc = 0
    || baseline.host = latest.host
  then None
  else
    Some
      (Printf.sprintf
         "host mismatch: baseline ran on %s, latest on %s; wall and CPU \
          times compare the hosts as well as the code."
         (pp_host baseline.host) (pp_host latest.host))

let pct_change base now =
  if base = 0.0 then if now = 0.0 then 0.0 else Float.infinity
  else (now -. base) /. base *. 100.0

let diff ?(threshold_pct = 15.0) ~baseline ~latest () =
  let gate metric base now =
    let pct = pct_change base now in
    { metric; base; now; pct; regressed = pct > threshold_pct }
  in
  (* Throughput gate: a regression is a *drop* beyond the threshold. Only
     meaningful against a baseline that measured the metric at all. *)
  let gate_drop metric base now =
    let pct = pct_change base now in
    { metric; base; now; pct; regressed = base > 0.0 && pct < -.threshold_pct }
  in
  let info metric base now =
    { metric; base; now; pct = pct_change base now; regressed = false }
  in
  (* Rows only for fields both schemas define, so a cross-schema diff
     never compares a real value against a phantom zero. *)
  let shared = min baseline.schema latest.schema in
  let since v rows = if shared >= v then rows () else [] in
  let wall = gate "wall_s" baseline.wall_s latest.wall_s in
  let other_gates =
    gate "conflicts" (float_of_int baseline.conflicts)
      (float_of_int latest.conflicts)
    :: since 8 (fun () ->
          [
            gate_drop "opt_match_per_s" baseline.opt_match_per_s
              latest.opt_match_per_s;
            gate_drop "opt_firings_per_s" baseline.opt_firings_per_s
              latest.opt_firings_per_s;
          ])
  in
  let informational =
    List.concat
      [
        [
          info "sat_s" baseline.sat_s latest.sat_s;
          info "queries" (float_of_int baseline.queries)
            (float_of_int latest.queries);
          info "cegar_iterations"
            (float_of_int baseline.cegar_iterations)
            (float_of_int latest.cegar_iterations);
        ];
        since 2 (fun () ->
            [
              info "cache_hits"
                (float_of_int baseline.cache_hits)
                (float_of_int latest.cache_hits);
              info "peak_clauses"
                (float_of_int baseline.peak_clauses)
                (float_of_int latest.peak_clauses);
            ]);
        since 3 (fun () -> [ info "infer_s" baseline.infer_s latest.infer_s ]);
        since 4 (fun () ->
            [
              info "store_hits"
                (float_of_int baseline.store_hits)
                (float_of_int latest.store_hits);
            ]);
        since 5 (fun () ->
            [
              info "static_proved"
                (float_of_int baseline.static_proved)
                (float_of_int latest.static_proved);
            ]);
        since 6 (fun () ->
            info "log_lines"
              (float_of_int baseline.log_lines)
              (float_of_int latest.log_lines)
            :: info "slow_queries"
                 (float_of_int baseline.slow_queries)
                 (float_of_int latest.slow_queries)
            :: List.filter_map
                 (fun o ->
                   match
                     List.find_opt (fun b -> b.op = o.op) baseline.ops
                   with
                   | Some b ->
                       Some (info ("op:" ^ o.op) b.op_total_s o.op_total_s)
                   | None -> None)
                 latest.ops);
        since 7 (fun () ->
            [
              info "aig_nodes_in"
                (float_of_int baseline.aig_nodes_in)
                (float_of_int latest.aig_nodes_in);
              info "aig_nodes_out"
                (float_of_int baseline.aig_nodes_out)
                (float_of_int latest.aig_nodes_out);
            ]);
        since 8 (fun () ->
            [
              info "opt_firings"
                (float_of_int baseline.opt_firings)
                (float_of_int latest.opt_firings);
              info "opt_match_linear_per_s" baseline.opt_match_linear_per_s
                latest.opt_match_linear_per_s;
              info "opt_top10_share" baseline.opt_top10_share
                latest.opt_top10_share;
            ]);
        since 9 (fun () ->
            [
              info "opt_gen_s" baseline.opt_gen_s latest.opt_gen_s;
              info "opt_pass_s" baseline.opt_pass_s latest.opt_pass_s;
            ]);
        List.filter_map
          (fun p ->
            match
              List.find_opt (fun b -> b.phase = p.phase) baseline.phases
            with
            | Some b -> Some (info ("phase:" ^ p.phase) b.total_s p.total_s)
            | None -> None)
          latest.phases;
      ]
  in
  (* CPU seconds sit next to wall time, so hidden parallelism shows. *)
  let cpu = since 9 (fun () -> [ info "cpu_s" baseline.cpu_s latest.cpu_s ]) in
  let deltas = (wall :: cpu) @ other_gates @ informational in
  (* Only gates ever set [regressed]. *)
  {
    baseline;
    latest;
    deltas;
    regressions = List.filter (fun d -> d.regressed) deltas;
  }

let render_diff ?(oc = stdout) d =
  let header name r =
    Printf.fprintf oc "%-9s %s%s  %s  (%s, %d tasks, %d jobs)\n" name
      r.git_rev
      (if r.dirty then " (dirty)" else "")
      r.timestamp r.label r.tasks r.jobs
  in
  header "baseline:" d.baseline;
  header "latest:" d.latest;
  let metric_w =
    List.fold_left (fun w x -> max w (String.length x.metric)) 6 d.deltas
  in
  Printf.fprintf oc "%-*s %14s %14s %9s\n" metric_w "metric" "baseline"
    "latest" "change";
  List.iter
    (fun x ->
      let pct =
        if Float.is_finite x.pct then Printf.sprintf "%+.1f%%" x.pct else "new"
      in
      Printf.fprintf oc "%-*s %14.3f %14.3f %9s%s\n" metric_w x.metric x.base
        x.now pct
        (if x.regressed then "  REGRESSION" else ""))
    d.deltas;
  if d.regressions = [] then
    Printf.fprintf oc "no regression beyond threshold\n"
  else
    Printf.fprintf oc "%d metric(s) regressed beyond threshold\n"
      (List.length d.regressions)
