(** The cross-run performance ledger.

    Each instrumented engine run appends one JSON line to a ledger file
    (by convention [bench/ledger.jsonl]): git revision, run label, jobs,
    budget, wall time, solver counters, verdict histogram, and per-phase
    totals from the {!Metrics} registry. [alive_cli perf diff] loads the
    ledger and compares the newest record against a baseline. *)

type phase_total = { phase : string; count : int; total_s : float }

type op_stat = {
  op : string;
  op_count : int;
  op_total_s : float;
  op_p99_s : float;
}
(** Per-op daemon latency totals (schema >= 6). *)

type host = {
  nproc : int;  (** [Domain.recommended_domain_count ()] *)
  cpu_model : string;  (** first "model name" of /proc/cpuinfo, or "unknown" *)
  ocaml_version : string;
}
(** Where a record was measured (schema >= 10). Records of older schemas
    read back with [nproc = 0] and empty strings: host unknown. *)

type record = {
  schema : int;
  timestamp : string;  (** ISO-8601 UTC *)
  git_rev : string;
  dirty : bool;
      (** [git status --porcelain] was non-empty when the record was made,
          so it may not reproduce from [git_rev] (schema >= 9; false when
          reading older records) *)
  host : host;
  label : string;
  jobs : int;
  tasks : int;
  budget_timeout_s : float;  (** 0 = none *)
  budget_conflicts : int;  (** 0 = none *)
  wall_s : float;
  cpu_s : float;
      (** user + sys CPU seconds ({!cpu_time}) spent by the run, across
          all domains (schema >= 9; zero when reading older records) *)
  sat_s : float;
  infer_s : float;
      (** wall time spent in precondition inference (schema >= 3; zero when
          reading older records) *)
  queries : int;
  conflicts : int;
  cegar_iterations : int;
  cache_hits : int;
      (** canonical verdict cache counters (schema >= 2; zero when reading
          older records) *)
  cache_misses : int;
  cache_evictions : int;
  peak_clauses : int;  (** largest single SAT context of the run *)
  peak_vars : int;
  requests : int;
      (** daemon/service requests served by this run (schema >= 4; zero
          when reading older records) *)
  store_hits : int;  (** persistent verdict-store hits *)
  store_misses : int;
  static_proved : int;
      (** verification conditions discharged by the tier-0 static prover
          (schema >= 5; zero when reading older records) *)
  log_lines : int;
      (** structured log lines emitted during the run (schema >= 6; zero
          when reading older records) *)
  slow_queries : int;  (** requests past the slow-query threshold *)
  ops : op_stat list;  (** per-op daemon latencies (schema >= 6) *)
  aig_nodes_in : int;
      (** gate requests into the AIG simplifier, before structural
          hashing (schema >= 7) *)
  aig_nodes_out : int;  (** distinct AIG nodes after simplification *)
  opt_firings : int;
      (** rewrites applied by the fused optimizer (schema >= 8; zero when
          reading older records) *)
  opt_firings_per_s : float;  (** whole-pass rewrite throughput *)
  opt_match_per_s : float;
      (** compiled decision-tree single-match throughput *)
  opt_match_linear_per_s : float;
      (** per-rule-scan baseline throughput for the same matches *)
  opt_top10_share : float;
      (** fraction of firings from the ten most-fired rules (Fig. 9) *)
  opt_gen_s : float;
      (** seconds generating the optimizer workload, summed over batches
          (schema >= 9; zero when reading older records) *)
  opt_pass_s : float;
      (** seconds in the rewrite pass, summed over batches (schema >= 9) *)
  verdicts : (string * int) list;
  phases : phase_total list;
}

val schema_version : int

val git_rev : unit -> string
(** Short revision for provenance stamps: [GITHUB_SHA] env, else
    [git rev-parse], else ["unknown"]. Also used by the service verdict
    store. *)

val host : unit -> host
(** This process's host, as {!make} stamps it. *)

val cpu_time : unit -> float
(** User + sys CPU seconds of this process so far ([Unix.times]), summed
    over all its domains. *)

val iso8601 : float -> string
(** Render a [Unix.gettimeofday]-style timestamp as ISO-8601 UTC. *)

val make :
  label:string ->
  jobs:int ->
  tasks:int ->
  ?budget_timeout_s:float ->
  ?budget_conflicts:int ->
  wall_s:float ->
  ?cpu_s:float ->
  sat_s:float ->
  ?infer_s:float ->
  queries:int ->
  conflicts:int ->
  cegar_iterations:int ->
  ?cache_hits:int ->
  ?cache_misses:int ->
  ?cache_evictions:int ->
  ?peak_clauses:int ->
  ?peak_vars:int ->
  ?requests:int ->
  ?store_hits:int ->
  ?store_misses:int ->
  ?static_proved:int ->
  ?log_lines:int ->
  ?slow_queries:int ->
  ?ops:op_stat list ->
  ?aig_nodes_in:int ->
  ?aig_nodes_out:int ->
  ?opt_firings:int ->
  ?opt_firings_per_s:float ->
  ?opt_match_per_s:float ->
  ?opt_match_linear_per_s:float ->
  ?opt_top10_share:float ->
  ?opt_gen_s:float ->
  ?opt_pass_s:float ->
  verdicts:(string * int) list ->
  ?phases:phase_total list ->
  unit ->
  record
(** Build a record stamped with the current UTC time, git revision
    ([GITHUB_SHA] env, else [git rev-parse], else ["unknown"]), dirty
    flag ([git status --porcelain] printed anything; false without git) and
    {!host}. [cpu_s] defaults to the process's {!cpu_time} so
    far; pass the run's own delta when the process did other work.
    [phases] defaults to the current {!Metrics} histogram totals. *)

val to_json : record -> Json.t
val of_json : Json.t -> (record, string) result

val append : path:string -> record -> unit
(** Append one JSONL line, creating the file if needed. *)

val load : path:string -> (record list, string) result
(** All records, oldest first. *)

(** {1 Diffing} *)

type delta = {
  metric : string;
  base : float;
  now : float;
  pct : float;  (** signed percentage change; +: latest is bigger *)
  regressed : bool;  (** only ever set on the gating metrics *)
}

type diff = {
  baseline : record;
  latest : record;
  deltas : delta list;
  regressions : delta list;
}

val schema_mismatch : baseline:record -> latest:record -> string option
(** [Some message] when the two records carry different schema versions.
    {!diff} still works on such pairs — it compares only the shared field
    prefix — but callers should surface this as a warning so the missing
    rows are explained ([alive_cli perf diff] prints it to stderr). *)

val dirty_warning : baseline:record -> latest:record -> string option
(** [Some message] when either record was written from a dirty tree
    ([alive_cli perf diff] prints it to stderr). *)

val host_mismatch : baseline:record -> latest:record -> string option
(** [Some message] when both records name their host and the hosts differ
    ([alive_cli perf diff] prints it to stderr; it never gates). *)

val diff : ?threshold_pct:float -> baseline:record -> latest:record -> unit -> diff
(** Gating metrics are wall time and SAT conflicts (growing more than
    [threshold_pct], default 15%, counts as a regression) plus — when both
    records are schema >= 8 — the optimizer's matcher and firing
    throughputs, which regress by {e dropping} more than the threshold
    against a non-zero baseline. CPU time (schema >= 9) is listed next to
    wall time, informationally. SAT time, query/CEGAR counts, per-op
    latencies and per-phase totals are reported informationally —
    restricted to fields defined by {e both} records' schemas, so
    cross-schema diffs never compare against phantom zeros. *)

val render_diff : ?oc:out_channel -> diff -> unit
