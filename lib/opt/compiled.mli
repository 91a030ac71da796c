(** The verified ruleset compiled into one discrimination tree over
    opcodes and operand shapes (the decision tree the generated C++ pass
    of §4 effectively is), so matching a candidate definition is a single
    trie walk plus a handful of exact checks instead of an O(rules) scan.

    The trie is a sound pre-filter: it may return candidates that do not
    match (attributes, repeated variables, constant values and
    preconditions are not encoded) but never misses a rule that
    {!Matcher.match_in} would accept. {!match_def} re-verifies candidates
    with [match_in] in registry order, so the compiled path returns the
    same rule and the same bindings as the per-rule scan. *)

type t
(** An immutable compiled ruleset; safe to share across domains. *)

val build : Matcher.rule list -> t
(** Compile the rules, keeping registry order for first-match-wins
    tie-breaks, and compute the rewrite-cycle SCC membership used by the
    pass's cycle guard. *)

val rule_list : t -> Matcher.rule list
val max_depth : t -> int
(** Deepest operand level any compiled pattern inspects (root = 0): the
    radius within which a rewrite can create new match opportunities. *)

val residual_count : t -> int
(** Rules the trie could not compile; they are candidates at every
    definition, and their pattern depth is not in {!max_depth}. *)

val node_count : t -> int
val in_cycle : t -> string -> bool
(** Whether the named rule belongs to a cyclic SCC of the target-feeds
    rewrite graph (the lint driver's rewrite-cycle.scc analysis). *)

val cyclic_count : t -> int

(** {1 Matching} *)

type ctx
(** Per-function matching context: the function state plus token and
    subtree-size scratch buffers. It sees every later edit of the state. *)

val context_of_state : t -> State.t -> ctx
val context : t -> Ir.func -> ctx
(** {!context_of_state} on a fresh {!State.of_func}. *)

val candidates : ctx -> Ir.def -> Matcher.rule list
(** Rules whose source shape can match at the definition, in registry
    order — the trie walk without the final [match_in] verification. *)

val match_def : ctx -> Ir.def -> (Matcher.rule * Matcher.match_result) option
(** First candidate (registry order) accepted by {!Matcher.match_in}. *)

val match_linear :
  rules:Matcher.rule list ->
  ctx ->
  Ir.def ->
  (Matcher.rule * Matcher.match_result) option
(** The uncompiled per-rule scan the trie replaces; kept as the
    differential-test oracle and the throughput baseline. *)

val same_match :
  (Matcher.rule * Matcher.match_result) option ->
  (Matcher.rule * Matcher.match_result) option ->
  bool
(** Same rule, same root and same bindings: the compiled/linear parity
    check. *)
