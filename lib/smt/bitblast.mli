(** Bit-blasting of lowered terms into a CDCL SAT solver, using the Tseitin
    CNF encoding: every gate gets its full two-sided definition.

    A context owns a SAT solver and memoization tables keyed by term id, so
    shared subterms are encoded once. Formulas are asserted incrementally; [check] may be called
    repeatedly, also under assumptions (used by the CEGAR loop and attribute
    inference).

    Input terms must be in the bit-blaster's core fragment (see {!Lower});
    [assert_formula] and [check] lower their arguments automatically. *)

type t

val create : ?simplify:bool -> unit -> t
(** [simplify] defaults to the process-wide atomic ({!set_simplify}). *)

val set_simplify : bool -> unit
(** Process-wide default for AIG structural simplification: when on (the
    default), circuits are built as a hash-consed AND-inverter graph with
    two-level rewriting and CNF is emitted from the reduced graph; when
    off ([--no-aig]), the direct gate-by-gate encoding is used. *)

val simplify : unit -> bool

val assert_formula : t -> Term.t -> unit
(** Assert a Bool-sorted term. @raise Invalid_argument on bitvector sorts. *)

val check :
  ?assumptions:Term.t list ->
  ?conflict_limit:int ->
  ?deadline:float ->
  t ->
  [ `Sat | `Unsat ]
(** [deadline] is absolute wall-clock time; see {!Alive_sat.Solver.solve}.
    @raise Alive_sat.Solver.Budget_exceeded when a limit runs out. *)

val model_value : t -> string -> Term.sort -> Term.value
(** Value of a named variable after a [`Sat] answer. Variables never
    mentioned in any asserted formula default to zero/false. *)

val stats : t -> Alive_sat.Solver.stats
(** Underlying SAT solver telemetry (conflicts, decisions, propagations,
    restarts, clause and variable counts). *)

val export : t -> int * Alive_sat.Solver.lit list list
(** Snapshot of the underlying SAT instance (level-0 facts plus problem
    clauses) for DIMACS dumping; see {!Alive_sat.Solver.export}. *)

val aig_stats : t -> Aig.stats option
(** AIG node counts for this context ([None] in direct mode): raw gate
    requests vs distinct nodes after rewriting/structural hashing. *)

val export_aiger : t -> string option
(** AIGER ASCII rendering of this context's reduced graph, with every
    asserted/assumed root as an output ([None] in direct mode). *)
