(** Concrete evaluation of Alive constant expressions and preconditions
    against a matched IR context — the runtime counterpart of the C++ the
    paper generates (§4): constant expressions become [APInt] arithmetic,
    value predicates become calls into the trusted dataflow analyses. *)

type env = {
  st : State.t Lazy.t;
      (** the matched function; forced only when a precondition needs a
          width, a use count or a domain *)
  consts : (string * Bitvec.t) list;  (** abstract constant bindings *)
  values : (string * Ir.value) list;  (** template value bindings *)
}

val cexpr : env -> width:int -> Alive.Ast.cexpr -> Bitvec.t option
(** [None] when the expression references an unbound name or an unsupported
    function. *)

val cexpr_width : env -> Alive.Ast.cexpr -> int option
(** Width of an expression, resolved through its bound named leaves. *)

val adomain :
  env -> width:int -> Alive.Ast.cexpr -> Alive_absint.Domain.t option
(** Abstract evaluation: bound constants are singletons, bound values fall
    back to the known-bits × range domains of the function state. [None]
    when a leaf is unbound or a function is unsupported. *)

val tri_pred : env -> Alive.Ast.pred -> Alive_absint.Domain.tribool
(** Tri-valued precondition evaluation: [True]/[False] are proofs,
    undecidable facts are [Unknown] (so negation stays sound). Comparisons
    evaluate concretely when both sides reduce to constants and through
    {!adomain} otherwise, which is what lets conditionally-valid rules
    fire on symbolic operands whose analysis facts discharge the
    precondition. *)

val pred : env -> Alive.Ast.pred -> bool
(** [tri_pred env p = True]: the rewrite fires only on a proof, mirroring
    how the paper's generated C++ calls must-analyses. *)
