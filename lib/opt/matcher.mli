(** Matching Alive source templates against IR and rewriting to the target —
    the native-code twin of the generated C++ (§4): the same DAG match,
    precondition check, instruction creation, and use replacement.

    A rule must have been verified before being registered; this module
    performs no verification itself. *)

type rule = {
  rule_name : string;
  transform : Alive.Ast.transform;
}

val rule_of_transform : Alive.Ast.transform -> (rule, string) result
(** Pre-compiles scoping information; rejects templates outside the
    executable integer fragment (memory operations, [unreachable]). *)

type match_result = {
  bindings : Concrete.env;
  root : string;  (** the matched root definition's name *)
}

type attempt =
  | No_shape
      (** the source template's shape does not match: opcodes,
          attributes, constants, operand identity or widths *)
  | Pre_failed  (** the shape matches but the precondition does not hold *)
  | Matched of match_result

val try_match : rule -> State.t -> string -> attempt
(** Try to match the rule's source template rooted at the named definition,
    checking the precondition concretely. Definitions, widths, use counts
    and domains come from the state. The shape depends only on the
    definitions within the template's operand depth of the root; the
    precondition may also read use counts and domains, which depend on
    the whole function. *)

val match_in : rule -> State.t -> string -> match_result option
(** {!try_match}, keeping only a match. *)

val match_at : rule -> Ir.func -> string -> match_result option
(** {!match_in} on a state built for the call. *)

(** {1 Template-level unification (lint support)}

    These match one template against another template, keeping the
    subject's free variables symbolic. SMT-free and purely structural:
    compound constant expressions unify only syntactically, and
    preconditions are ignored — callers decide how to weigh them. *)

val source_covers : rule -> rule -> bool
(** [source_covers a b]: every instruction DAG matched by [b]'s source
    pattern is also matched by [a]'s source pattern (so, modulo
    preconditions, an earlier [a] shadows [b] in first-match-wins order). *)

val target_feeds : rule -> rule -> bool
(** [target_feeds a b]: [b]'s source pattern matches the code [a]'s target
    template emits — an A→B edge of the rewrite graph whose cycles make
    the fixpoint pass loop. *)

val instantiate : rule -> match_result -> State.edit option
(** The rule's target template instantiated at the match, as an edit of
    the matched state (which it does not touch): new definitions inserted
    just before the root, and the root redefined in place or, for a copy
    target, replaced in all its uses. [None] if a target constant
    expression cannot be evaluated. *)

val rewrite : rule -> Ir.func -> match_result -> Ir.func option
(** {!instantiate} spliced into the function the match was made on, as
    {!State.splice} would. Dead source instructions are left for DCE. *)

(** Enum translation between the Alive AST and the IR (shared with the
    workload generator's template instantiation). *)

val ir_binop : Alive.Ast.binop -> Ir.binop
val ir_attr : Alive.Ast.attr -> Ir.attr
val ir_cond : Alive.Ast.cond -> Ir.cond
