(** The concrete-IR facade over the reduced product: one forward pass per
    function assigns every value a domain — strictly at least as precise
    as the known-bits-only [Ir.Analysis], since known bits are one
    component of the product. The optimizer keeps the same per-definition
    {!transfer} current incrementally ([Opt.State]); {!analyze} is the
    whole-function reference it must agree with. *)

type env

val analyze : Ir.func -> env
val value_domain : env -> Ir.value -> Domain.t
val tri_cond : Ir.cond -> Domain.t -> Domain.t -> Domain.tribool

val transfer : (Ir.value -> Domain.t) -> Ir.def -> Domain.t
(** The domain of one definition, given the domains of its operands. *)
