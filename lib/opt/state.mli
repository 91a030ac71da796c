(** One mutable per-function state for the optimization pass: definitions
    by name and in definition order, use counts and users, the live cost
    ({!Cost.func_cost}) and each definition's {!Alive_absint.Domain}
    value. A rewrite updates it in place in O(touched): the splice
    reports exactly the definitions it created or changed, DCE follows use
    counts from the definitions that lost uses, and the domains already
    computed are recomputed forward from the changed definitions,
    stopping where a domain is unchanged. Domains are computed lazily,
    per definition: only the values some query reached ever pay for a
    transfer function.

    Bodies are assumed to be in definition order (SSA), as
    {!Ir.validate} requires. *)

type t

val of_func : Ir.func -> t
(** O(body). No domain is computed yet. *)

val to_func : t -> Ir.func
(** The function the state currently denotes (O(body)). *)

(** {1 Queries} *)

val find : t -> string -> Ir.def option
val mem : t -> string -> bool

val value_width : t -> Ir.value -> int
(** As {!Ir.value_width}. @raise Not_found for unknown variables. *)

val uses : t -> string -> int
(** As {!Ir.uses_of}: operand occurrences plus the return. *)

val users : t -> string -> string list
(** The definitions using the name, latest first, once per occurrence. *)

val domain : t -> Ir.value -> Alive_absint.Domain.t
(** As {!Alive_absint.Query.value_domain} on {!to_func}. The first query
    of a definition computes its domain from its operands' domains
    (computing those on demand, transitively) and marks it computed; a
    computed domain is kept current by {!refresh}, so later queries are
    O(1). *)

val cost : t -> int

(** {1 Edits} *)

type action =
  | Redefine of Ir.inst  (** the root keeps its name, with a new instruction *)
  | Replace_uses of Ir.value
      (** the root is removed and its uses (and the return) take the value *)

type edit = {
  root : string;
  inserted : Ir.def list;  (** new definitions, placed just before the root *)
  action : action;
}
(** An instantiated rewrite, not yet applied. *)

val cost_delta : t -> edit -> int
(** The change in {!cost} that [splice] followed by [collect] would make,
    computed without touching the state. *)

val splice : t -> edit -> string list
(** Apply the edit. Returns the definitions it created or changed, in
    body order: the inserted ones, a redefined root (unless redefined to
    its own instruction) and the users of a replaced root. Dead code is
    left for {!collect}. *)

val collect : t -> unit
(** Remove, transitively, the definitions whose use count fell to zero
    since the last call. *)

val refresh : t -> string list -> unit
(** Recompute the already computed domains forward from the named
    definitions: each named definition that is computed, then the
    computed users of every domain that changed, in body order, stopping
    where a domain is unchanged. Definitions never queried are skipped;
    their first {!domain} query computes them from current operands.
    Call after each edit with its live changed definitions. *)
