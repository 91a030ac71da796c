open Alive.Ast

type env = {
  st : State.t Lazy.t;
  consts : (string * Bitvec.t) list;
  values : (string * Ir.value) list;
}

let ( let* ) = Option.bind

(* A template value that is bound to an IR constant can be used in constant
   expressions; anything else is symbolic. *)
let value_as_const env name =
  match List.assoc_opt name env.values with
  | Some (Ir.Const c) -> Some c
  | Some (Ir.Var _ | Ir.Undef _) | None -> None

let rec cexpr env ~width e =
  match e with
  | Cint n -> Some (Bitvec.make ~width n)
  | Cbool b -> Some (Bitvec.of_int ~width (if b then 1 else 0))
  | Cabs name -> List.assoc_opt name env.consts
  | Cval name -> value_as_const env name
  | Cun (Cneg, a) ->
      let* a = cexpr env ~width a in
      Some (Bitvec.neg a)
  | Cun (Cnot, a) ->
      let* a = cexpr env ~width a in
      Some (Bitvec.lognot a)
  | Cbin (op, a, b) ->
      let* a = cexpr env ~width a in
      let* b = cexpr env ~width b in
      let f =
        match op with
        | Cadd -> Bitvec.add
        | Csub -> Bitvec.sub
        | Cmul -> Bitvec.mul
        | Csdiv -> Bitvec.sdiv
        | Cudiv -> Bitvec.udiv
        | Csrem -> Bitvec.srem
        | Curem -> Bitvec.urem
        | Cshl -> Bitvec.shl
        | Clshr -> Bitvec.lshr
        | Cashr -> Bitvec.ashr
        | Cand -> Bitvec.logand
        | Cor -> Bitvec.logor
        | Cxor -> Bitvec.logxor
      in
      Some (f a b)
  | Cfun ("abs", [ a ]) ->
      let* a = cexpr env ~width a in
      Some (Bitvec.abs a)
  | Cfun ("log2", [ a ]) ->
      let* a = cexpr env ~width a in
      Some (Bitvec.log2 a)
  | Cfun ("umax", [ a; b ]) ->
      let* a = cexpr env ~width a in
      let* b = cexpr env ~width b in
      Some (Bitvec.umax a b)
  | Cfun ("umin", [ a; b ]) ->
      let* a = cexpr env ~width a in
      let* b = cexpr env ~width b in
      Some (Bitvec.umin a b)
  | Cfun ("smax", [ a; b ]) ->
      let* a = cexpr env ~width a in
      let* b = cexpr env ~width b in
      Some (Bitvec.smax a b)
  | Cfun ("smin", [ a; b ]) ->
      let* a = cexpr env ~width a in
      let* b = cexpr env ~width b in
      Some (Bitvec.smin a b)
  | Cfun ("width", [ a ]) ->
      let* w = cexpr_width env a in
      Some (Bitvec.of_int ~width w)
  | Cfun (_, _) -> None

(* Width of an expression through its named leaves. *)
and cexpr_width env e =
  match e with
  | Cint _ | Cbool _ -> None
  | Cabs name ->
      let* c = List.assoc_opt name env.consts in
      Some (Bitvec.width c)
  | Cval name ->
      let* v = List.assoc_opt name env.values in
      Some (State.value_width (Lazy.force env.st) v)
  | Cun (_, a) | Cfun (_, [ a ]) -> cexpr_width env a
  | Cbin (_, a, b) | Cfun (_, [ a; b ]) -> (
      match cexpr_width env a with
      | Some w -> Some w
      | None -> cexpr_width env b)
  | Cfun (_, _) -> None

(* A precondition argument is either a compile-time constant expression or a
   reference to a (possibly symbolic) template value. *)
let arg_value env e =
  match e with
  | Cval name -> List.assoc_opt name env.values
  | _ -> (
      match cexpr_width env e with
      | None -> None
      | Some w -> (
          match cexpr env ~width:w e with
          | Some c -> Some (Ir.Const c)
          | None -> None))

module Dom = Alive_absint.Domain

let domain env v = State.domain (Lazy.force env.st) v

(* Abstract evaluation of a constant expression whose leaves may be
   symbolic: bound constants stay singletons, bound values fall back to
   the function state's known-bits × range domain. This is what lets a
   precondition like `isPowerOf2(%x)` or `C & %m == 0` hold at an
   application site where %x is an instruction, not a literal. *)
let rec adomain env ~width e =
  let ( let* ) = Option.bind in
  match e with
  | Cint n -> Some (Dom.singleton (Bitvec.make ~width n))
  | Cbool b -> Some (Dom.singleton (Bitvec.of_int ~width (if b then 1 else 0)))
  | Cabs name ->
      let* c = List.assoc_opt name env.consts in
      Some (Dom.singleton c)
  | Cval name ->
      let* v = List.assoc_opt name env.values in
      Some (domain env v)
  | Cun (Cneg, a) ->
      let* a = adomain env ~width a in
      Some (Dom.neg a)
  | Cun (Cnot, a) ->
      let* a = adomain env ~width a in
      Some (Dom.bnot a)
  | Cbin (op, a, b) ->
      let* a = adomain env ~width a in
      let* b = adomain env ~width b in
      let ir_op =
        match op with
        | Cadd -> Ir.Add
        | Csub -> Ir.Sub
        | Cmul -> Ir.Mul
        | Csdiv -> Ir.Sdiv
        | Cudiv -> Ir.Udiv
        | Csrem -> Ir.Srem
        | Curem -> Ir.Urem
        | Cshl -> Ir.Shl
        | Clshr -> Ir.Lshr
        | Cashr -> Ir.Ashr
        | Cand -> Ir.And
        | Cor -> Ir.Or
        | Cxor -> Ir.Xor
      in
      Some (Dom.binop ir_op width a b)
  | Cfun (_, _) -> None

(* Tri-valued precondition evaluation. [True]/[False] are proofs; a fact
   the analyses cannot decide is [Unknown], NOT [False] — the previous
   boolean evaluator conflated the two, so [Pnot p] with undecidable [p]
   evaluated to [true] and could fire a rule whose precondition had not
   been established. Comparisons first evaluate concretely; if either
   side is symbolic they fall back to the abstract domain, which is what
   allows conditionally-valid rules to fire on non-literal operands. *)
let rec tri_pred env p =
  match p with
  | Ptrue -> Dom.True
  | Pand (a, b) -> Dom.tri_and (tri_pred env a) (tri_pred env b)
  | Por (a, b) -> Dom.tri_or (tri_pred env a) (tri_pred env b)
  | Pnot a -> Dom.tri_not (tri_pred env a)
  | Pcmp (op, a, b) -> (
      match
        match cexpr_width env a with
        | Some w -> Some w
        | None -> cexpr_width env b
      with
      | None -> Dom.Unknown
      | Some w -> (
          match (cexpr env ~width:w a, cexpr env ~width:w b) with
          | Some x, Some y ->
              let f =
                match op with
                | Peq -> Bitvec.equal
                | Pne -> fun a b -> not (Bitvec.equal a b)
                | Pslt -> Bitvec.slt
                | Psle -> Bitvec.sle
                | Psgt -> fun a b -> Bitvec.slt b a
                | Psge -> fun a b -> Bitvec.sle b a
                | Pult -> Bitvec.ult
                | Pule -> Bitvec.ule
                | Pugt -> fun a b -> Bitvec.ult b a
                | Puge -> fun a b -> Bitvec.ule b a
              in
              Dom.tri_of_bool (f x y)
          | _ -> (
              match (adomain env ~width:w a, adomain env ~width:w b) with
              | Some da, Some db -> (
                  match op with
                  | Peq -> Dom.tri_eq da db
                  | Pne -> Dom.tri_not (Dom.tri_eq da db)
                  | Pult -> Dom.tri_ult da db
                  | Pule -> Dom.tri_not (Dom.tri_ult db da)
                  | Pugt -> Dom.tri_ult db da
                  | Puge -> Dom.tri_not (Dom.tri_ult da db)
                  | Pslt -> Dom.tri_slt da db
                  | Psle -> Dom.tri_not (Dom.tri_slt db da)
                  | Psgt -> Dom.tri_slt db da
                  | Psge -> Dom.tri_not (Dom.tri_slt da db))
              | _ -> Dom.Unknown)))
  | Pcall (name, args) -> (
      (* Must-analysis calls: an affirmative answer is a proof, a negative
         one usually just means "not provable here" — except where the
         query is decidable (concrete constants, use counts), which may
         answer [False] outright. *)
      let proof b = if b then Dom.True else Dom.Unknown in
      let no_overflow op ~signed a b =
        proof
          (Dom.tri_will_not_overflow op ~signed (domain env a) (domain env b)
          = Dom.True)
      in
      match (name, List.map (arg_value env) args) with
      | "isPowerOf2", [ Some v ] ->
          Dom.tri_is_power_of_two ~or_zero:false (domain env v)
      | "isPowerOf2OrZero", [ Some v ] ->
          Dom.tri_is_power_of_two ~or_zero:true (domain env v)
      | "isSignBit", [ Some v ] ->
          let w = State.value_width (Lazy.force env.st) v in
          Dom.tri_eq (domain env v) (Dom.singleton (Bitvec.min_signed w))
      | "isShiftedMask", [ Some (Ir.Const c) ] ->
          let w = Bitvec.width c in
          let filled = Bitvec.logor c (Bitvec.sub c (Bitvec.one w)) in
          let succ = Bitvec.add filled (Bitvec.one w) in
          Dom.tri_of_bool
            ((not (Bitvec.is_zero c))
            && Bitvec.is_zero
                 (Bitvec.logand succ (Bitvec.sub succ (Bitvec.one w))))
      | "MaskedValueIsZero", [ Some v; Some (Ir.Const mask) ] ->
          let d = domain env v in
          proof
            (Bitvec.is_zero
               (Bitvec.logand mask (Bitvec.lognot d.Dom.kb.Analysis.zeros)))
      | ("hasOneUse" | "OneUse"), [ Some (Ir.Var n) ] ->
          Dom.tri_of_bool (State.uses (Lazy.force env.st) n = 1)
      | ("hasOneUse" | "OneUse"), [ Some _ ] -> Dom.True
      | "WillNotOverflowSignedAdd", [ Some a; Some b ] ->
          no_overflow `Add ~signed:true a b
      | "WillNotOverflowUnsignedAdd", [ Some a; Some b ] ->
          no_overflow `Add ~signed:false a b
      | "WillNotOverflowSignedSub", [ Some a; Some b ] ->
          no_overflow `Sub ~signed:true a b
      | "WillNotOverflowUnsignedSub", [ Some a; Some b ] ->
          no_overflow `Sub ~signed:false a b
      | "WillNotOverflowSignedMul", [ Some (Ir.Const a); Some (Ir.Const b) ] ->
          Dom.tri_of_bool (not (Bitvec.mul_overflows_signed a b))
      | "WillNotOverflowSignedMul", [ Some a; Some b ] ->
          no_overflow `Mul ~signed:true a b
      | "WillNotOverflowUnsignedMul", [ Some (Ir.Const a); Some (Ir.Const b) ]
        ->
          Dom.tri_of_bool (not (Bitvec.mul_overflows_unsigned a b))
      | "WillNotOverflowUnsignedMul", [ Some a; Some b ] ->
          no_overflow `Mul ~signed:false a b
      | _ -> Dom.Unknown)

let pred env p = tri_pred env p = Dom.True
