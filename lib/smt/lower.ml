open Term

(* Unsigned restoring division at the term level. Works on width w + 1 so the
   partial remainder never overflows; produces quotient and remainder terms.
   SMT-LIB division-by-zero semantics are patched in by an outer ite. *)
let udivrem_circuit a b =
  let w = width a in
  let wide = w + 1 in
  let b' = zext b wide in
  (* [Term.zero] requires a representable constant (width <= 64); the
     circuit runs at w + 1, which exceeds it at width 64, so the wide zero
     is assembled structurally there. *)
  let r =
    ref
      (if wide <= Bitvec.max_width then zero wide
       else concat (zero (wide - Bitvec.max_width)) (zero Bitvec.max_width))
  in
  let qbits = Array.make w fls in
  for i = w - 1 downto 0 do
    (* r = (r << 1) | a_i  — built structurally: drop the top bit, append. *)
    let shifted = concat (extract ~hi:(wide - 2) ~lo:0 !r) (extract ~hi:i ~lo:i a) in
    let ge = uge shifted b' in
    qbits.(i) <- ge;
    r := ite ge (sub shifted b') shifted
  done;
  let q =
    (* Assemble quotient bits; bit i is boolean qbits.(i). *)
    let bit_term i = ite qbits.(i) (one 1) (zero 1) in
    let rec build i acc = if i = w then acc else build (i + 1) (concat (bit_term i) acc)
    in
    build 1 (bit_term 0)
  in
  (q, trunc !r w)

let udiv_lowered a b =
  let w = width a in
  let q, _ = udivrem_circuit a b in
  ite (is_zero b) (all_ones w) q

let urem_lowered a b =
  let _, r = udivrem_circuit a b in
  ite (is_zero b) a r

(* |t| as an unsigned pattern. |0 - y| = |y| for every y (0 and INT_MIN
   included), so a negated operand shares its divider with the plain one:
   [srem x (0-y)] and [srem x y] hash-cons to one [udivrem_circuit]. *)
let rec magnitude t =
  match t.node with
  | Bbin (Sub, { node = BvConst z; _ }, y) when Bitvec.is_zero z -> magnitude y
  | _ ->
      let w = width t in
      ite (eq (extract ~hi:(w - 1) ~lo:(w - 1) t) (one 1)) (bneg t) t

(* Signed division via magnitudes: SMT-LIB bvsdiv/bvsrem semantics, including
   INT_MIN / -1 wrap (which magnitude arithmetic reproduces exactly at width
   w because |INT_MIN| = INT_MIN as an unsigned pattern). *)
let sdiv_lowered a b =
  let w = width a in
  let sign t = extract ~hi:(w - 1) ~lo:(w - 1) t in
  let neg_a = eq (sign a) (one 1) and neg_b = eq (sign b) (one 1) in
  let q, _ = udivrem_circuit (magnitude a) (magnitude b) in
  let q = ite (xor_bool neg_a neg_b) (bneg q) q in
  (* Division by zero: 1 if the dividend is negative, else all-ones. *)
  ite (is_zero b) (ite neg_a (one w) (all_ones w)) q

let srem_lowered a b =
  let w = width a in
  let neg_a = eq (extract ~hi:(w - 1) ~lo:(w - 1) a) (one 1) in
  let _, r = udivrem_circuit (magnitude a) (magnitude b) in
  let r = ite neg_a (bneg r) r in
  ite (is_zero b) a r

(* Barrel shifter: decompose the shift amount into its bits; stage j shifts
   by 2^j when amount bit j is set. Amount bits at or above log2(w)+1 force
   the over-shift result. *)
let barrel ~over_shift ~shift_by_const a b =
  let w = width a in
  let stages =
    (* Number of amount bits that can matter: ceil(log2(w)) + 1 caps at w. *)
    let rec go j = if 1 lsl j >= w then j + 1 else go (j + 1) in
    go 0
  in
  let result = ref a in
  for j = 0 to min (stages - 1) (w - 1) do
    let bit = eq (extract ~hi:j ~lo:j b) (one 1) in
    let amount = 1 lsl j in
    let shifted =
      if amount >= w then over_shift else shift_by_const !result amount
    in
    result := ite bit shifted !result
  done;
  (* If any higher amount bit is set, the shift is >= w. *)
  if stages < w then begin
    let high = extract ~hi:(w - 1) ~lo:stages b in
    result := ite (is_zero high) !result over_shift
  end;
  !result

let shl_lowered a b =
  let w = width a in
  let shift_by_const x k = concat (extract ~hi:(w - 1 - k) ~lo:0 x) (zero k) in
  barrel ~over_shift:(zero w) ~shift_by_const a b

let lshr_lowered a b =
  let w = width a in
  let shift_by_const x k = zext (extract ~hi:(w - 1) ~lo:k x) w in
  barrel ~over_shift:(zero w) ~shift_by_const a b

let ashr_lowered a b =
  let w = width a in
  let sign_fill = sext (extract ~hi:(w - 1) ~lo:(w - 1) a) w in
  let shift_by_const x k = sext (extract ~hi:(w - 1) ~lo:k x) w in
  barrel ~over_shift:sign_fill ~shift_by_const a b

let is_const t = match t.node with BvConst _ -> true | _ -> false

let lower t =
  let memo : (int, Term.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some t' -> t'
    | None ->
        let t' =
          match t.node with
          | True | False | Var _ | BvConst _ -> t
          | Not a -> not_ (go a)
          | And l -> and_ (List.map go l)
          | Or l -> or_ (List.map go l)
          | Eq (a, b) -> eq (go a) (go b)
          | Ult (a, b) -> ult (go a) (go b)
          | Slt (a, b) -> slt (go a) (go b)
          | Ite (c, a, b) -> ite (go c) (go a) (go b)
          | Bnot a -> bnot (go a)
          | Extract (hi, lo, a) -> extract ~hi ~lo (go a)
          | Concat (a, b) -> concat (go a) (go b)
          | Zext (n, a) ->
              let a = go a in
              zext a (width a + n)
          | Sext (n, a) ->
              let a = go a in
              sext a (width a + n)
          | Bbin (op, a, b) -> (
              let a = go a and b = go b in
              match op with
              | Udiv -> udiv_lowered a b
              | Sdiv -> sdiv_lowered a b
              | Urem -> urem_lowered a b
              | Srem -> srem_lowered a b
              | Shl when not (is_const b) -> shl_lowered a b
              | Lshr when not (is_const b) -> lshr_lowered a b
              | Ashr when not (is_const b) -> ashr_lowered a b
              | _ -> bbin op a b)
        in
        Hashtbl.add memo t.id t';
        t'
  in
  go t
