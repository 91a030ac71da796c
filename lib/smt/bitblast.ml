(* CNF encoding. Bitvectors become arrays of literals, least significant
   bit first. Constant bits reuse a single always-true variable, so the SAT
   layer's level-0 simplification absorbs them for free. Every gate gets
   the full two-sided Tseitin definition. *)

module S = Alive_sat.Solver

(* AIG simplification selector: route the circuit through a hash-consed
   AND-inverter graph with structural rewriting before CNF emission. The
   default is on; [--no-aig] restores the direct gate-by-gate encoding. *)
let simplify_flag = Atomic.make true
let set_simplify b = Atomic.set simplify_flag b
let simplify () = Atomic.get simplify_flag

(* AIG-mode state: the graph plus memo tables over graph literals. *)
type aig_state = {
  g : Aig.t;
  abool_memo : (int, Aig.lit) Hashtbl.t;
  abv_memo : (int, Aig.lit array) Hashtbl.t;
  avar_bits : (string, Aig.lit array) Hashtbl.t;
  avar_bools : (string, Aig.lit) Hashtbl.t;
  mutable roots : Aig.lit list; (* asserted/assumed outputs, newest first *)
}

type t = {
  sat : S.t;
  true_lit : S.lit;
  aig : aig_state option;
  bool_memo : (int, S.lit) Hashtbl.t; (* term id -> literal *)
  bv_memo : (int, S.lit array) Hashtbl.t; (* term id -> bit literals *)
  var_bits : (string, S.lit array) Hashtbl.t;
  var_bools : (string, S.lit) Hashtbl.t;
}

let create ?simplify () =
  let sat = S.create () in
  let true_lit = S.mk_lit (S.new_var sat) true in
  S.add_clause sat [ true_lit ];
  let simplify =
    match simplify with Some b -> b | None -> Atomic.get simplify_flag
  in
  {
    sat;
    true_lit;
    aig =
      (if simplify then
         Some
           {
             g = Aig.create ();
             abool_memo = Hashtbl.create 256;
             abv_memo = Hashtbl.create 256;
             avar_bits = Hashtbl.create 16;
             avar_bools = Hashtbl.create 16;
             roots = [];
           }
       else None);
    bool_memo = Hashtbl.create 256;
    bv_memo = Hashtbl.create 256;
    var_bits = Hashtbl.create 16;
    var_bools = Hashtbl.create 16;
  }

let lit_false t = S.neg t.true_lit
let lit_of_bool t b = if b then t.true_lit else lit_false t
let fresh t = S.mk_lit (S.new_var t.sat) true

let is_true t l = l = t.true_lit
let is_false t l = l = lit_false t
let is_const t l = is_true t l || is_false t l

(* Gates. Each returns an output literal; constant inputs short-circuit. *)

let and2 t a b =
  if is_false t a || is_false t b then lit_false t
  else if is_true t a then b
  else if is_true t b then a
  else if a = b then a
  else if a = S.neg b then lit_false t
  else begin
    let o = fresh t in
    S.add_clause t.sat [ S.neg o; a ];
    S.add_clause t.sat [ S.neg o; b ];
    S.add_clause t.sat [ o; S.neg a; S.neg b ];
    o
  end

let or2 t a b = S.neg (and2 t (S.neg a) (S.neg b))

let andn t = function
  | [] -> t.true_lit
  | [ l ] -> l
  | ls ->
      if List.exists (is_false t) ls then lit_false t
      else begin
        let ls = List.filter (fun l -> not (is_true t l)) ls in
        let ls = List.sort_uniq Stdlib.compare ls in
        match ls with
        | [] -> t.true_lit
        | [ l ] -> l
        | _ ->
            if List.exists (fun l -> List.mem (S.neg l) ls) ls then lit_false t
            else begin
              let o = fresh t in
              List.iter (fun l -> S.add_clause t.sat [ S.neg o; l ]) ls;
              S.add_clause t.sat (o :: List.map S.neg ls);
              o
            end
      end

let orn t ls = S.neg (andn t (List.map S.neg ls))

let xor2 t a b =
  if is_const t a then if is_true t a then S.neg b else b
  else if is_const t b then if is_true t b then S.neg a else a
  else if a = b then lit_false t
  else if a = S.neg b then t.true_lit
  else begin
    let o = fresh t in
    S.add_clause t.sat [ S.neg o; a; b ];
    S.add_clause t.sat [ S.neg o; S.neg a; S.neg b ];
    S.add_clause t.sat [ o; S.neg a; b ];
    S.add_clause t.sat [ o; a; S.neg b ];
    o
  end

let iff2 t a b = S.neg (xor2 t a b)

let ite_bool t c a b =
  if is_true t c then a
  else if is_false t c then b
  else if a = b then a
  else if is_true t a && is_false t b then c
  else if is_false t a && is_true t b then S.neg c
  else begin
    let o = fresh t in
    S.add_clause t.sat [ S.neg o; S.neg c; a ];
    S.add_clause t.sat [ S.neg o; c; b ];
    (* Redundant but propagation-friendly. *)
    S.add_clause t.sat [ S.neg o; a; b ];
    S.add_clause t.sat [ o; S.neg c; S.neg a ];
    S.add_clause t.sat [ o; c; S.neg b ];
    S.add_clause t.sat [ o; S.neg a; S.neg b ];
    o
  end

let maj3 t a b c =
      if is_true t a then or2 t b c
      else if is_false t a then and2 t b c
      else if is_true t b then or2 t a c
      else if is_false t b then and2 t a c
      else if is_true t c then or2 t a b
      else if is_false t c then and2 t a b
      else begin
        let o = fresh t in
        S.add_clause t.sat [ S.neg o; a; b ];
        S.add_clause t.sat [ S.neg o; a; c ];
        S.add_clause t.sat [ S.neg o; b; c ];
        S.add_clause t.sat [ o; S.neg a; S.neg b ];
        S.add_clause t.sat [ o; S.neg a; S.neg c ];
        S.add_clause t.sat [ o; S.neg b; S.neg c ];
        o
      end

let xor3 t a b c = xor2 t (xor2 t a b) c

(* Ripple-carry addition with carry-in; returns the sum bits (width of a). *)
let adder t a b cin =
  let n = Array.length a in
  let out = Array.make n (lit_false t) in
  let carry = ref cin in
  for i = 0 to n - 1 do
    out.(i) <- xor3 t a.(i) b.(i) !carry;
    if i < n - 1 then carry := maj3 t a.(i) b.(i) !carry
  done;
  out

(* Unsigned less-than: scan from LSB to MSB keeping a running verdict. *)
let ult_bits t a b =
  let n = Array.length a in
  let lt = ref (lit_false t) in
  for i = 0 to n - 1 do
    lt := ite_bool t (iff2 t a.(i) b.(i)) !lt (and2 t (S.neg a.(i)) b.(i))
  done;
  !lt

let eq_bits t a b = andn t (Array.to_list (Array.map2 (iff2 t) a b))

(* Shift-and-add multiplier. *)
let mul_bits t a b =
  let n = Array.length a in
  let acc = ref (Array.map (fun ai -> and2 t ai b.(0)) a) in
  for i = 1 to n - 1 do
    let addend =
      Array.init n (fun j -> if j < i then lit_false t else and2 t a.(j - i) b.(i))
    in
    acc := adder t !acc addend (lit_false t)
  done;
  !acc

let bits_of_const t c =
  Array.init (Bitvec.width c) (fun i -> lit_of_bool t (Bitvec.bit c i))

(* Shift by a constant amount with a configurable fill bit. *)
let shift_const_bits a k ~left ~fill =
  let n = Array.length a in
  Array.init n (fun i ->
      let src = if left then i - k else i + k in
      if src < 0 || src >= n then fill else a.(src))

open Term

let rec blast_bool t (term : Term.t) : S.lit =
  match Hashtbl.find_opt t.bool_memo term.id with
  | Some l -> l
  | None ->
      let l =
        match term.node with
        | True -> t.true_lit
        | False -> lit_false t
        | Var (name, Bool) -> (
            match Hashtbl.find_opt t.var_bools name with
            | Some l -> l
            | None ->
                let l = fresh t in
                Hashtbl.add t.var_bools name l;
                l)
        | Var (_, Bv _) -> assert false
        | Not a -> S.neg (blast_bool t a)
        | And l -> andn t (List.map (blast_bool t) l)
        | Or l -> orn t (List.map (blast_bool t) l)
        | Eq (a, b) when equal_sort (Term.sort a) Bool ->
            iff2 t (blast_bool t a) (blast_bool t b)
        | Eq (a, b) -> eq_bits t (blast_bv t a) (blast_bv t b)
        | Ult (a, b) -> ult_bits t (blast_bv t a) (blast_bv t b)
        | Slt (a, b) ->
            (* Flip sign bits, then compare unsigned: literal negation is
               free at the SAT level. *)
            let flip_sign bits =
              let bits = Array.copy bits in
              let n = Array.length bits in
              bits.(n - 1) <- S.neg bits.(n - 1);
              bits
            in
            ult_bits t (flip_sign (blast_bv t a)) (flip_sign (blast_bv t b))
        | Ite _ ->
            (* Boolean ite is normalized away by the Term smart constructor. *)
            assert false
        | BvConst _ | Bnot _ | Bbin _ | Extract _ | Concat _ | Zext _ | Sext _
          ->
            assert false
      in
      Hashtbl.replace t.bool_memo term.id l;
      l

and blast_bv t (term : Term.t) : S.lit array =
  match Hashtbl.find_opt t.bv_memo term.id with
  | Some bits -> bits
  | None ->
      let bits =
        match term.node with
        | BvConst c -> bits_of_const t c
        | Var (name, Bv n) -> (
            match Hashtbl.find_opt t.var_bits name with
            | Some bits -> bits
            | None ->
                let bits = Array.init n (fun _ -> fresh t) in
                Hashtbl.add t.var_bits name bits;
                bits)
        | Var (_, Bool) -> assert false
        | Bnot a -> Array.map S.neg (blast_bv t a)
        | Ite (c, a, b) ->
            let c = blast_bool t c in
            Array.map2 (ite_bool t c) (blast_bv t a) (blast_bv t b)
        | Bbin (op, a, b) -> blast_bvop t op a b
        | Extract (hi, lo, a) ->
            let bits = blast_bv t a in
            Array.sub bits lo (hi - lo + 1)
        | Concat (a, b) ->
            let hi = blast_bv t a and lo = blast_bv t b in
            Array.append lo hi
        | Zext (n, a) ->
            let bits = blast_bv t a in
            Array.append bits (Array.make n (lit_false t))
        | Sext (n, a) ->
            let bits = blast_bv t a in
            let sign = bits.(Array.length bits - 1) in
            Array.append bits (Array.make n sign)
        | True | False | Not _ | And _ | Or _ | Eq _ | Ult _ | Slt _ ->
            assert false
      in
      Hashtbl.add t.bv_memo term.id bits;
      bits

and blast_bvop t op a b =
  match op with
  | Add -> adder t (blast_bv t a) (blast_bv t b) (lit_false t)
  | Sub ->
      (* a - b = a + ~b + 1, a single adder with carry-in. *)
      adder t (blast_bv t a) (Array.map S.neg (blast_bv t b)) t.true_lit
  | Mul -> mul_bits t (blast_bv t a) (blast_bv t b)
  | Band -> Array.map2 (and2 t) (blast_bv t a) (blast_bv t b)
  | Bor -> Array.map2 (or2 t) (blast_bv t a) (blast_bv t b)
  | Bxor -> Array.map2 (xor2 t) (blast_bv t a) (blast_bv t b)
  | Shl | Lshr | Ashr -> (
      match b.node with
      | BvConst c ->
          let bits = blast_bv t a in
          let n = Array.length bits in
          let k =
            if Bitvec.ult c (Bitvec.of_int ~width:(Bitvec.width c) n) then
              Bitvec.to_int c
            else n
          in
          let fill =
            if op = Ashr then bits.(n - 1) else lit_false t
          in
          if k >= n then Array.make n fill
          else shift_const_bits bits k ~left:(op = Shl) ~fill
      | _ ->
          (* Variable shifts are removed by Lower. *)
          assert false)
  | Udiv | Sdiv | Urem | Srem ->
      (* Removed by Lower. *)
      assert false

(* --- AIG-backed circuit layer ---

   Same circuits as the direct gates above, expressed over [Aig] literals.
   Rewriting and structural hashing happen inside [Aig.and_]. *)

let axor3 g a b c = Aig.xor_ g (Aig.xor_ g a b) c

let aadder g a b cin =
  let n = Array.length a in
  let out = Array.make n Aig.false_ in
  let carry = ref cin in
  for i = 0 to n - 1 do
    out.(i) <- axor3 g a.(i) b.(i) !carry;
    if i < n - 1 then carry := Aig.maj3 g a.(i) b.(i) !carry
  done;
  out

let ault_bits g a b =
  let n = Array.length a in
  let lt = ref Aig.false_ in
  for i = 0 to n - 1 do
    lt :=
      Aig.ite_ g (Aig.iff_ g a.(i) b.(i)) !lt
        (Aig.and_ g (Aig.not_ a.(i)) b.(i))
  done;
  !lt

let aeq_bits g a b =
  Array.fold_left (Aig.and_ g) Aig.true_ (Array.map2 (Aig.iff_ g) a b)

let amul_bits g a b =
  let n = Array.length a in
  let acc = ref (Array.map (fun ai -> Aig.and_ g ai b.(0)) a) in
  for i = 1 to n - 1 do
    let addend =
      Array.init n (fun j ->
          if j < i then Aig.false_ else Aig.and_ g a.(j - i) b.(i))
    in
    acc := aadder g !acc addend Aig.false_
  done;
  !acc

let abits_of_const c =
  Array.init (Bitvec.width c) (fun i ->
      if Bitvec.bit c i then Aig.true_ else Aig.false_)

let rec ablast_bool st (term : Term.t) : Aig.lit =
  match Hashtbl.find_opt st.abool_memo term.id with
  | Some l -> l
  | None ->
      let g = st.g in
      let l =
        match term.node with
        | True -> Aig.true_
        | False -> Aig.false_
        | Var (name, Bool) -> (
            match Hashtbl.find_opt st.avar_bools name with
            | Some l -> l
            | None ->
                let l = Aig.input g in
                Hashtbl.add st.avar_bools name l;
                l)
        | Var (_, Bv _) -> assert false
        | Not a -> Aig.not_ (ablast_bool st a)
        | And l ->
            List.fold_left
              (fun acc x -> Aig.and_ g acc (ablast_bool st x))
              Aig.true_ l
        | Or l ->
            List.fold_left
              (fun acc x -> Aig.or_ g acc (ablast_bool st x))
              Aig.false_ l
        | Eq (a, b) when equal_sort (Term.sort a) Bool ->
            Aig.iff_ g (ablast_bool st a) (ablast_bool st b)
        | Eq (a, b) -> aeq_bits g (ablast_bv st a) (ablast_bv st b)
        | Ult (a, b) -> ault_bits g (ablast_bv st a) (ablast_bv st b)
        | Slt (a, b) ->
            let flip_sign bits =
              let bits = Array.copy bits in
              let n = Array.length bits in
              bits.(n - 1) <- Aig.not_ bits.(n - 1);
              bits
            in
            ault_bits g (flip_sign (ablast_bv st a)) (flip_sign (ablast_bv st b))
        | Ite _ -> assert false
        | BvConst _ | Bnot _ | Bbin _ | Extract _ | Concat _ | Zext _ | Sext _
          ->
            assert false
      in
      Hashtbl.replace st.abool_memo term.id l;
      l

and ablast_bv st (term : Term.t) : Aig.lit array =
  match Hashtbl.find_opt st.abv_memo term.id with
  | Some bits -> bits
  | None ->
      let g = st.g in
      let bits =
        match term.node with
        | BvConst c -> abits_of_const c
        | Var (name, Bv n) -> (
            match Hashtbl.find_opt st.avar_bits name with
            | Some bits -> bits
            | None ->
                let bits = Array.init n (fun _ -> Aig.input g) in
                Hashtbl.add st.avar_bits name bits;
                bits)
        | Var (_, Bool) -> assert false
        | Bnot a -> Array.map Aig.not_ (ablast_bv st a)
        | Ite (c, a, b) ->
            let c = ablast_bool st c in
            Array.map2 (Aig.ite_ g c) (ablast_bv st a) (ablast_bv st b)
        | Bbin (op, a, b) -> ablast_bvop st op a b
        | Extract (hi, lo, a) ->
            let bits = ablast_bv st a in
            Array.sub bits lo (hi - lo + 1)
        | Concat (a, b) ->
            let hi = ablast_bv st a and lo = ablast_bv st b in
            Array.append lo hi
        | Zext (n, a) ->
            let bits = ablast_bv st a in
            Array.append bits (Array.make n Aig.false_)
        | Sext (n, a) ->
            let bits = ablast_bv st a in
            let sign = bits.(Array.length bits - 1) in
            Array.append bits (Array.make n sign)
        | True | False | Not _ | And _ | Or _ | Eq _ | Ult _ | Slt _ ->
            assert false
      in
      Hashtbl.add st.abv_memo term.id bits;
      bits

and ablast_bvop st op a b =
  let g = st.g in
  match op with
  | Add -> aadder g (ablast_bv st a) (ablast_bv st b) Aig.false_
  | Sub ->
      aadder g (ablast_bv st a) (Array.map Aig.not_ (ablast_bv st b)) Aig.true_
  | Mul -> amul_bits g (ablast_bv st a) (ablast_bv st b)
  | Band -> Array.map2 (Aig.and_ g) (ablast_bv st a) (ablast_bv st b)
  | Bor -> Array.map2 (Aig.or_ g) (ablast_bv st a) (ablast_bv st b)
  | Bxor -> Array.map2 (Aig.xor_ g) (ablast_bv st a) (ablast_bv st b)
  | Shl | Lshr | Ashr -> (
      match b.node with
      | BvConst c ->
          let bits = ablast_bv st a in
          let n = Array.length bits in
          let k =
            if Bitvec.ult c (Bitvec.of_int ~width:(Bitvec.width c) n) then
              Bitvec.to_int c
            else n
          in
          let fill = if op = Ashr then bits.(n - 1) else Aig.false_ in
          if k >= n then Array.make n fill
          else shift_const_bits bits k ~left:(op = Shl) ~fill
      | _ ->
          (* Variable shifts are removed by Lower. *)
          assert false)
  | Udiv | Sdiv | Urem | Srem ->
      (* Removed by Lower. *)
      assert false

(* Emit the CNF cone of a root from the reduced graph into this context's
   SAT solver, and remember the root for AIGER export. *)
let aig_emit t st root =
  st.roots <- root :: st.roots;
  Aig.emit st.g ~false_lit:(lit_false t)
    ~fresh:(fun () -> fresh t)
    ~clause:(fun c -> S.add_clause t.sat c)
    root

module Trace = Alive_trace.Trace

(* [lower] rewrites to the core fragment, [bitblast] runs the CNF
   encoding; both are memoized per context, so re-asserting shared
   subterms shows up as near-zero-duration spans. *)
let lower_traced term = Trace.with_span "lower" (fun () -> Lower.lower term)

let blast_bool_traced t term =
  Trace.with_span "bitblast" (fun () ->
      match t.aig with
      | Some st -> aig_emit t st (ablast_bool st term)
      | None -> blast_bool t term)

let assert_formula t term =
  if not (equal_sort (Term.sort term) Bool) then
    invalid_arg "Bitblast.assert_formula: bitvector-sorted term";
  let l = blast_bool_traced t (lower_traced term) in
  S.add_clause t.sat [ l ]

let check ?(assumptions = []) ?conflict_limit ?deadline t =
  let lits =
    List.map (fun f -> blast_bool_traced t (lower_traced f)) assumptions
  in
  if S.solve ~assumptions:lits ?conflict_limit ?deadline t.sat then `Sat
  else `Unsat

let model_value t name sort =
  let bool_lit name =
    match t.aig with
    | Some st ->
        Option.bind
          (Hashtbl.find_opt st.avar_bools name)
          (Aig.sat_lit_opt st.g)
    | None -> Hashtbl.find_opt t.var_bools name
  in
  let bv_lits name =
    match t.aig with
    | Some st ->
        Option.map
          (Array.map (Aig.sat_lit_opt st.g))
          (Hashtbl.find_opt st.avar_bits name)
    | None ->
        Option.map (Array.map Option.some) (Hashtbl.find_opt t.var_bits name)
  in
  match sort with
  | Bool -> (
      match bool_lit name with
      | Some l -> Vbool (S.value t.sat l)
      | None -> Vbool false)
  | Bv n -> (
      match bv_lits name with
      | Some bits ->
          let v = ref 0L in
          Array.iteri
            (fun i l ->
              (* Bits whose cone was never emitted are unconstrained;
                 any value satisfies the model, zero is the convention. *)
              match l with
              | Some l when S.value t.sat l ->
                  v := Int64.logor !v (Int64.shift_left 1L i)
              | _ -> ())
            bits;
          Vbv (Bitvec.make ~width:n !v)
      | None -> Vbv (Bitvec.zero n))

let stats t = S.stats t.sat

let export t = S.export t.sat

let aig_stats t = Option.map (fun st -> Aig.stats st.g) t.aig

let export_aiger t =
  Option.map (fun st -> Aig.to_aiger st.g ~outputs:(List.rev st.roots)) t.aig
