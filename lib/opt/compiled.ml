(* The compiled matcher: the verified ruleset fused into one discrimination
   tree over opcodes and operand shapes, so matching a candidate definition
   is a single trie walk plus a handful of exact [Matcher.match_in] checks
   instead of an O(rules) scan. This is the native twin of what the
   generated C++ pass of §4 is after the C++ compiler is done with it: a
   decision tree on the root opcode and the shapes below it.

   Soundness contract: the trie is a pure pre-filter. It may return
   candidates that do not match (attributes, repeated variables, constant
   values and preconditions are not encoded), but it must never miss a
   rule that [Matcher.match_in] would accept. Final acceptance always
   re-runs [Matcher.match_in] in registry order, so the compiled path
   picks the same rule with the same bindings as the per-rule scan — by
   construction, not by luck. *)

open Alive.Ast

(* --- Shape tokens ---

   Patterns and subjects are flattened to pre-order token sequences of
   small ints. A pattern token constrains the aligned subject token; a
   [p_any] edge (free pattern variable) skips one whole subject subtree
   using the precomputed subtree-size table.

   Codes [0, n_ops) are opcodes (binop, icmp condition, select, cast),
   then a constant, an undef, and, for subjects only, a leaf: a
   parameter, a depth-truncated instruction, or an opcode no pattern can
   name (freeze), which only [p_any] matches. *)

let binop_code = function
  | Ir.Add -> 0
  | Ir.Sub -> 1
  | Ir.Mul -> 2
  | Ir.Udiv -> 3
  | Ir.Sdiv -> 4
  | Ir.Urem -> 5
  | Ir.Srem -> 6
  | Ir.Shl -> 7
  | Ir.Lshr -> 8
  | Ir.Ashr -> 9
  | Ir.And -> 10
  | Ir.Or -> 11
  | Ir.Xor -> 12

let cond_code = function
  | Ir.Eq -> 13
  | Ir.Ne -> 14
  | Ir.Ugt -> 15
  | Ir.Uge -> 16
  | Ir.Ult -> 17
  | Ir.Ule -> 18
  | Ir.Sgt -> 19
  | Ir.Sge -> 20
  | Ir.Slt -> 21
  | Ir.Sle -> 22

let select_code = 23
let conv_code = function Ir.Zext -> 24 | Ir.Sext -> 25 | Ir.Trunc -> 26
let n_ops = 27
let c_const = n_ops (* an IR constant; the value is checked by [match_in] *)
let c_undef = n_ops + 1
let s_leaf = n_ops + 2
let p_any = -1 (* free template variable: matches any operand *)
let n_edge_codes = n_ops + 2 (* the codes a pattern edge indexes by *)

let arity =
  Array.init (n_ops + 3) (fun c ->
      if c < select_code then 2
      else if c = select_code then 3
      else if c < n_ops then 1
      else 0)

(* --- Pattern flattening --- *)

exception Unsupported

let ast_code (i : Alive.Ast.inst) =
  match i with
  | Binop (op, _, _, _) -> binop_code (Matcher.ir_binop op)
  | Icmp (c, _, _) -> cond_code (Matcher.ir_cond c)
  | Select _ -> select_code
  | Conv (Zext, _, _) -> conv_code Ir.Zext
  | Conv (Sext, _, _) -> conv_code Ir.Sext
  | Conv (Trunc, _, _) -> conv_code Ir.Trunc
  | Conv ((Bitcast | Ptrtoint | Inttoptr), _, _) | Copy _ | Alloca _ | Load _
  | Gep _ ->
      raise Unsupported

let ast_operands (i : Alive.Ast.inst) =
  match i with
  | Binop (_, _, a, b) | Icmp (_, a, b) -> [ a; b ]
  | Select (c, a, b) -> [ c; a; b ]
  | Conv (_, a, _) -> [ a ]
  | Copy a -> [ a ]
  | Alloca _ | Load _ | Gep _ -> raise Unsupported

let def_insts stmts =
  List.filter_map
    (function Def (n, _, i) -> Some (n, i) | Store _ | Unreachable -> None)
    stmts

(* Pre-order tokens of a rule's source template, unfolding the DAG from
   the root (exactly the traversal [Matcher.match_in] performs), plus the
   deepest operand level reached (root = level 0). *)
let flatten_pattern (rule : Matcher.rule) =
  let defs = def_insts rule.Matcher.transform.src in
  let root =
    match Alive.Ast.root_of rule.Matcher.transform.src with
    | Some r -> r
    | None -> raise Unsupported
  in
  let toks = ref [] and depth = ref 0 in
  let emit t = toks := t :: !toks in
  let rec def name level =
    let inst = List.assoc name defs in
    emit (ast_code inst);
    List.iter (operand (level + 1)) (ast_operands inst)
  and operand level (top : toperand) =
    if level > !depth then depth := level;
    match top.op with
    | Var n when List.mem_assoc n defs -> def n level
    | Var _ -> emit p_any
    | Undef -> emit c_undef
    | ConstOp _ -> emit c_const
  in
  def root 0;
  (Array.of_list (List.rev !toks), !depth)

(* --- The trie ---

   Built with association-list edges, then frozen into indexed nodes: a
   slot for the [p_any] edge and an array indexed by the subject token's
   code, so a walk step is two loads instead of an edge-list scan. *)

type bnode = {
  mutable baccept : int list;  (* rule indices, ascending registry order *)
  mutable edges : (int * bnode) list;
}

type node = {
  accept : int list;
  any : node option;
  next : node option array;  (* by code below [n_edge_codes]; [||] if none *)
}

let rec freeze b =
  let any = ref None and next = ref [||] in
  List.iter
    (fun (c, child) ->
      if c = p_any then any := Some (freeze child)
      else begin
        if Array.length !next = 0 then next := Array.make n_edge_codes None;
        !next.(c) <- Some (freeze child)
      end)
    b.edges;
  { accept = b.baccept; any = !any; next = !next }

type t = {
  rules : Matcher.rule array;
  rule_list : Matcher.rule list;  (* original list, registry order *)
  root : node;
  residual : int list;
      (* rules the flattener could not compile (always candidates) *)
  max_depth : int;  (* deepest pattern operand level; bounds flattening *)
  nodes : int;
  cyclic : (string, unit) Hashtbl.t;
      (* rule names in a cyclic SCC of the target-feeds rewrite graph *)
}

(* Tarjan over the A→B "target of A feeds source of B" edges — the same
   graph the lint driver reports as rewrite-cycle.scc; the pass uses the
   membership set as its cycle guard (lint depends on opt, so the SCC
   computation lives here). *)
let cyclic_rule_names (rules : Matcher.rule array) =
  let n = Array.length rules in
  let edges =
    Array.init n (fun i ->
        List.filter
          (fun j -> Matcher.target_feeds rules.(i) rules.(j))
          (List.init n Fun.id))
  in
  let index = Array.make n (-1)
  and low = Array.make n 0
  and on_stack = Array.make n false in
  let stack = ref [] and counter = ref 0 and sccs = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      edges.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      sccs := pop [] :: !sccs
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  let members = Hashtbl.create 16 in
  List.iter
    (fun scc ->
      let cyclic =
        match scc with
        | [ v ] -> List.mem v edges.(v)
        | _ :: _ :: _ -> true
        | [] -> false
      in
      if cyclic then
        List.iter
          (fun v -> Hashtbl.replace members rules.(v).Matcher.rule_name ())
          scc)
    !sccs;
  members

let build rule_list =
  let rules = Array.of_list rule_list in
  let root = { baccept = []; edges = [] } in
  let nodes = ref 1 in
  let residual = ref [] and max_depth = ref 0 in
  Array.iteri
    (fun i rule ->
      match flatten_pattern rule with
      | exception (Unsupported | Not_found) -> residual := i :: !residual
      | toks, depth ->
          if depth > !max_depth then max_depth := depth;
          let node = ref root in
          Array.iter
            (fun tok ->
              match List.assoc_opt tok !node.edges with
              | Some child -> node := child
              | None ->
                  let child = { baccept = []; edges = [] } in
                  incr nodes;
                  !node.edges <- (tok, child) :: !node.edges;
                  node := child)
            toks;
          !node.baccept <- !node.baccept @ [ i ])
    rules;
  {
    rules;
    rule_list;
    root = freeze root;
    residual = List.rev !residual;
    max_depth = !max_depth;
    nodes = !nodes;
    cyclic = cyclic_rule_names rules;
  }

let rule_list t = t.rule_list
let max_depth t = t.max_depth
let residual_count t = List.length t.residual
let node_count t = t.nodes
let in_cycle t name = Hashtbl.mem t.cyclic name
let cyclic_count t = Hashtbl.length t.cyclic

(* --- Subject flattening and matching --- *)

type ctx = {
  tree : t;
  st : State.t;
  mutable toks : int array;  (* scratch: subject token codes *)
  mutable size : int array;  (* scratch: subtree sizes, same length *)
}

let context_of_state tree st =
  { tree; st; toks = Array.make 64 s_leaf; size = Array.make 64 1 }

let context tree func = context_of_state tree (State.of_func func)

let ir_code (i : Ir.inst) =
  match i with
  | Ir.Binop (op, _, _, _) -> binop_code op
  | Ir.Icmp (c, _, _) -> cond_code c
  | Ir.Select _ -> select_code
  | Ir.Conv (c, _) -> conv_code c
  | Ir.Freeze _ -> s_leaf

(* Flatten the subject DAG below [root] into ctx.toks, truncating operand
   recursion at the compiled max pattern level: tokens deeper than any
   pattern token can only ever be skipped by a [p_any] subtree skip, so an
   opaque leaf is equivalent and keeps the token count bounded by
   (max arity)^(max depth) regardless of function size. Returns the token
   count. *)
let flatten_subject ctx (root : Ir.def) =
  let pos = ref 0 in
  let emit code =
    if !pos = Array.length ctx.toks then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      ctx.toks <- grow ctx.toks;
      ctx.size <- grow ctx.size
    end;
    ctx.toks.(!pos) <- code;
    incr pos
  in
  let rec def (d : Ir.def) level =
    let code = ir_code d.Ir.inst in
    emit code;
    if code <> s_leaf then
      List.iter (operand (level + 1)) (Ir.operands_of d.Ir.inst)
  and operand level (v : Ir.value) =
    match v with
    | Ir.Const _ -> emit c_const
    | Ir.Undef _ -> emit c_undef
    | Ir.Var n -> (
        if level > ctx.tree.max_depth then emit s_leaf
        else
          match State.find ctx.st n with
          | Some d -> def d level
          | None -> emit s_leaf)
  in
  def root 0;
  !pos

(* Rule indices whose shape can match at [root], ascending registry
   order. *)
let candidate_indices ctx (root : Ir.def) =
  let n = flatten_subject ctx root in
  let toks = ctx.toks and size = ctx.size in
  (* Subtree sizes: children of i start at i+1; the k-th child starts
     right after its elder siblings. *)
  for i = n - 1 downto 0 do
    let s = ref 1 in
    for _ = 1 to arity.(toks.(i)) do
      s := !s + size.(i + !s)
    done;
    size.(i) <- !s
  done;
  let acc = ref [] in
  let rec walk node i =
    if i = n then begin
      if node.accept <> [] then acc := node.accept :: !acc
    end
    else begin
      (match node.any with
      | Some child -> walk child (i + size.(i))
      | None -> ());
      let code = toks.(i) in
      if code < Array.length node.next then
        match node.next.(code) with
        | Some child -> walk child (i + 1)
        | None -> ()
    end
  in
  walk ctx.tree.root 0;
  match (!acc, ctx.tree.residual) with
  | [], res -> res
  | [ accept ], [] -> accept
  | accepts, res -> List.sort_uniq Int.compare (res @ List.concat accepts)

let candidates ctx root =
  List.map (fun i -> ctx.tree.rules.(i)) (candidate_indices ctx root)

let match_def ctx (root : Ir.def) =
  let rec first = function
    | [] -> None
    | i :: rest -> (
        let rule = ctx.tree.rules.(i) in
        match Matcher.match_in rule ctx.st root.Ir.name with
        | Some m -> Some (rule, m)
        | None -> first rest)
  in
  first (candidate_indices ctx root)

(* The uncompiled baseline the trie replaces: first rule in registry
   order whose [match_in] accepts — kept for differential tests and the
   throughput benchmark. *)
let match_linear ~rules ctx (root : Ir.def) =
  List.find_map
    (fun rule ->
      match Matcher.match_in rule ctx.st root.Ir.name with
      | Some m -> Some (rule, m)
      | None -> None)
    rules

let same_match a b =
  match (a, b) with
  | None, None -> true
  | Some ((ra : Matcher.rule), (ma : Matcher.match_result)), Some (rb, mb) ->
      let a = ma.Matcher.bindings and b = mb.Matcher.bindings in
      String.equal ra.Matcher.rule_name rb.Matcher.rule_name
      && String.equal ma.Matcher.root mb.Matcher.root
      && a.Concrete.consts = b.Concrete.consts
      && a.Concrete.values = b.Concrete.values
  | _ -> false
