(* The pass's one mutable per-function state, the native twin of LLVM's
   in-place use-def chains that the generated C++ of §4 edits through
   [replaceAllUsesWith]. Built once per [Pass.run_guarded] call; every
   rewrite then updates it in O(touched) instead of rebuilding the
   function.

   Each definition is a node in a circular doubly-linked list (the body,
   in definition order, with a sentinel [head]). A node's [pos] increases
   along the list, so "earlier in the body" is an integer comparison;
   inserting before a node takes labels from the gap below it and
   relabels the whole list only when that gap is exhausted. *)

module Dom = Alive_absint.Domain
module Query = Alive_absint.Query

type node = {
  mutable def : Ir.def;
  mutable pos : int;
  mutable prev : node;
  mutable next : node;
  mutable uses : int;  (* operand occurrences plus [ret], as Ir.uses_of *)
  mutable users : node list;  (* one entry per operand occurrence *)
  mutable dom : Dom.t option;  (* [None] until first asked for *)
  mutable live : bool;
}

type t = {
  fname : string;
  params : (string * int) list;
  param_uses : (string, int) Hashtbl.t;
  nodes : (string, node) Hashtbl.t;
  head : node;
  mutable ret : Ir.value;
  mutable cost : int;
  mutable zeroed : node list;  (* use count fell to 0 since the last collect *)
}

type action = Redefine of Ir.inst | Replace_uses of Ir.value
type edit = { root : string; inserted : Ir.def list; action : action }

let gap = 1 lsl 32
let by_pos a b = Int.compare a.pos b.pos

let add_count tbl n k =
  Hashtbl.replace tbl n (k + Option.value ~default:0 (Hashtbl.find_opt tbl n))

let iter_nodes st f =
  let rec go x =
    if x != st.head then begin
      f x;
      go x.next
    end
  in
  go st.head.next

(* --- Use counts --- *)

let rec remove_one u = function
  | [] -> []
  | x :: rest -> if x == u then rest else x :: remove_one u rest

let count_value st ?user delta = function
  | Ir.Var n -> (
      match Hashtbl.find_opt st.nodes n with
      | Some x ->
          x.uses <- x.uses + delta;
          Option.iter
            (fun u ->
              x.users <-
                (if delta > 0 then u :: x.users else remove_one u x.users))
            user;
          if x.uses = 0 then st.zeroed <- x :: st.zeroed
      | None -> add_count st.param_uses n delta)
  | Ir.Const _ | Ir.Undef _ -> ()

(* [u]'s operand occurrences start ([+1]) or stop ([-1]) counting. *)
let count_operands st u delta =
  List.iter (count_value st ~user:u delta) (Ir.operands_of u.def.Ir.inst)

(* --- Construction and queries --- *)

let new_node def ~pos ~prev ~next =
  { def; pos; prev; next; uses = 0; users = []; dom = None; live = true }

let of_func (f : Ir.func) =
  let rec head =
    {
      def = { Ir.name = ""; width = 0; inst = Ir.Freeze (Ir.Undef 0) };
      pos = 0;
      prev = head;
      next = head;
      uses = 0;
      users = [];
      dom = None;
      live = false;
    }
  in
  let st =
    {
      fname = f.Ir.fname;
      params = f.Ir.params;
      param_uses = Hashtbl.create 8;
      nodes = Hashtbl.create 64;
      head;
      ret = f.Ir.ret;
      cost = 0;
      zeroed = [];
    }
  in
  List.iteri
    (fun i (d : Ir.def) ->
      let x = new_node d ~pos:((i + 1) * gap) ~prev:head.prev ~next:head in
      head.prev.next <- x;
      head.prev <- x;
      Hashtbl.replace st.nodes d.Ir.name x;
      st.cost <- st.cost + Cost.inst_cost d.Ir.inst)
    f.Ir.body;
  iter_nodes st (fun x -> count_operands st x 1);
  count_value st 1 st.ret;
  st

let to_func st =
  let rec body x acc =
    if x == st.head then acc else body x.prev (x.def :: acc)
  in
  {
    Ir.fname = st.fname;
    params = st.params;
    body = body st.head.prev [];
    ret = st.ret;
  }

let find st name = Option.map (fun x -> x.def) (Hashtbl.find_opt st.nodes name)
let mem st name = Hashtbl.mem st.nodes name
let cost st = st.cost

let uses st name =
  match Hashtbl.find_opt st.nodes name with
  | Some x -> x.uses
  | None -> Option.value ~default:0 (Hashtbl.find_opt st.param_uses name)

let users st name =
  match Hashtbl.find_opt st.nodes name with
  | None -> []
  | Some x ->
      List.map
        (fun u -> u.def.Ir.name)
        (List.sort (fun a b -> by_pos b a) x.users)

let value_width st (v : Ir.value) =
  match v with
  | Ir.Const c -> Bitvec.width c
  | Ir.Undef w -> w
  | Ir.Var n -> (
      match List.assoc_opt n st.params with
      | Some w -> w
      | None -> (Hashtbl.find st.nodes n).def.Ir.width)

(* --- Abstract domains ---

   Domains are computed per node on demand, from the operands' domains,
   and kept. A computed node's domain is always the one a whole-function
   forward pass would give it: [refresh] recomputes the computed nodes an
   edit touched, and the computed users of every domain that moved. A
   node that was never asked for is never computed, so a function whose
   preconditions look at a handful of values pays for those values' cones
   and nothing else. *)

let rec value_dom st (v : Ir.value) =
  match v with
  | Ir.Const c -> Dom.singleton c
  | Ir.Undef w -> Dom.top w
  | Ir.Var n -> (
      match Hashtbl.find_opt st.nodes n with
      | Some x -> node_dom st x
      | None -> Dom.top (value_width st v))

and node_dom st x =
  match x.dom with
  | Some d -> d
  | None ->
      let d = Query.transfer (value_dom st) x.def in
      x.dom <- Some d;
      d

let domain = value_dom

(* Users sit after their operands, so always taking the lowest position
   recomputes every node once, after all of its operands; an operand
   computed on demand meanwhile sits below the current node and so reads
   only domains that are already current. Nodes never computed are left
   alone: their first query computes them from current operands. *)
let refresh st names =
  let rec insert x = function
    | [] -> [ x ]
    | y :: rest as l ->
        if x.pos < y.pos then x :: l
        else if x.pos = y.pos then l
        else y :: insert x rest
  in
  let rec go = function
    | [] -> ()
    | x :: rest ->
        let d = Some (Query.transfer (value_dom st) x.def) in
        if d = x.dom then go rest
        else begin
          x.dom <- d;
          go
            (List.fold_left
               (fun acc u -> if Option.is_some u.dom then insert u acc else acc)
               rest x.users)
        end
  in
  go
    (List.sort_uniq by_pos
       (List.filter_map
          (fun n ->
            match Hashtbl.find_opt st.nodes n with
            | Some x when Option.is_some x.dom -> Some x
            | Some _ | None -> None)
          names))

(* --- Edits --- *)

let set_inst st x inst =
  count_operands st x (-1);
  st.cost <- st.cost - Cost.inst_cost x.def.Ir.inst + Cost.inst_cost inst;
  x.def <- { x.def with Ir.inst };
  count_operands st x 1

let remove st x =
  x.prev.next <- x.next;
  x.next.prev <- x.prev;
  x.live <- false;
  Hashtbl.remove st.nodes x.def.Ir.name;
  st.cost <- st.cost - Cost.inst_cost x.def.Ir.inst;
  count_operands st x (-1)

let insert_before st root defs =
  let k = List.length defs in
  if root.pos - root.prev.pos <= k then begin
    let i = ref 0 in
    iter_nodes st (fun x ->
        incr i;
        x.pos <- !i * gap)
  end;
  let step = (root.pos - root.prev.pos) / (k + 1) in
  let xs =
    List.map
      (fun (d : Ir.def) ->
        let x =
          new_node d ~pos:(root.prev.pos + step) ~prev:root.prev ~next:root
        in
        root.prev.next <- x;
        root.prev <- x;
        Hashtbl.replace st.nodes d.Ir.name x;
        st.cost <- st.cost + Cost.inst_cost d.Ir.inst;
        x)
      defs
  in
  List.iter
    (fun x ->
      count_operands st x 1;
      st.zeroed <- x :: st.zeroed)
    xs;
  xs

let splice st e =
  let root = Hashtbl.find st.nodes e.root in
  let inserted = insert_before st root e.inserted in
  let changed =
    match e.action with
    | Redefine inst ->
        let same = inst = root.def.Ir.inst in
        set_inst st root inst;
        if same then inserted else root :: inserted
    | Replace_uses v ->
        let old = Ir.Var e.root in
        let users = List.sort_uniq by_pos root.users in
        List.iter
          (fun u ->
            let subst o = if o = old then v else o in
            set_inst st u (Ir.map_operands subst u.def.Ir.inst))
          users;
        if st.ret = old then begin
          count_value st (-1) st.ret;
          st.ret <- v;
          count_value st 1 v
        end;
        remove st root;
        users @ inserted
  in
  List.map (fun x -> x.def.Ir.name) (List.sort_uniq by_pos changed)

let rec collect st =
  match st.zeroed with
  | [] -> ()
  | x :: rest ->
      st.zeroed <- rest;
      if x.live && x.uses = 0 then remove st x;
      collect st

(* [splice] then [collect], simulated on a scratch table of use-count
   changes: the old root instruction stops counting its operands, the
   inserted definitions and the new root instruction start, and every
   definition whose count reaches zero dies and stops counting its own. *)
let cost_delta st e =
  let root = Hashtbl.find st.nodes e.root in
  let fresh = Hashtbl.create 8 and delta = Hashtbl.create 8 in
  let dying = ref [] and cost = ref 0 in
  let count k inst =
    cost := !cost + (k * Cost.inst_cost inst);
    List.iter
      (function
        | Ir.Var n ->
            add_count delta n k;
            if k < 0 then dying := n :: !dying
        | Ir.Const _ | Ir.Undef _ -> ())
      (Ir.operands_of inst)
  in
  count (-1) root.def.Ir.inst;
  List.iter
    (fun (d : Ir.def) ->
      Hashtbl.replace fresh d.Ir.name d.Ir.inst;
      count 1 d.Ir.inst;
      dying := d.Ir.name :: !dying)
    e.inserted;
  (match e.action with
  | Redefine inst ->
      Hashtbl.replace fresh e.root inst;
      count 1 inst
  | Replace_uses (Ir.Var n) -> add_count delta n root.uses
  | Replace_uses (Ir.Const _ | Ir.Undef _) -> ());
  let inst_of n =
    match Hashtbl.find_opt fresh n with
    | Some inst -> Some inst
    | None when String.equal n e.root -> None (* replaced: already gone *)
    | None -> Option.map (fun x -> x.def.Ir.inst) (Hashtbl.find_opt st.nodes n)
  in
  let uses n =
    Option.value ~default:0 (Hashtbl.find_opt delta n)
    + match Hashtbl.find_opt st.nodes n with Some x -> x.uses | None -> 0
  in
  let dead = Hashtbl.create 8 in
  let rec go () =
    match !dying with
    | [] -> !cost
    | n :: rest ->
        dying := rest;
        (match inst_of n with
        | Some inst when uses n = 0 && not (Hashtbl.mem dead n) ->
            Hashtbl.replace dead n ();
            count (-1) inst
        | Some _ | None -> ());
        go ()
  in
  go ()
