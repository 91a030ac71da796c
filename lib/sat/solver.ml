(* CDCL SAT solver. Literal encoding: variable v yields literals 2v (positive)
   and 2v+1 (negative); negation is xor 1. Per-variable assignment is stored
   as 0 (true), 1 (false) or 2 (unassigned), so the value of a literal is
   [assign.(var) lxor sign] with any result >= 2 meaning unassigned — the
   MiniSat trick that keeps the propagation inner loop branch-light. *)

type lit = int

let mk_lit v sign = (2 * v) + if sign then 0 else 1
let neg l = l lxor 1
let var l = l lsr 1
let is_pos l = l land 1 = 0

let pp_lit ppf l =
  Format.fprintf ppf "%s%d" (if is_pos l then "" else "-") (var l)

(* Clause arena: every clause lives in one growable [int array] as a
   three-word header [len; flags; serial] followed by its [len] literals. A
   clause is named by the offset of its header, so watch lists, reasons and
   the clause databases are plain [int array]s and the propagation loop
   never stores a pointer (no write barrier on its hottest line). Learnt
   activity lives in a float table indexed by the clause's serial. *)
let learnt_flag = 1
let deleted_flag = 2
let header = 3
let no_reason = -1

(* Growable vector of ints: clause databases and the analysis buffer. *)
module Ivec = struct
  type t = { mutable data : int array; mutable size : int }

  let create () = { data = Array.make 4 0; size = 0 }

  let push t x =
    if t.size = Array.length t.data then begin
      let data = Array.make (2 * t.size) 0 in
      Array.blit t.data 0 data 0 t.size;
      t.data <- data
    end;
    Array.unsafe_set t.data t.size x;
    t.size <- t.size + 1

  let clear t = t.size <- 0
end

(* Watch list: clause offsets paired with a "blocker" literal (some other
   literal of the clause, typically the other watch). If the blocker is
   already true the clause is satisfied and propagation skips it without
   touching the arena — most watched clauses are skipped this way
   (MiniSat 2.2). *)
module Wvec = struct
  type t = {
    mutable cls : int array;
    mutable blk : int array;
    mutable size : int;
  }

  let create () = { cls = Array.make 4 0; blk = Array.make 4 0; size = 0 }

  let push t c b =
    if t.size = Array.length t.cls then begin
      let cls = Array.make (2 * t.size) 0 in
      Array.blit t.cls 0 cls 0 t.size;
      t.cls <- cls;
      let blk = Array.make (2 * t.size) 0 in
      Array.blit t.blk 0 blk 0 t.size;
      t.blk <- blk
    end;
    Array.unsafe_set t.cls t.size c;
    Array.unsafe_set t.blk t.size b;
    t.size <- t.size + 1
end

type t = {
  mutable nvars : int;
  mutable assign : Bytes.t; (* per var: 0 true, 1 false, 2 unassigned *)
  mutable level : int array;
  mutable reason : int array; (* clause offset, or [no_reason] *)
  mutable act : float array;
  mutable phase : Bytes.t; (* saved phase per var: 0 true, 1 false *)
  mutable watches : Wvec.t array; (* indexed by literal *)
  heap : Heap.t;
  mutable arena : int array;
  mutable arena_top : int; (* first free word *)
  mutable wasted : int; (* words held by deleted clauses *)
  mutable cla_act : float array; (* learnt activity, by serial *)
  mutable serials : int; (* next serial *)
  clauses : Ivec.t;
  learnts : Ivec.t;
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int array; (* trail boundary per decision level *)
  mutable trail_lim_size : int; (* = current decision level *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable compactions : int;
  mutable max_learnts : float;
  mutable seen : Bytes.t; (* scratch for conflict analysis *)
  analyzed : Ivec.t; (* conflict analysis: tail literals, in discovery order *)
  learnt : Ivec.t; (* conflict analysis: the clause to learn *)
}

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999

let create () =
  {
    nvars = 0;
    assign = Bytes.make 64 '\002';
    level = Array.make 64 0;
    reason = Array.make 64 no_reason;
    act = Array.make 64 0.0;
    phase = Bytes.make 64 '\001';
    watches = Array.init 128 (fun _ -> Wvec.create ());
    heap = Heap.create ();
    arena = Array.make 1024 0;
    arena_top = 0;
    wasted = 0;
    cla_act = Array.make 64 0.0;
    serials = 0;
    clauses = Ivec.create ();
    learnts = Ivec.create ();
    trail = Array.make 64 0;
    trail_size = 0;
    trail_lim = Array.make 64 0;
    trail_lim_size = 0;
    qhead = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    compactions = 0;
    max_learnts = 1000.0;
    seen = Bytes.make 64 '\000';
    analyzed = Ivec.create ();
    learnt = Ivec.create ();
  }

let nvars t = t.nvars

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  if v >= Array.length t.level then begin
    let n = 2 * (v + 1) in
    let grow_bytes b init =
      let b' = Bytes.make n init in
      Bytes.blit b 0 b' 0 (Bytes.length b);
      b'
    in
    t.assign <- grow_bytes t.assign '\002';
    t.phase <- grow_bytes t.phase '\001';
    t.seen <- grow_bytes t.seen '\000';
    let level = Array.make n 0 in
    Array.blit t.level 0 level 0 v;
    t.level <- level;
    let reason = Array.make n no_reason in
    Array.blit t.reason 0 reason 0 v;
    t.reason <- reason;
    let act = Array.make n 0.0 in
    Array.blit t.act 0 act 0 v;
    t.act <- act;
    let watches = Array.init (2 * n) (fun _ -> Wvec.create ()) in
    Array.blit t.watches 0 watches 0 (2 * v);
    t.watches <- watches;
    let trail = Array.make n 0 in
    Array.blit t.trail 0 trail 0 t.trail_size;
    t.trail <- trail
  end;
  Heap.insert t.heap ~act:t.act v;
  v

(* Value of a literal: 0 = true, 1 = false, >= 2 = unassigned. *)
let lit_value t l = Char.code (Bytes.unsafe_get t.assign (l lsr 1)) lxor (l land 1)

let decision_level t = t.trail_lim_size

(* Open a new decision level at the current trail position. *)
let push_level t =
  if t.trail_lim_size = Array.length t.trail_lim then begin
    let lim = Array.make (2 * t.trail_lim_size) 0 in
    Array.blit t.trail_lim 0 lim 0 t.trail_lim_size;
    t.trail_lim <- lim
  end;
  t.trail_lim.(t.trail_lim_size) <- t.trail_size;
  t.trail_lim_size <- t.trail_lim_size + 1

(* Copy the first [n] literals of [src] into a fresh arena clause and
   return its offset. *)
let alloc_clause t ~learnt src n =
  let need = t.arena_top + header + n in
  if need > Array.length t.arena then begin
    let arena = Array.make (max need (2 * Array.length t.arena)) 0 in
    Array.blit t.arena 0 arena 0 t.arena_top;
    t.arena <- arena
  end;
  if t.serials = Array.length t.cla_act then begin
    let a = Array.make (2 * t.serials) 0.0 in
    Array.blit t.cla_act 0 a 0 t.serials;
    t.cla_act <- a
  end;
  let c = t.arena_top in
  t.arena.(c) <- n;
  t.arena.(c + 1) <- (if learnt then learnt_flag else 0);
  t.arena.(c + 2) <- t.serials;
  t.cla_act.(t.serials) <- 0.0;
  Array.blit src 0 t.arena (c + header) n;
  t.arena_top <- need;
  t.serials <- t.serials + 1;
  c

let var_bump t v =
  t.act.(v) <- t.act.(v) +. t.var_inc;
  if t.act.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.act.(i) <- t.act.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100;
    Heap.rebuild t.heap ~act:t.act
  end;
  Heap.decrease t.heap ~act:t.act v

let var_decay_activity t = t.var_inc <- t.var_inc *. var_decay

let cla_bump t c =
  let s = t.arena.(c + 2) in
  t.cla_act.(s) <- t.cla_act.(s) +. t.cla_inc;
  if t.cla_act.(s) > 1e20 then begin
    for i = 0 to t.learnts.Ivec.size - 1 do
      let s = t.arena.(t.learnts.Ivec.data.(i) + 2) in
      t.cla_act.(s) <- t.cla_act.(s) *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let cla_decay_activity t = t.cla_inc <- t.cla_inc *. clause_decay

(* [reason] is the implying clause, or [no_reason] for decisions/facts. *)
let enqueue t l reason =
  Bytes.unsafe_set t.assign (l lsr 1) (Char.chr (l land 1));
  t.level.(var l) <- decision_level t;
  t.reason.(var l) <- reason;
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

let watch t l c b = Wvec.push t.watches.(l) c b

(* Propagate all enqueued facts; return the conflicting clause, or
   [no_reason]. *)
let propagate t =
  let conflict = ref no_reason in
  while !conflict = no_reason && t.qhead < t.trail_size do
    let l = t.trail.(t.qhead) in
    let nl = neg l in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    (* Clauses with watched literal ¬l (stored under [watches.(l)]) must find
       a new watch or propagate/conflict. New watches go to other lists, so
       this one's arrays stay put while it is scanned. *)
    let ws = t.watches.(l) in
    let cls = ws.Wvec.cls and blk = ws.Wvec.blk in
    let a = t.arena in
    let n = ws.Wvec.size in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let b = Array.unsafe_get blk !i in
      let c = Array.unsafe_get cls !i in
      incr i;
      if lit_value t b = 0 then begin
        (* Blocker already true: satisfied, skip without touching the
           arena. *)
        Array.unsafe_set cls !j c;
        Array.unsafe_set blk !j b;
        incr j
      end
      else if a.(c + 1) land deleted_flag <> 0 then () (* drop lazily *)
      else begin
        let p = c + header in
        (* Ensure the false literal is at position 1. *)
        if a.(p) = nl then begin
          a.(p) <- a.(p + 1);
          a.(p + 1) <- nl
        end;
        let first = a.(p) in
        if lit_value t first = 0 then begin
          (* Clause already satisfied; keep the watch. *)
          Array.unsafe_set cls !j c;
          Array.unsafe_set blk !j first;
          incr j
        end
        else begin
          (* Look for a non-false literal to watch. *)
          let stop = p + a.(c) in
          let k = ref (p + 2) in
          while !k < stop && lit_value t a.(!k) = 1 do
            incr k
          done;
          if !k < stop then begin
            let w = a.(!k) in
            a.(p + 1) <- w;
            a.(!k) <- nl;
            watch t (neg w) c first
          end
          else begin
            Array.unsafe_set cls !j c;
            Array.unsafe_set blk !j first;
            incr j;
            if lit_value t first = 1 then begin
              (* Conflict: keep the remaining watches and bail out. *)
              while !i < n do
                Array.unsafe_set cls !j (Array.unsafe_get cls !i);
                Array.unsafe_set blk !j (Array.unsafe_get blk !i);
                incr i;
                incr j
              done;
              conflict := c
            end
            else (* Unit: propagate [first]. *)
              enqueue t first c
          end
        end
      end
    done;
    ws.Wvec.size <- !j
  done;
  !conflict

(* A literal q of a learnt clause is redundant if its reason's other
   literals are all in the clause (seen) or fixed at level 0. *)
let redundant t q =
  let c = t.reason.(var q) in
  c <> no_reason
  &&
  let a = t.arena and nq = neg q in
  let i = ref (c + header) and stop = c + header + a.(c) in
  while
    !i < stop
    &&
    let r = a.(!i) in
    r = nq || Bytes.get t.seen (var r) = '\001' || t.level.(var r) = 0
  do
    incr i
  done;
  !i = stop

(* First-UIP conflict analysis. Leaves the learnt clause (asserting literal
   first) in [t.learnt] and returns the backtrack level. *)
let analyze t confl =
  let a = t.arena in
  let seen = t.seen in
  let tail = t.analyzed in
  Ivec.clear tail;
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (t.trail_size - 1) in
  let continue = ref true in
  while !continue do
    let c = !confl in
    assert (c <> no_reason) (* every inner resolvent has a reason *);
    if a.(c + 1) land learnt_flag <> 0 then cla_bump t c;
    let start = if !p = -1 then 0 else 1 in
    for i = c + header + start to c + header + a.(c) - 1 do
      let q = a.(i) in
      let v = var q in
      if Bytes.get seen v = '\000' && t.level.(v) > 0 then begin
        Bytes.set seen v '\001';
        var_bump t v;
        if t.level.(v) >= decision_level t then incr counter
        else Ivec.push tail q
      end
    done;
    (* Select the next literal on the trail to resolve on. *)
    while Bytes.get seen (var t.trail.(!index)) = '\000' do
      decr index
    done;
    p := t.trail.(!index);
    confl := t.reason.(var !p);
    Bytes.set seen (var !p) '\000';
    decr index;
    decr counter;
    if !counter = 0 then continue := false
  done;
  (* Clause minimization drops the redundant tail literals (all of them
     still have their seen bit set here). The learnt clause lists the
     survivors newest first, as a list built by consing would. *)
  let learnt = t.learnt in
  Ivec.clear learnt;
  Ivec.push learnt (neg !p);
  let btlevel = ref 0 in
  for i = tail.Ivec.size - 1 downto 0 do
    let q = tail.Ivec.data.(i) in
    if not (redundant t q) then begin
      Ivec.push learnt q;
      btlevel := max !btlevel t.level.(var q)
    end
  done;
  for i = 0 to tail.Ivec.size - 1 do
    Bytes.set seen (var tail.Ivec.data.(i)) '\000'
  done;
  !btlevel

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let b = t.trail_lim.(lvl) in
    for i = t.trail_size - 1 downto b do
      let l = t.trail.(i) in
      let v = var l in
      Bytes.set t.phase v (if is_pos l then '\000' else '\001');
      Bytes.set t.assign v '\002';
      t.reason.(v) <- no_reason;
      if not (Heap.in_heap t.heap v) then Heap.insert t.heap ~act:t.act v
    done;
    t.trail_size <- b;
    t.qhead <- b;
    t.trail_lim_size <- lvl
  end

let add_clause t lits =
  if t.ok then begin
    cancel_until t 0;
    (* Remove duplicates and false-at-level-0 literals; detect tautologies
       and already-satisfied clauses. Sorted, a literal and its negation
       (2v, 2v+1) are neighbours. *)
    let lits = List.sort_uniq Int.compare lits in
    let rec complementary = function
      | a :: (b :: _ as rest) -> b = neg a || complementary rest
      | _ -> false
    in
    let tautology =
      complementary lits
      || List.exists (fun l -> lit_value t l = 0 && t.level.(var l) = 0) lits
    in
    if not tautology then begin
      let lits =
        List.filter (fun l -> not (lit_value t l = 1 && t.level.(var l) = 0)) lits
      in
      match lits with
      | [] -> t.ok <- false
      | [ l ] ->
          assert (decision_level t = 0);
          if lit_value t l = 1 then t.ok <- false
          else if lit_value t l >= 2 then begin
            enqueue t l no_reason;
            if propagate t <> no_reason then t.ok <- false
          end
      | l0 :: l1 :: _ ->
          let arr = Array.of_list lits in
          let c = alloc_clause t ~learnt:false arr (Array.length arr) in
          Ivec.push t.clauses c;
          watch t (neg l0) c l1;
          watch t (neg l1) c l0
    end
  end

(* Install the learnt clause in [t.learnt]: watch the asserting literal and
   a literal from the backtrack level, then assert. *)
let record_learnt t =
  let lits = t.learnt.Ivec.data and n = t.learnt.Ivec.size in
  if n = 1 then enqueue t lits.(0) no_reason
  else begin
    (* Position 1 must hold a literal of the highest remaining level so the
       watch invariant holds after backtracking. *)
    let best = ref 1 in
    for i = 2 to n - 1 do
      if t.level.(var lits.(i)) > t.level.(var lits.(!best)) then best := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp;
    let c = alloc_clause t ~learnt:true lits n in
    Ivec.push t.learnts c;
    cla_bump t c;
    watch t (neg lits.(0)) c lits.(1);
    watch t (neg lits.(1)) c lits.(0);
    enqueue t lits.(0) c
  end

(* Slide the live clauses down over the deleted ones, in offset order, and
   renumber their serials densely. First pass: each live clause's new
   offset replaces its serial in the old header (a forwarding address) and
   its activity moves to its new serial; then every reference is rewritten
   through the forwarding address (watches of deleted clauses are dropped
   — propagation would drop them anyway, and they never decide anything);
   second pass: the clauses move. No second arena is allocated. *)
let compact t =
  let a = t.arena in
  let dst = ref 0 and serial = ref 0 in
  let o = ref 0 in
  while !o < t.arena_top do
    let size = header + a.(!o) in
    if a.(!o + 1) land deleted_flag = 0 then begin
      t.cla_act.(!serial) <- t.cla_act.(a.(!o + 2));
      a.(!o + 2) <- !dst;
      dst := !dst + size;
      incr serial
    end;
    o := !o + size
  done;
  let relocate (v : Ivec.t) =
    for i = 0 to v.size - 1 do
      v.data.(i) <- a.(v.data.(i) + 2)
    done
  in
  relocate t.clauses;
  relocate t.learnts;
  for i = 0 to t.trail_size - 1 do
    let v = var t.trail.(i) in
    let r = t.reason.(v) in
    if r <> no_reason then t.reason.(v) <- a.(r + 2)
  done;
  for l = 0 to (2 * t.nvars) - 1 do
    let ws = t.watches.(l) in
    let j = ref 0 in
    for i = 0 to ws.Wvec.size - 1 do
      let c = ws.Wvec.cls.(i) in
      if a.(c + 1) land deleted_flag = 0 then begin
        ws.Wvec.cls.(!j) <- a.(c + 2);
        ws.Wvec.blk.(!j) <- ws.Wvec.blk.(i);
        incr j
      end
    done;
    ws.Wvec.size <- !j
  done;
  let o = ref 0 and serial = ref 0 in
  while !o < t.arena_top do
    let size = header + a.(!o) in
    if a.(!o + 1) land deleted_flag = 0 then begin
      let d = a.(!o + 2) in
      Array.blit a !o a d size;
      a.(d + 2) <- !serial;
      incr serial
    end;
    o := !o + size
  done;
  t.arena_top <- !dst;
  t.serials <- !serial;
  t.wasted <- 0;
  t.compactions <- t.compactions + 1

let reduce_db t =
  let n = t.learnts.Ivec.size in
  let arr = Array.sub t.learnts.Ivec.data 0 n in
  let a = t.arena in
  let activity c = t.cla_act.(a.(c + 2)) in
  Array.sort (fun x y -> Float.compare (activity y) (activity x)) arr;
  let locked c =
    let l = a.(c + header) in
    lit_value t l = 0 && t.reason.(var l) = c
  in
  let keep = n / 2 in
  Ivec.clear t.learnts;
  Array.iteri
    (fun i c ->
      if i < keep || locked c || a.(c) <= 2 then Ivec.push t.learnts c
      else begin
        a.(c + 1) <- a.(c + 1) lor deleted_flag;
        t.wasted <- t.wasted + header + a.(c)
      end)
    arr;
  if 2 * t.wasted > t.arena_top then compact t

let luby y x =
  (* The Luby restart sequence 1 1 2 1 1 2 4 ..., MiniSat's formulation. *)
  let rec size sz seq =
    if sz < x + 1 then size ((2 * sz) + 1) (seq + 1) else (sz, seq)
  in
  let rec go sz seq x =
    if sz - 1 = x then seq else go ((sz - 1) / 2) (seq - 1) (x mod ((sz - 1) / 2))
  in
  let sz, seq = size 1 0 in
  y ** float_of_int (go sz seq x)

let pick_branch_var t =
  let rec go () =
    if Heap.is_empty t.heap then -1
    else
      let v = Heap.remove_max t.heap ~act:t.act in
      if Bytes.get t.assign v = '\002' && v < t.nvars then v else go ()
  in
  go ()

exception Result of bool
exception Deadline_hit

(* Search with a conflict budget; raises [Result] on a definite answer,
   returns () when the budget is exhausted (restart). The wall-clock
   deadline is sampled every 128 conflicts — cheap enough to be noise, and
   conflicts are the only place a hard instance spends unbounded time. *)
let search t ~assumptions ~budget ~deadline =
  let conflict_count = ref 0 in
  while true do
    let confl = propagate t in
    if confl <> no_reason then begin
      t.conflicts <- t.conflicts + 1;
      incr conflict_count;
      if
        !conflict_count land 127 = 0
        && deadline > 0.0
        && Unix.gettimeofday () > deadline
      then raise Deadline_hit;
      if decision_level t = 0 then begin
        (* A level-0 conflict is independent of the assumptions. *)
        t.ok <- false;
        raise (Result false)
      end;
      let btlevel = analyze t confl in
      cancel_until t btlevel;
      record_learnt t;
      var_decay_activity t;
      cla_decay_activity t
    end
    else begin
      if !conflict_count >= budget then begin
        cancel_until t (Array.length assumptions);
        raise Exit
      end;
      if float_of_int t.learnts.Ivec.size >= t.max_learnts then reduce_db t;
      (* Extend with the next assumption, or decide. *)
      let dl = decision_level t in
      if dl < Array.length assumptions then begin
        let a = assumptions.(dl) in
        if lit_value t a = 0 then
          (* Already satisfied: open an empty level to keep indices aligned. *)
          push_level t
        else if lit_value t a = 1 then raise (Result false)
        else begin
          push_level t;
          enqueue t a no_reason
        end
      end
      else begin
        let v = pick_branch_var t in
        if v < 0 then raise (Result true);
        t.decisions <- t.decisions + 1;
        push_level t;
        let sign = Bytes.get t.phase v = '\000' in
        enqueue t (mk_lit v sign) no_reason
      end
    end
  done

type budget_reason = Conflicts | Deadline

exception Budget_exceeded of budget_reason

let solve_untraced ?(assumptions = []) ?(conflict_limit = max_int) ?deadline t =
  if not t.ok then false
  else begin
    cancel_until t 0;
    let assumptions = Array.of_list assumptions in
    let deadline = Option.value deadline ~default:0.0 in
    let start_conflicts = t.conflicts in
    let result = ref None in
    let restarts = ref 0 in
    while !result = None do
      if t.conflicts - start_conflicts > conflict_limit then begin
        cancel_until t 0;
        raise (Budget_exceeded Conflicts)
      end;
      if deadline > 0.0 && Unix.gettimeofday () > deadline then begin
        cancel_until t 0;
        raise (Budget_exceeded Deadline)
      end;
      let budget = int_of_float (luby 2.0 !restarts *. 100.0) in
      incr restarts;
      t.restarts <- t.restarts + 1;
      t.max_learnts <-
        Float.max t.max_learnts
          (float_of_int t.clauses.Ivec.size *. 0.3 +. 1000.0);
      (try search t ~assumptions ~budget ~deadline with
      | Result r -> result := Some r
      | Exit -> ()
      | Deadline_hit ->
          cancel_until t 0;
          raise (Budget_exceeded Deadline))
    done;
    (* On UNSAT, leave the solver at level 0 ready for more clauses. *)
    if !result = Some false then cancel_until t 0;
    Option.get !result
  end

let solve ?assumptions ?conflict_limit ?deadline t =
  let module Trace = Alive_trace.Trace in
  let sp = Trace.begin_span "cdcl" in
  let c0 = t.conflicts and d0 = t.decisions in
  let finish outcome =
    Trace.add_meta sp
      [
        ("outcome", Trace.Str outcome);
        ("conflicts", Trace.Int (t.conflicts - c0));
        ("decisions", Trace.Int (t.decisions - d0));
      ];
    Trace.end_span sp
  in
  match solve_untraced ?assumptions ?conflict_limit ?deadline t with
  | sat ->
      finish (if sat then "sat" else "unsat");
      sat
  | exception e ->
      finish "budget";
      raise e

(* Snapshot of the instance for DIMACS dumping: level-0 facts as unit
   clauses, then the problem clauses. Learnt clauses are redundant and
   omitted. Safe to call between [solve]s regardless of the last answer —
   only the level-0 prefix of the trail is read. *)
let export t =
  let cls = ref [] in
  for i = t.clauses.Ivec.size - 1 downto 0 do
    let c = t.clauses.Ivec.data.(i) in
    cls := Array.to_list (Array.sub t.arena (c + header) t.arena.(c)) :: !cls
  done;
  let lvl0 = if t.trail_lim_size = 0 then t.trail_size else t.trail_lim.(0) in
  for i = lvl0 - 1 downto 0 do
    cls := [ t.trail.(i) ] :: !cls
  done;
  (t.nvars, !cls)

let value t l =
  match lit_value t l with
  | 0 -> true
  | 1 -> false
  | _ -> (Bytes.get t.phase (var l) = '\000') = is_pos l

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  clauses : int;
  learnts : int;
  vars : int;
  compactions : int;
}

let stats (t : t) =
  {
    conflicts = t.conflicts;
    decisions = t.decisions;
    propagations = t.propagations;
    restarts = t.restarts;
    clauses = t.clauses.Ivec.size;
    learnts = t.learnts.Ivec.size;
    vars = t.nvars;
    compactions = t.compactions;
  }
