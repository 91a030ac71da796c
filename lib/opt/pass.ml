module Trace = Alive_trace.Trace

type stats = (string * int) list

(* One backward sweep: users come after their operands, so by the time a
   def is reached every user it will ever lose has already been decided. *)
let dce (f : Ir.func) =
  let uses = Ir.uses_of f in
  let dead = ref false in
  let body =
    List.fold_left
      (fun live (d : Ir.def) ->
        if Option.value ~default:0 (Hashtbl.find_opt uses d.Ir.name) > 0 then
          d :: live
        else begin
          dead := true;
          List.iter
            (function
              | Ir.Var n -> Hashtbl.replace uses n (Hashtbl.find uses n - 1)
              | Ir.Const _ | Ir.Undef _ -> ())
            (Ir.operands_of d.Ir.inst);
          live
        end)
      [] (List.rev f.Ir.body)
  in
  if !dead then { f with Ir.body } else f

let bump stats name =
  match List.assoc_opt name stats with
  | Some n -> (name, n + 1) :: List.remove_assoc name stats
  | None -> (name, 1) :: stats

type outcome = { func : Ir.func; stats : stats; saturated : bool }

type engine = [ `Compiled | `Linear ]

(* One compiled tree per rule list, built lazily and shared: callers pass
   the same (immutable) list for every function of a module or workload
   batch, and the tree itself is immutable after [build], so it is safe
   to reuse across Engine.map worker domains. The mutex only guards the
   cache cell. *)
let compiled_mutex = Mutex.create ()
let compiled_cache : (Matcher.rule list * Compiled.t) option ref = ref None

let compiled_for rules =
  Mutex.lock compiled_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock compiled_mutex)
    (fun () ->
      match !compiled_cache with
      | Some (rs, t) when rs == rules -> t
      | _ ->
          let t = Compiled.build rules in
          compiled_cache := Some (rules, t);
          t)

(* A rule in a cyclic SCC of the rewrite graph may legitimately fire a
   few times at one site (each firing exposing the next match), but a
   ping-pong A→B→A loop at a fixed root would otherwise burn the whole
   budget at one definition. Per-(root, rule) cap; the global budget
   still backstops cycles that keep minting fresh names. *)
let cycle_fire_cap = 8

(* The worklist fixpoint over one in-place function state (the
   discipline of Sense-VM's Peephole.hs — after a rewrite, re-examine from
   the affected position rather than restarting, and never skip the
   successor — without its rebuild of the function). The input is DCE'd
   on entry, so the cost guard compares live code only. Only definitions
   whose operand DAG changed are re-examined: the definitions the splice
   created or changed plus their users up to the compiled pattern depth,
   since a rewrite at %r can only create a match whose pattern reaches
   %r. A final sweep re-validates the fixpoint before returning (also
   covering cost-guard interactions: a rewrite rejected as
   cost-increasing can become acceptable after later shrinking), so the
   result is exactly "no rule fires anywhere".

   The sweep skips settled definitions. A definition is settled when its
   last examination found no candidate whose source shape matched and
   none held back by the cycle cap. Its shape can only change through an
   edit within the compiled pattern depth of it, and every such edit
   re-queues it through [push_affected], which unsettles it; so a
   settled definition cannot fire, and skipping it changes no firing.
   Definitions refused by a precondition, the cost guard or a failed
   instantiation depend on use counts and domains of the whole function
   and are re-examined, as is everything when a rule escaped the trie
   (a residual rule's depth is not in [max_depth]). *)
let run_guarded ~rules ?(max_rewrites = 1000) ?(engine = `Compiled)
    (f : Ir.func) =
  let tree = compiled_for rules in
  let stats = ref [] in
  let budget_out = ref false in
  let cycle_cut = ref false in
  let budget = ref max_rewrites in
  let fired_at : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
  let f = Trace.with_span "opt.pass.dce" (fun () -> dce f) in
  let st = State.of_func f in
  let ctx = Compiled.context_of_state tree st in
  let queue = Queue.create () in
  let queued : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let can_settle = Compiled.residual_count tree = 0 in
  let settled : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let push name =
    Hashtbl.remove settled name;
    if not (Hashtbl.mem queued name) then begin
      Hashtbl.replace queued name ();
      Queue.add name queue
    end
  in
  (* The given names and their users, breadth first up to the compiled
     pattern depth — the defs whose match status a change at those names
     can affect. Each def is expanded once, from its shallowest level. *)
  let push_affected names =
    let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    let rec up level frontier =
      let fresh =
        List.fold_left
          (fun acc n ->
            if Hashtbl.mem seen n then acc
            else begin
              Hashtbl.replace seen n ();
              push n;
              n :: acc
            end)
          [] frontier
        |> List.rev
      in
      if level < Compiled.max_depth tree then
        match List.concat_map (State.users st) fresh with
        | [] -> ()
        | next -> up (level + 1) next
    in
    up 0 names
  in
  (* The first acceptable rewrite at [d]. A match is acceptable when the
     rewrite instantiates, the rewritten and DCE'd function does not cost
     more than the current one (a rule's target only beats its source when
     the matched interior dies, which shared subexpressions can prevent),
     and the cycle guard has budget. [d] is left settled when no
     candidate's shape matched and none was capped. *)
  let find_rewrite (d : Ir.def) =
    let cands =
      match engine with
      | `Compiled -> Compiled.candidates ctx d
      | `Linear -> rules
    in
    let unsettled = ref false in
    let found =
      List.find_map
        (fun rule ->
          let key = (d.Ir.name, rule.Matcher.rule_name) in
          let fires =
            Option.value ~default:0 (Hashtbl.find_opt fired_at key)
          in
          if
            fires >= cycle_fire_cap
            && Compiled.in_cycle tree rule.Matcher.rule_name
          then begin
            (* The guard is cutting a live rewrite cycle short exactly when
               the capped rule still matches — report that the same way
               budget exhaustion does. *)
            unsettled := true;
            (match Matcher.try_match rule st d.Ir.name with
            | Matcher.Matched _ -> cycle_cut := true
            | Matcher.No_shape | Matcher.Pre_failed -> ());
            None
          end
          else
            match Matcher.try_match rule st d.Ir.name with
            | Matcher.No_shape -> None
            | Matcher.Pre_failed ->
                unsettled := true;
                None
            | Matcher.Matched m -> (
                unsettled := true;
                match
                  Trace.with_span "opt.matcher.rewrite" (fun () ->
                      Matcher.instantiate rule m)
                with
                | None -> None
                | Some e ->
                    if
                      Trace.with_span "ir.cost" (fun () ->
                          State.cost_delta st e)
                      > 0
                    then None
                    else Some (rule, key, e)))
        cands
    in
    if can_settle && not !unsettled then Hashtbl.replace settled d.Ir.name ()
    else Hashtbl.remove settled d.Ir.name;
    found
  in
  (* Fire the first acceptable rule at [d]; [true] if the function
     changed. *)
  let try_fire (d : Ir.def) =
    if !budget = 0 then begin
      budget_out := true;
      false
    end
    else
      match Trace.with_span "opt.pass.match" (fun () -> find_rewrite d) with
      | None -> false
      | Some (rule, key, e) ->
          decr budget;
          stats := bump !stats rule.Matcher.rule_name;
          Hashtbl.replace fired_at key
            (1 + Option.value ~default:0 (Hashtbl.find_opt fired_at key));
          let changed =
            Trace.with_span "opt.matcher.rewrite" (fun () -> State.splice st e)
          in
          Trace.with_span "opt.pass.dce" (fun () -> State.collect st);
          let changed = List.filter (State.mem st) changed in
          Trace.with_span "opt.pass.precondition" (fun () ->
              State.refresh st changed);
          push_affected changed;
          true
  in
  (* Fixpoint verification sweep: fire at the first unsettled definition
     that can still fire. With the budget spent, [try_fire] reports it
     at the first definition, settled or not. *)
  let sweep () =
    let examined = ref 0 and skipped = ref 0 in
    let sp = Trace.begin_span "opt.pass.sweep" in
    Fun.protect
      ~finally:(fun () ->
        Trace.add_meta sp
          [
            ("examined", Trace.Int !examined);
            ("skipped", Trace.Int !skipped);
          ];
        Trace.end_span sp)
      (fun () ->
        List.exists
          (fun (d : Ir.def) ->
            if !budget > 0 && Hashtbl.mem settled d.Ir.name then begin
              incr skipped;
              false
            end
            else begin
              incr examined;
              try_fire d
            end)
          (State.to_func st).Ir.body)
  in
  let rec process () =
    match Queue.take_opt queue with
    | Some name ->
        Hashtbl.remove queued name;
        (match State.find st name with
        | None -> () (* rewritten away or DCE'd since it was queued *)
        | Some d -> ignore (try_fire d));
        if not !budget_out then process ()
    | None ->
        (* If anything can still fire, fire it (seeding the worklist with
           its fallout) and keep going. *)
        if (not !budget_out) && sweep () then process ()
  in
  List.iter (fun (d : Ir.def) -> push d.Ir.name) f.Ir.body;
  process ();
  {
    func = State.to_func st;
    stats = List.sort (fun (_, a) (_, b) -> Int.compare b a) !stats;
    saturated = !budget_out || !cycle_cut;
  }

let run ~rules ?max_rewrites ?engine (f : Ir.func) =
  let o = run_guarded ~rules ?max_rewrites ?engine f in
  (o.func, o.stats)

let merge_stats a b =
  List.fold_left
    (fun acc (name, n) ->
      match List.assoc_opt name acc with
      | Some m -> (name, m + n) :: List.remove_assoc name acc
      | None -> (name, n) :: acc)
    a b
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let run_module ~rules ?max_rewrites ?engine funcs =
  let results = List.map (run ~rules ?max_rewrites ?engine) funcs in
  ( List.map fst results,
    List.fold_left (fun acc (_, s) -> merge_stats acc s) [] results )
