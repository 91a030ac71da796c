(* Test-only reference oracle: the rebuild-everything worklist pass the
   in-place [Pass.run_guarded] replaced, kept line for line. After every
   firing, and for every candidate it rejects, it materialises a whole new
   function, DCEs it, re-costs it and diffs it against the old body. The
   only adaptation is the matching context: each new function gets a fresh
   [State.of_func], so use counts and domains are recomputed from scratch
   instead of being maintained. It takes the input as given; the pass
   under test DCEs its input first, so compare [run_guarded f] with
   [Reference_pass.run_guarded (Pass.dce f)]. *)

open Alive_opt

let bump stats name =
  match List.assoc_opt name stats with
  | Some n -> (name, n + 1) :: List.remove_assoc name stats
  | None -> (name, 1) :: stats

let cycle_fire_cap = 8

let run_guarded ~tree ?(max_rewrites = 1000) ?(engine = `Compiled)
    (f : Ir.func) =
  let rules = Compiled.rule_list tree in
  let stats = ref [] in
  let budget_out = ref false in
  let cycle_cut = ref false in
  let budget = ref max_rewrites in
  let fired_at : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
  let cur = ref f in
  let cur_st = ref (State.of_func f) in
  let cur_cost = ref (Cost.func_cost f) in
  let ctx = ref (Compiled.context_of_state tree !cur_st) in
  let queue = Queue.create () in
  let queued : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let push name =
    if not (Hashtbl.mem queued name) then begin
      Hashtbl.replace queued name ();
      Queue.add name queue
    end
  in
  let push_affected names =
    let users : (string, string list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (d : Ir.def) ->
        let note = function
          | Ir.Var n ->
              Hashtbl.replace users n
                (d.Ir.name :: Option.value ~default:[] (Hashtbl.find_opt users n))
          | Ir.Const _ | Ir.Undef _ -> ()
        in
        (match d.Ir.inst with
        | Ir.Binop (_, _, a, b) | Ir.Icmp (_, a, b) ->
            note a;
            note b
        | Ir.Select (c, a, b) ->
            note c;
            note a;
            note b
        | Ir.Conv (_, a) | Ir.Freeze a -> note a))
      !cur.Ir.body;
    let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    let rec up level frontier =
      List.iter
        (fun n ->
          if not (Hashtbl.mem seen n) then begin
            Hashtbl.replace seen n ();
            push n
          end)
        frontier;
      if level < Compiled.max_depth tree then
        let next =
          List.concat_map
            (fun n -> Option.value ~default:[] (Hashtbl.find_opt users n))
            frontier
        in
        if next <> [] then up (level + 1) next
    in
    up 0 names
  in
  let try_fire (d : Ir.def) =
    if !budget = 0 then begin
      budget_out := true;
      false
    end
    else
      let cands =
        match engine with
        | `Compiled -> Compiled.candidates !ctx d
        | `Linear -> rules
      in
      let fired =
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
              if Option.is_some (Matcher.match_in rule !cur_st d.Ir.name) then
                cycle_cut := true;
              None
            end
            else
              match Matcher.match_in rule !cur_st d.Ir.name with
              | None -> None
              | Some m -> (
                  match Matcher.rewrite rule !cur m with
                  | None -> None
                  | Some f' ->
                      let f' = Pass.dce f' in
                      if Cost.func_cost f' > !cur_cost then None
                      else Some (rule, key, f')))
          cands
      in
      match fired with
      | None -> false
      | Some (rule, key, f') ->
          decr budget;
          stats := bump !stats rule.Matcher.rule_name;
          Hashtbl.replace fired_at key
            (1 + Option.value ~default:0 (Hashtbl.find_opt fired_at key));
          let before = !cur in
          cur := f';
          cur_st := State.of_func f';
          cur_cost := Cost.func_cost f';
          ctx := Compiled.context_of_state tree !cur_st;
          let old_defs : (string, Ir.inst) Hashtbl.t = Hashtbl.create 64 in
          List.iter
            (fun (d : Ir.def) -> Hashtbl.replace old_defs d.Ir.name d.Ir.inst)
            before.Ir.body;
          let changed =
            List.filter_map
              (fun (d : Ir.def) ->
                match Hashtbl.find_opt old_defs d.Ir.name with
                | Some inst when inst = d.Ir.inst -> None
                | _ -> Some d.Ir.name)
              f'.Ir.body
          in
          push_affected changed;
          true
  in
  let rec process () =
    match Queue.take_opt queue with
    | Some name ->
        Hashtbl.remove queued name;
        (match State.find !cur_st name with
        | None -> ()
        | Some d -> ignore (try_fire d));
        if not !budget_out then process ()
    | None ->
        if (not !budget_out) && List.exists try_fire !cur.Ir.body then
          process ()
  in
  List.iter (fun (d : Ir.def) -> push d.Ir.name) f.Ir.body;
  process ();
  {
    Pass.func = Pass.dce !cur;
    stats = List.sort (fun (_, a) (_, b) -> Int.compare b a) !stats;
    saturated = !budget_out || !cycle_cut;
  }
