(* Tests for the in-place function state behind the optimization pass:
   the one-sweep DCE, the dead-input cost-guard defect, parity of the
   in-place pass with the rebuild-everything reference oracle, the
   state's invariants after every firing, lazily computed domains under
   sparse queries, and the soundness of the sweep's settled skip. *)

open Alive_opt

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let bv w v = Bitvec.of_int ~width:w v
let def name width inst = { Ir.name; width; inst }

let func ?(params = [ ("x", 8); ("y", 8) ]) body ret =
  { Ir.fname = "t"; params; body; ret }

let rule text =
  match Matcher.rule_of_transform (Alive.Parser.parse_transform text) with
  | Ok r -> r
  | Error e -> Alcotest.fail ("rule rejected: " ^ e)

let valid_rules = Test_compiled.valid_rules
let tree = Test_compiled.tree

let names (f : Ir.func) = List.map (fun (d : Ir.def) -> d.Ir.name) f.Ir.body

let dce_tests =
  [
    Alcotest.test_case "dce removes a 5-deep dead chain in one sweep" `Quick
      (fun () ->
        (* d1..d5 each use the previous one and nothing uses d5; u is used
           only by the dead d3 and d4. *)
        let add a b = Ir.Binop (Ir.Add, [], a, b) in
        let f =
          func
            [
              def "u" 8 (add (Ir.Var "x") (Ir.Var "y"));
              def "d1" 8 (add (Ir.Var "x") (Ir.Const (bv 8 1)));
              def "keep" 8 (Ir.Binop (Ir.Sub, [], Ir.Var "x", Ir.Var "y"));
              def "d2" 8 (add (Ir.Var "d1") (Ir.Var "keep"));
              def "d3" 8 (add (Ir.Var "d2") (Ir.Var "u"));
              def "d4" 8 (add (Ir.Var "d3") (Ir.Var "u"));
              def "d5" 8 (add (Ir.Var "d4") (Ir.Var "d4"));
              def "r" 8 (Ir.Binop (Ir.Mul, [], Ir.Var "keep", Ir.Var "keep"));
            ]
            (Ir.Var "r")
        in
        let g = Pass.dce f in
        Alcotest.(check (list string))
          "only the live defs" [ "keep"; "r" ] (names g);
        check_bool "ret kept" true (g.Ir.ret = Ir.Var "r"));
    Alcotest.test_case "dce returns a live function unchanged" `Quick (fun () ->
        let f =
          func
            [ def "r" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Var "y")) ]
            (Ir.Var "r")
        in
        check_bool "same function" true (Pass.dce f == f));
  ]

let defect_tests =
  [
    Alcotest.test_case "dead input cannot pay for a live cost increase" `Quick
      (fun () ->
        (* The rule turns an add (cost 1) into a mul (cost 4). The input
           also carries an unused udiv (cost 20): if the guard compared
           against the un-DCE'd input, the udiv's removal would pay for
           the mul. *)
        let r = rule "%r = add %a, C\n=>\n%r = mul %a, C\n" in
        let f =
          func
            [
              def "dead" 8 (Ir.Binop (Ir.Udiv, [], Ir.Var "x", Ir.Var "y"));
              def "r" 8 (Ir.Binop (Ir.Add, [], Ir.Var "x", Ir.Const (bv 8 3)));
            ]
            (Ir.Var "r")
        in
        let o = Pass.run_guarded ~rules:[ r ] f in
        check_int "no firing" 0 (List.length o.Pass.stats);
        match o.Pass.func.Ir.body with
        | [ { Ir.inst = Ir.Binop (Ir.Add, _, _, _); _ } ] -> ()
        | _ -> Alcotest.fail "expected the add alone");
  ]

(* [Pass.run_guarded f] against the oracle on [Pass.dce f]: same firings,
   same saturation, same function up to the names the rewriter mints. *)
let parity engine =
  let tree = Lazy.force tree in
  let funcs =
    List.concat_map
      (fun seed ->
        Workload.generate
          { Workload.default with functions = 1000; seed }
          valid_rules)
      [ 3; 5; 7 ]
  in
  let diverged =
    List.filter
      (fun (f : Ir.func) ->
        let o = Pass.run_guarded ~rules:valid_rules ~engine f in
        let r = Reference_pass.run_guarded ~tree ~engine (Pass.dce f) in
        not
          (o.Pass.stats = r.Pass.stats
          && o.Pass.saturated = r.Pass.saturated
          && Ir.normalize_names o.Pass.func = Ir.normalize_names r.Pass.func))
      funcs
  in
  List.iter
    (fun (f : Ir.func) -> Printf.printf "diverged: %s\n" f.Ir.fname)
    diverged;
  check_int "divergences" 0 (List.length diverged)

let parity_tests =
  [
    Alcotest.test_case
      "in-place pass = rebuild reference (compiled, 3 seeds x 1000 fns)" `Slow
      (fun () -> parity `Compiled);
    Alcotest.test_case
      "in-place pass = rebuild reference (linear, 3 seeds x 1000 fns)" `Slow
      (fun () -> parity `Linear);
  ]

(* Drive the state by hand — match, instantiate, splice, collect, refresh —
   and check it against the materialised function after every firing. *)
(* Every domain, forced, against the whole-function analysis. *)
let check_all_domains st =
  let f = State.to_func st in
  let q = Alive_absint.Query.analyze f in
  List.iter
    (fun name ->
      check_bool ("domain of " ^ name) true
        (State.domain st (Ir.Var name)
        = Alive_absint.Query.value_domain q (Ir.Var name)))
    (List.map fst f.Ir.params @ names f)

let check_invariants st =
  let f = State.to_func st in
  check_bool "valid SSA" true (Ir.validate f = Ok ());
  let uses = Ir.uses_of f in
  List.iter
    (fun name ->
      check_int ("uses of " ^ name)
        (Option.value ~default:0 (Hashtbl.find_opt uses name))
        (State.uses st name))
    (List.map fst f.Ir.params @ names f);
  check_all_domains st;
  List.iter
    (fun (d : Ir.def) ->
      let users =
        List.rev
          (List.concat_map
             (fun (u : Ir.def) ->
               List.filter_map
                 (fun v ->
                   if v = Ir.Var d.Ir.name then Some u.Ir.name else None)
                 (Ir.operands_of u.Ir.inst))
             f.Ir.body)
      in
      Alcotest.(check (list string)) ("users of " ^ d.Ir.name) users
        (State.users st d.Ir.name))
    f.Ir.body;
  check_int "cost" (Cost.func_cost f) (State.cost st)

let invariant_tests =
  [
    Alcotest.test_case "state = from-scratch analyses after every firing" `Slow
      (fun () ->
        let tree = Lazy.force tree in
        let funcs =
          Workload.generate
            { Workload.default with functions = 150; seed = 11 }
            valid_rules
        in
        let firings = ref 0 in
        List.iter
          (fun (f : Ir.func) ->
            let st = State.of_func (Pass.dce f) in
            (* Force the domains, so that every edit below refreshes them. *)
            ignore (State.domain st (Ir.Const (bv 1 0)));
            check_invariants st;
            let ctx = Compiled.context_of_state tree st in
            let rec step k =
              if k > 0 then
                let g = State.to_func st in
                match
                  List.find_map
                    (fun d ->
                      match Compiled.match_def ctx d with
                      | Some (rule, m) -> (
                          match Matcher.instantiate rule m with
                          | Some e -> Some (rule, m, e)
                          | None -> None)
                      | None -> None)
                    g.Ir.body
                with
                | None -> ()
                | Some (rule, m, e) ->
                    let expected =
                      match Matcher.rewrite rule g m with
                      | Some g' ->
                          Cost.func_cost (Pass.dce g') - Cost.func_cost g
                      | None -> Alcotest.fail "rewrite failed"
                    in
                    check_int "cost delta" expected (State.cost_delta st e);
                    let changed = State.splice st e in
                    State.collect st;
                    State.refresh st (List.filter (State.mem st) changed);
                    incr firings;
                    check_invariants st;
                    step (k - 1)
            in
            step 25)
          funcs;
        check_bool "exercised" true (!firings > 500));
  ]

let lazy_domain_tests =
  [
    Alcotest.test_case
      "lazy domains = from-scratch analysis under sparse queries" `Slow
      (fun () ->
        (* One firing at a time, as the pass does; after each firing only a
           seeded random subset of the definitions is queried, so most
           domains stay uncomputed and [refresh] sees a mix of computed
           and uncomputed nodes. Every tenth function is fully forced at
           its third firing, and every function at its end. *)
        let tree = Lazy.force tree in
        let funcs =
          Workload.generate
            { Workload.default with functions = 200; seed = 23 }
            valid_rules
        in
        let rng = Random.State.make [| 20150613 |] in
        let firings = ref 0 and queried = ref 0 in
        List.iteri
          (fun i (f : Ir.func) ->
            let st = State.of_func (Pass.dce f) in
            let ctx = Compiled.context_of_state tree st in
            let query_some () =
              let g = State.to_func st in
              let q = lazy (Alive_absint.Query.analyze g) in
              List.iter
                (fun (d : Ir.def) ->
                  if Random.State.int rng 6 = 0 then begin
                    incr queried;
                    check_bool ("sparse domain of " ^ d.Ir.name) true
                      (State.domain st (Ir.Var d.Ir.name)
                      = Alive_absint.Query.value_domain (Lazy.force q)
                          (Ir.Var d.Ir.name))
                  end)
                g.Ir.body
            in
            let rec step k =
              if k < 25 then
                match
                  List.find_map
                    (fun d ->
                      match Compiled.match_def ctx d with
                      | Some (rule, m) -> Matcher.instantiate rule m
                      | None -> None)
                    (State.to_func st).Ir.body
                with
                | None -> ()
                | Some e ->
                    let changed = State.splice st e in
                    State.collect st;
                    State.refresh st (List.filter (State.mem st) changed);
                    incr firings;
                    query_some ();
                    if k = 2 && i mod 10 = 0 then check_all_domains st;
                    step (k + 1)
            in
            step 0;
            check_all_domains st)
          funcs;
        check_bool "exercised firings" true (!firings > 500);
        check_bool "exercised queries" true (!queried > 1000));
  ]

let rule_r =
  rule
    "Name: fold-mul-add\n%t = mul %x, C1\n%r = add %t, %x\n=>\n\
     %r = mul %x, C1+1\n"
let rule_u = rule "Name: sub-self\n%u = sub %a, %a\n=>\n%u = 0\n"

let sweep_tests =
  [
    Alcotest.test_case "cost-guard refusal is not settled" `Quick (fun () ->
        (* At r the fold x*3 + x -> x*4 costs more while t has a second
           user (u), so the cost guard refuses it. Firing at u removes
           that user but changes nothing within r's pattern depth, so
           nothing re-queues r: only the final sweep can fire it, and only
           if a shape match refused by the guard left r unsettled. *)
        let f =
          func ~params:[ ("x", 8) ]
            [
              def "t" 8 (Ir.Binop (Ir.Mul, [], Ir.Var "x", Ir.Const (bv 8 3)));
              def "r" 8 (Ir.Binop (Ir.Add, [], Ir.Var "t", Ir.Var "x"));
              def "u" 8 (Ir.Binop (Ir.Sub, [], Ir.Var "t", Ir.Var "t"));
              def "v" 8 (Ir.Binop (Ir.Add, [], Ir.Var "r", Ir.Var "u"));
            ]
            (Ir.Var "v")
        in
        let rules = [ rule_r; rule_u ] in
        let o = Pass.run_guarded ~rules f in
        let fired name = List.assoc_opt name o.Pass.stats in
        check_bool "u folded" true (fired rule_u.Matcher.rule_name = Some 1);
        check_bool "r folded after u" true
          (fired rule_r.Matcher.rule_name = Some 1);
        check_bool "fixpoint" false o.Pass.saturated;
        let expected =
          func ~params:[ ("x", 8) ]
            [
              def "r" 8 (Ir.Binop (Ir.Mul, [], Ir.Var "x", Ir.Const (bv 8 4)));
              def "v" 8 (Ir.Binop (Ir.Add, [], Ir.Var "r", Ir.Const (bv 8 0)));
            ]
            (Ir.Var "v")
        in
        check_bool "optimized function" true (o.Pass.func = expected);
        let r =
          Reference_pass.run_guarded ~tree:(Compiled.build rules) (Pass.dce f)
        in
        check_bool "same as the reference" true (r.Pass.stats = o.Pass.stats));
    Alcotest.test_case "outputs are fixpoints (3 seeds x 1000 fns)" `Slow
      (fun () ->
        let rerun = ref 0 and refired = ref 0 in
        List.iter
          (fun seed ->
            List.iter
              (fun (f : Ir.func) ->
                let o = Pass.run_guarded ~rules:valid_rules f in
                if not o.Pass.saturated then begin
                  incr rerun;
                  let again = Pass.run_guarded ~rules:valid_rules o.Pass.func in
                  if again.Pass.stats <> [] then begin
                    incr refired;
                    Printf.printf "refired: %s (seed %d)\n" f.Ir.fname seed
                  end
                end)
              (Workload.generate
                 { Workload.default with functions = 1000; seed }
                 valid_rules))
          [ 41; 42; 43 ];
        check_bool "most outcomes checked" true (!rerun > 2900);
        check_int "functions that fire again" 0 !refired);
    Alcotest.test_case "sweep spans count examined and skipped defs" `Quick
      (fun () ->
        let module Trace = Alive_trace.Trace in
        let funcs =
          Workload.generate
            { Workload.default with functions = 20; seed = 9 }
            valid_rules
        in
        Trace.clear ();
        Trace.set_enabled true;
        let events =
          Fun.protect
            ~finally:(fun () ->
              Trace.set_enabled false;
              Trace.clear ())
            (fun () ->
              List.iter
                (fun f -> ignore (Pass.run_guarded ~rules:valid_rules f))
                funcs;
              Trace.drain ())
        in
        let sweeps =
          List.filter
            (fun (e : Trace.event) -> e.Trace.phase = "opt.pass.sweep")
            events
        in
        let total key =
          List.fold_left
            (fun acc (e : Trace.event) ->
              match List.assoc_opt key e.Trace.meta with
              | Some (Trace.Int n) -> acc + n
              | _ -> Alcotest.fail ("sweep span without " ^ key))
            0 sweeps
        in
        check_bool "one sweep per function at least" true
          (List.length sweeps >= List.length funcs);
        check_bool "sweeps examine" true (total "examined" > 0);
        check_bool "sweeps skip settled defs" true (total "skipped" > 0));
  ]

let suite =
  ( "state",
    dce_tests @ defect_tests @ parity_tests @ invariant_tests
    @ lazy_domain_tests @ sweep_tests )
