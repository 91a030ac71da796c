(* Differential tests for the compiled decision-tree matcher: the trie is a
   pre-filter whose final answer must be bit-for-bit the per-rule scan's —
   same rule, same root, same bindings — on corpus-derived functions and on
   random workloads, and the worklist pass must land on the same fixpoint
   whichever matcher backs it. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let valid_rules =
  List.filter_map
    (fun (e : Alive_suite.Entry.t) ->
      if e.expected = Alive_suite.Entry.Expect_valid && e.canonical then
        Result.to_option
          (Alive_opt.Matcher.rule_of_transform (Alive_suite.Entry.parse e))
      else None)
    Alive_suite.Registry.all

let tree = lazy (Alive_opt.Compiled.build valid_rules)

(* Count the sites where the two matchers disagree over a function pool. *)
let divergences funcs =
  let tree = Lazy.force tree in
  List.fold_left
    (fun bad (f : Ir.func) ->
      let ctx = Alive_opt.Compiled.context tree f in
      List.fold_left
        (fun bad (d : Ir.def) ->
          let c = Alive_opt.Compiled.match_def ctx d in
          let l = Alive_opt.Compiled.match_linear ~rules:valid_rules ctx d in
          if Alive_opt.Compiled.same_match c l then bad else bad + 1)
        bad f.Ir.body)
    0 funcs

let structure_tests =
  [
    Alcotest.test_case "tree compiles the whole ruleset" `Quick (fun () ->
        let t = Lazy.force tree in
        check_int "every rule kept" (List.length valid_rules)
          (List.length (Alive_opt.Compiled.rule_list t));
        check_bool "non-trivial trie" true
          (Alive_opt.Compiled.node_count t > List.length valid_rules);
        check_bool "patterns nest" true (Alive_opt.Compiled.max_depth t >= 1));
    Alcotest.test_case "rewrite graph has cycles to guard" `Quick (fun () ->
        (* add-neg-is-sub / sub-is-add-neg style pairs make the corpus's
           target-feeds graph cyclic; the pass's cycle cap relies on the
           membership set being non-empty here. *)
        check_bool "some rules in cycles" true
          (Alive_opt.Compiled.cyclic_count (Lazy.force tree) > 0));
    Alcotest.test_case "candidates never miss a matching rule" `Quick
      (fun () ->
        (* Soundness of the pre-filter, checked exhaustively: any rule
           match_at accepts must appear in the candidate list. *)
        let t = Lazy.force tree in
        let funcs =
          Alive_opt.Workload.generate
            { Alive_opt.Workload.default with functions = 40; seed = 9 }
            valid_rules
        in
        List.iter
          (fun (f : Ir.func) ->
            let ctx = Alive_opt.Compiled.context t f in
            List.iter
              (fun (d : Ir.def) ->
                let cands = Alive_opt.Compiled.candidates ctx d in
                List.iter
                  (fun r ->
                    if
                      Option.is_some
                        (Alive_opt.Matcher.match_at r f d.Ir.name)
                      && not (List.memq r cands)
                    then
                      Alcotest.failf "missed %s at %s/%s"
                        r.Alive_opt.Matcher.rule_name f.Ir.fname d.Ir.name)
                  valid_rules)
              f.Ir.body)
          funcs);
  ]

let parity_tests =
  [
    Alcotest.test_case "agrees with the scan on corpus instantiations" `Slow
      (fun () ->
        (* inject_probability 1.0: every instruction group is an
           instantiated corpus rule source, so the corpus patterns all
           appear in matchable position. *)
        let funcs =
          Alive_opt.Workload.generate
            {
              Alive_opt.Workload.default with
              functions = 150;
              seed = 31;
              inject_probability = 1.0;
            }
            valid_rules
        in
        check_int "no divergences" 0 (divergences funcs));
    Alcotest.test_case "agrees with the scan on 1000 random functions" `Slow
      (fun () ->
        let funcs =
          Alive_opt.Workload.generate
            { Alive_opt.Workload.default with functions = 1000; seed = 57 }
            valid_rules
        in
        check_int "no divergences" 0 (divergences funcs));
    Alcotest.test_case "pass fixpoint is engine-independent" `Slow (fun () ->
        let funcs =
          Alive_opt.Workload.generate
            { Alive_opt.Workload.default with functions = 100; seed = 83 }
            valid_rules
        in
        List.iter
          (fun (f : Ir.func) ->
            let c =
              Alive_opt.Pass.run_guarded ~rules:valid_rules ~engine:`Compiled f
            in
            let l =
              Alive_opt.Pass.run_guarded ~rules:valid_rules ~engine:`Linear f
            in
            check_bool
              (Printf.sprintf "%s same fixpoint" f.Ir.fname)
              true
              (Ir.normalize_names c.Alive_opt.Pass.func
               = Ir.normalize_names l.Alive_opt.Pass.func);
            check_bool
              (Printf.sprintf "%s same stats" f.Ir.fname)
              true
              (c.Alive_opt.Pass.stats = l.Alive_opt.Pass.stats))
          funcs);
  ]

(* The fixpoint pass (compiled engine, worklist discipline, cycle guard,
   analysis-discharged preconditions) must preserve behaviour: optimized
   functions refine the originals on sampled input tuples. *)
let equivalence_property =
  let gen = QCheck2.Gen.int_range 0 10_000 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20
       ~name:"compiled-pass output refines the input on sampled tuples"
       ~print:string_of_int gen (fun seed ->
         let config =
           {
             Alive_opt.Workload.default with
             functions = 4;
             seed;
             instructions_per_function = 30;
           }
         in
         let funcs = Alive_opt.Workload.generate config valid_rules in
         let st = Random.State.make [| seed lxor 0x5eed |] in
         List.for_all
           (fun (f : Ir.func) ->
             let g, _ =
               Alive_opt.Pass.run ~rules:valid_rules ~engine:`Compiled f
             in
             List.for_all
               (fun _ ->
                 let args =
                   List.map
                     (fun (_, w) ->
                       Bitvec.make ~width:w (Random.State.int64 st Int64.max_int))
                     f.Ir.params
                 in
                 match (Interp.run f args, Interp.run g args) with
                 | Ok src, Ok tgt -> Interp.refines src tgt
                 | _ -> false)
               (List.init 12 Fun.id))
           funcs))

let residual_test =
  Alcotest.test_case "corpus rules leave no residual" `Quick (fun () ->
      (* A residual rule is a candidate everywhere and its depth is not in
         max_depth, which turns the pass's settled skip off; the corpus
         must keep the skip (and its tests) live. *)
      check_int "residual rules" 0
        (Alive_opt.Compiled.residual_count (Lazy.force tree)))

let suite =
  ( "compiled",
    structure_tests @ parity_tests @ [ equivalence_property; residual_test ] )
