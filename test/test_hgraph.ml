(* Tests for the IR utilities, CFG analyses and individual transforms on
   hand-built graphs (the app-level behaviour is covered by test_lir and
   the fuzzer; these pin the primitives). *)

module Hir = Repro_hgraph.Hir
module T = Repro_hgraph.Transforms
module Analysis = Repro_hgraph.Analysis
module Cfg = Repro_util.Cfg
module B = Repro_dex.Bytecode
module Ast = Repro_dex.Ast

(* Build a function from (bid, insns, term) triples. *)
let mk_func ?(nregs = 32) blocks =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (bid, insns, term) ->
       Hashtbl.replace tbl bid { Hir.insns; term })
    blocks;
  { Hir.f_mid = 0; f_name = "test"; f_nparams = 0; f_nregs = nregs;
    f_blocks = tbl; f_entry = 0;
    f_next_bid = 1 + List.fold_left (fun a (b, _, _) -> max a b) 0 blocks;
    f_pressure = None }

(* ------------------------------- Cfg -------------------------------- *)

(* diamond with a loop on one arm:
   0 -> 1 -> (2 <-> 3 loop) -> 4 ; 0 -> 4 *)
let diamond_loop () =
  Cfg.analyze ~entry:0 ~succs:(function
      | 0 -> [ 1; 4 ]
      | 1 -> [ 2 ]
      | 2 -> [ 3; 4 ]
      | 3 -> [ 2 ]
      | _ -> [])

let test_cfg_reachability () =
  let g = Cfg.analyze ~entry:0 ~succs:(function 0 -> [ 1 ] | _ -> []) in
  Alcotest.(check (list int)) "only reachable" [ 0; 1 ] (List.sort compare (Cfg.nodes g))

let test_cfg_dominators () =
  let g = diamond_loop () in
  Alcotest.(check bool) "0 dominates all" true
    (List.for_all (Cfg.dominates g 0) (Cfg.nodes g));
  Alcotest.(check bool) "1 dominates 2,3" true
    (Cfg.dominates g 1 2 && Cfg.dominates g 1 3);
  Alcotest.(check bool) "1 does not dominate 4" false (Cfg.dominates g 1 4);
  Alcotest.(check (option int)) "idom of 4 is 0" (Some 0) (Cfg.idom g 4);
  Alcotest.(check (option int)) "idom of entry" None (Cfg.idom g 0)

let test_cfg_loops () =
  let g = diamond_loop () in
  match Cfg.loops g with
  | [ l ] ->
    Alcotest.(check int) "header" 2 l.Cfg.header;
    Alcotest.(check (list int)) "back edges" [ 3 ] l.Cfg.back_edges;
    Alcotest.(check (list int)) "body" [ 2; 3 ] l.Cfg.body;
    Alcotest.(check int) "depth inside" 1 (Cfg.loop_depth g 2);
    Alcotest.(check int) "depth outside" 0 (Cfg.loop_depth g 4)
  | ls -> Alcotest.fail (Printf.sprintf "expected 1 loop, got %d" (List.length ls))

let test_cfg_nested_loops () =
  (* 0 -> 1 { 1 -> 2 { 2 -> 2 } 2 -> 1 } 1 -> 3 *)
  let g =
    Cfg.analyze ~entry:0 ~succs:(function
        | 0 -> [ 1 ]
        | 1 -> [ 2; 3 ]
        | 2 -> [ 2; 1 ]
        | _ -> [])
  in
  Alcotest.(check int) "two loops" 2 (List.length (Cfg.loops g));
  Alcotest.(check int) "inner depth" 2 (Cfg.loop_depth g 2)

(* qcheck: dominator sanity on random CFGs *)
let random_cfg_gen =
  QCheck.Gen.(
    sized_size (int_range 2 12) (fun n ->
        (* each node gets up to 2 random successors *)
        let* edges =
          list_repeat n
            (pair (int_bound (n - 1)) (int_bound (n - 1)))
        in
        return (n, edges)))

let prop_dominator_sanity =
  QCheck.Test.make ~name:"entry dominates every reachable node" ~count:200
    (QCheck.make random_cfg_gen)
    (fun (n, edges) ->
       let succs i =
         List.concat_map
           (fun (a, b) -> if a = i then [ b ] else [])
           (List.mapi (fun i (x, y) -> (i mod n, if i mod 2 = 0 then x else y)) edges)
       in
       let g = Cfg.analyze ~entry:0 ~succs in
       List.for_all
         (fun node ->
            Cfg.dominates g 0 node
            && (node = 0 || Cfg.idom g node <> None)
            && Cfg.dominates g node node)
         (Cfg.nodes g))

let prop_loop_bodies_contain_header_and_backedges =
  QCheck.Test.make ~name:"loop bodies well-formed" ~count:200
    (QCheck.make random_cfg_gen)
    (fun (n, edges) ->
       let succs i =
         List.filter_map
           (fun (a, b) -> if a mod n = i then Some (b mod n) else None)
           edges
       in
       let g = Cfg.analyze ~entry:0 ~succs in
       List.for_all
         (fun l ->
            List.mem l.Cfg.header l.Cfg.body
            && List.for_all (fun t -> List.mem t l.Cfg.body) l.Cfg.back_edges
            && List.for_all (fun t -> Cfg.dominates g l.Cfg.header t)
                 l.Cfg.back_edges)
         (Cfg.loops g))

(* ----------------------------- liveness ----------------------------- *)

let test_liveness_through_branch () =
  (* b0: r1=1; r2=2; if r1 ? b1 : b2.  b1 uses r1, b2 uses r2. *)
  let f =
    mk_func
      [ (0,
         [ Hir.Const (1, B.Cint 1); Hir.Const (2, B.Cint 2) ],
         Hir.If (B.Cne, 1, None, 1, 2, Hir.Predict_none));
        (1, [ Hir.Move (3, 1) ], Hir.Ret (Some 3));
        (2, [ Hir.Move (4, 2) ], Hir.Ret (Some 4)) ]
  in
  let g = Hir.cfg f in
  let live = Analysis.liveness f g in
  let out0 = Hashtbl.find live 0 in
  Alcotest.(check bool) "r1 live out of b0" true (Analysis.ISet.mem 1 out0);
  Alcotest.(check bool) "r2 live out of b0" true (Analysis.ISet.mem 2 out0);
  Alcotest.(check bool) "r3 not live out of b0" false (Analysis.ISet.mem 3 out0)

let test_def_count () =
  let f =
    mk_func
      [ (0,
         [ Hir.Const (1, B.Cint 1); Hir.Const (1, B.Cint 2);
           Hir.Const (2, B.Cint 3) ],
         Hir.Ret (Some 1)) ]
  in
  let counts = Analysis.def_count f in
  Alcotest.(check (option int)) "r1 twice" (Some 2) (Hashtbl.find_opt counts 1);
  Alcotest.(check (option int)) "r2 once" (Some 1) (Hashtbl.find_opt counts 2)

(* ----------------------------- transforms --------------------------- *)

let ret_const_after pipeline blocks expected =
  let f = pipeline (mk_func blocks) in
  (* after folding, the entry chain should produce a constant return *)
  let rec chase bid guard =
    if guard = 0 then None
    else begin
      let b = Hir.block f bid in
      match b.Hir.term with
      | Hir.Ret (Some r) ->
        List.fold_left
          (fun acc i ->
             match i with
             | Hir.Const (d, B.Cint k) when d = r -> Some k
             | _ -> acc)
          None b.Hir.insns
      | Hir.Goto t -> chase t (guard - 1)
      | _ -> None
    end
  in
  Alcotest.(check (option int)) "folded" (Some expected) (chase f.Hir.f_entry 10)

let test_const_fold_branch () =
  (* if 1 != 0 then ret 7 else ret 8; must fold the branch away *)
  ret_const_after
    (fun f -> T.dce (T.const_fold f))
    [ (0, [ Hir.Const (1, B.Cint 1) ],
       Hir.If (B.Cne, 1, None, 1, 2, Hir.Predict_none));
      (1, [ Hir.Const (2, B.Cint 7) ], Hir.Ret (Some 2));
      (2, [ Hir.Const (3, B.Cint 8) ], Hir.Ret (Some 3)) ]
    7

let test_cse_reuses_load () =
  (* two identical pure binops collapse to one *)
  let f =
    mk_func
      [ (0,
         [ Hir.Const (1, B.Cint 6); Hir.Const (2, B.Cint 7);
           Hir.Binop (Ast.Mul, 3, 1, 2); Hir.Binop (Ast.Mul, 4, 1, 2);
           Hir.Binop (Ast.Add, 5, 3, 4) ],
         Hir.Ret (Some 5)) ]
  in
  let f' = T.cse_local f in
  let muls = ref 0 in
  Hir.iter_blocks f' (fun _ b ->
      List.iter
        (function Hir.Binop (Ast.Mul, _, _, _) -> incr muls | _ -> ())
        b.Hir.insns);
  Alcotest.(check int) "one mul left (other became a move)" 1 !muls

let test_cse_invalidated_by_store () =
  (* a load is not reused across an aliasing store *)
  let f =
    mk_func
      [ (0,
         [ Hir.Const (1, B.Cint 0);
           Hir.LoadField (B.Kint, 2, 9, 0);
           Hir.StoreField (B.Kint, 9, 1, 0);
           Hir.LoadField (B.Kint, 3, 9, 0);
           Hir.Binop (Ast.Add, 4, 2, 3) ],
         Hir.Ret (Some 4)) ]
  in
  let f' = T.cse_local f in
  let loads = ref 0 in
  Hir.iter_blocks f' (fun _ b ->
      List.iter
        (function Hir.LoadField _ -> incr loads | _ -> ())
        b.Hir.insns);
  Alcotest.(check int) "both loads survive" 2 !loads

let test_lse_forwards_store () =
  let f =
    mk_func
      [ (0,
         [ Hir.Const (1, B.Cint 5);
           Hir.StoreField (B.Kint, 9, 1, 2);
           Hir.LoadField (B.Kint, 3, 9, 2) ],
         Hir.Ret (Some 3)) ]
  in
  let f' = T.load_store_elim f in
  let loads = ref 0 in
  Hir.iter_blocks f' (fun _ b ->
      List.iter (function Hir.LoadField _ -> incr loads | _ -> ()) b.Hir.insns);
  Alcotest.(check int) "load forwarded" 0 !loads

let test_inline_splices () =
  (* caller calls a tiny static method; after inlining no CallStatic left *)
  let callee =
    mk_func ~nregs:4
      [ (0, [ Hir.Binop (Ast.Add, 1, 0, 0) ], Hir.Ret (Some 1)) ]
  in
  let callee = { callee with Hir.f_mid = 42; f_nparams = 1 } in
  let caller =
    mk_func
      [ (0,
         [ Hir.Const (1, B.Cint 21);
           Hir.CallStatic (Some 2, 42, [ 1 ]) ],
         Hir.Ret (Some 2)) ]
  in
  let f' =
    T.inline_calls
      ~get_func:(fun mid -> if mid = 42 then Some callee else None)
      ~threshold:10 caller
  in
  let calls = ref 0 in
  Hir.iter_blocks f' (fun _ b ->
      List.iter (function Hir.CallStatic _ -> incr calls | _ -> ()) b.Hir.insns);
  Alcotest.(check int) "no calls left" 0 !calls

let test_simplify_cfg_threads_gotos () =
  let f =
    mk_func
      [ (0, [], Hir.Goto 1);
        (1, [], Hir.Goto 2);
        (2, [ Hir.Const (1, B.Cint 3) ], Hir.Ret (Some 1));
        (7, [], Hir.Goto 0) (* unreachable *) ]
  in
  let f' = T.simplify_cfg f in
  Alcotest.(check int) "collapsed to one block" 1 (Hashtbl.length f'.Hir.f_blocks)

(* ------------- simplify_cfg against its quadratic original ----------- *)

module Build = Repro_hgraph.Build
module Android = Repro_hgraph.Android
module App = Repro_apps.Registry
module Compile = Repro_lir.Compile
module Binary = Repro_lir.Binary
module Pipelines = Repro_lir.Pipelines

(* The original [remove_unreachable] and [simplify_cfg], verbatim: one
   merge per iteration over a rebuilt CFG, quadratic in blocks.  The
   linear version must reproduce them printout for printout, and with the
   same block-table order, which later passes iterate in. *)
let reference_remove_unreachable f =
  let open Hir in
  let f = copy f in
  let g = cfg f in
  let reachable = Cfg.nodes g in
  let all = Hashtbl.fold (fun bid _ acc -> bid :: acc) f.f_blocks [] in
  List.iter
    (fun bid -> if not (List.mem bid reachable) then Hashtbl.remove f.f_blocks bid)
    all;
  f

let reference_simplify_cfg f =
  let open Hir in
  let f = reference_remove_unreachable f in
  let f = copy f in
  (* Thread trivial goto blocks. *)
  let redirect = Hashtbl.create 8 in
  iter_blocks f (fun bid b ->
      match b.insns, b.term with
      | [], Goto t when t <> bid -> Hashtbl.replace redirect bid t
      | _ -> ());
  let rec resolve bid seen =
    if List.mem bid seen then bid
    else
      match Hashtbl.find_opt redirect bid with
      | Some t -> resolve t (bid :: seen)
      | None -> bid
  in
  iter_blocks f (fun _ b ->
      b.term <-
        (match b.term with
         | Goto t -> Goto (resolve t [])
         | If (c, a, o, bt, be, h) -> If (c, a, o, resolve bt [], resolve be [], h)
         | (Ret _ | ThrowT _) as t -> t));
  (* entry may itself be a trivial goto: keep it (it now points past chains) *)
  let f = reference_remove_unreachable f in
  (* Merge straight-line pairs: b -> c, c has exactly one predecessor. *)
  let f = copy f in
  let merged = ref true in
  while !merged do
    merged := false;
    let g = cfg f in
    let candidates =
      List.filter_map
        (fun bid ->
           match Hashtbl.find_opt f.f_blocks bid with
           | Some b ->
             (match b.term with
              | Goto t when t <> bid && t <> f.f_entry
                         && List.length (Cfg.preds g t) = 1 ->
                Some (bid, t)
              | _ -> None)
           | None -> None)
        (Cfg.nodes g)
    in
    (match candidates with
     | (bid, t) :: _ ->
       let b = block f bid in
       let c = block f t in
       b.insns <- b.insns @ c.insns;
       b.term <- c.term;
       Hashtbl.remove f.f_blocks t;
       merged := true
     | [] -> ())
  done;
  f

(* printout plus block-table iteration order *)
let render f =
  Hir.to_string f
  ^ String.concat ","
      (Hashtbl.fold (fun bid _ acc -> string_of_int bid :: acc) f.Hir.f_blocks [])

let check_same_simplify what f =
  Alcotest.(check string) what (render (reference_simplify_cfg f))
    (render (T.simplify_cfg f))

(* [Android.pipeline] with the reference in both of its simplify_cfg
   slots *)
let reference_android ~get_func f =
  f
  |> reference_simplify_cfg
  |> T.const_fold
  |> T.simplify
  |> T.copy_prop
  |> T.dce
  |> T.inline_calls ~get_func ~threshold:Android.inline_threshold ~max_depth:2
  |> T.const_fold
  |> T.simplify
  |> T.copy_prop
  |> T.cse_local
  |> T.load_store_elim
  |> T.licm
  |> T.dce
  |> reference_simplify_cfg
  |> T.predict_static

(* Every method of every app, through the Android pipeline and through a
   simplifycfg run after -O3. *)
let test_simplify_cfg_matches_reference () =
  List.iter
    (fun app ->
       let dx = App.dexfile app in
       let get_func mid =
         match Build.func dx mid with
         | f -> Some f
         | exception Build.Uncompilable _ -> None
       in
       let mids =
         Array.to_list (Array.map (fun m -> m.B.cm_id) dx.B.dx_methods)
       in
       List.iter
         (fun mid ->
            match get_func mid with
            | None -> ()
            | Some f ->
              Alcotest.(check string)
                (Printf.sprintf "%s m%d: Android pipeline" app.App.name mid)
                (render (reference_android ~get_func f))
                (render (Android.compile_method dx mid)))
         mids;
       let o3 = Compile.llvm_binary dx Pipelines.o3 mids in
       List.iter
         (fun mid ->
            check_same_simplify
              (Printf.sprintf "%s m%d: simplifycfg after -O3" app.App.name mid)
              (Option.get (Binary.find o3 mid)))
         (Binary.mids o3))
    App.all

(* Random small graphs: goto chains, cycles of empty blocks, diamonds and
   dead code. *)
let prop_simplify_cfg_matches_reference =
  let gen =
    QCheck.Gen.(
      int_range 1 10 >>= fun n ->
      let target = int_bound (n - 1) in
      let term =
        frequency
          [ (4, map (fun t -> Hir.Goto t) target);
            (3, map2 (fun t e -> Hir.If (B.Cgt, 1, None, t, e, Hir.Predict_none))
                 target target);
            (1, return (Hir.Ret None)) ]
      in
      list_repeat n (pair bool term))
  in
  QCheck.Test.make ~name:"simplify_cfg matches the reference" ~count:500
    (QCheck.make gen)
    (fun blocks ->
       let f =
         mk_func
           (List.mapi
              (fun bid (empty, term) ->
                 (bid, (if empty then [] else [ Hir.Const (1, B.Cint bid) ]), term))
              blocks)
       in
       render (reference_simplify_cfg f) = render (T.simplify_cfg f))

let test_predict_static_marks_backedge () =
  let f =
    mk_func
      [ (0, [ Hir.Const (1, B.Cint 10) ], Hir.Goto 1);
        (1, [ Hir.Binop (Ast.Sub, 1, 1, 1) ],
         Hir.If (B.Cgt, 1, None, 1, 2, Hir.Predict_none));
        (2, [], Hir.Ret (Some 1)) ]
  in
  let f' = T.predict_static f in
  match (Hir.block f' 1).Hir.term with
  | Hir.If (_, _, _, _, _, Hir.Predict_taken) -> ()
  | _ -> Alcotest.fail "back edge should be predicted taken"

let () =
  Alcotest.run "hgraph"
    [ ("cfg",
       [ Alcotest.test_case "reachability" `Quick test_cfg_reachability;
         Alcotest.test_case "dominators" `Quick test_cfg_dominators;
         Alcotest.test_case "loops" `Quick test_cfg_loops;
         Alcotest.test_case "nested loops" `Quick test_cfg_nested_loops ]);
      ("analysis",
       [ Alcotest.test_case "liveness" `Quick test_liveness_through_branch;
         Alcotest.test_case "def count" `Quick test_def_count ]);
      ("transforms",
       [ Alcotest.test_case "const fold branch" `Quick test_const_fold_branch;
         Alcotest.test_case "cse reuse" `Quick test_cse_reuses_load;
         Alcotest.test_case "cse store barrier" `Quick test_cse_invalidated_by_store;
         Alcotest.test_case "lse forwarding" `Quick test_lse_forwards_store;
         Alcotest.test_case "inline splices" `Quick test_inline_splices;
         Alcotest.test_case "cfg threading" `Quick test_simplify_cfg_threads_gotos;
         Alcotest.test_case "simplify_cfg = reference on every app" `Quick
           test_simplify_cfg_matches_reference;
         QCheck_alcotest.to_alcotest prop_simplify_cfg_matches_reference;
         Alcotest.test_case "static prediction" `Quick test_predict_static_marks_backedge ]);
      ("cfg-properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_dominator_sanity; prop_loop_bodies_contain_header_and_backedges ]) ]
