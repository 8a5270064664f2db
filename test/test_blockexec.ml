(* The differential net for the block-fused execution engine: every
   observable of a replay — outcome class, crash message, return value,
   cycle count (also at crash time), dirty memory, profiler samples —
   must be byte-identical between Repro_lir.Exec (reference) and
   Repro_lir.Blockexec (fused), for conforming and non-conforming code
   alike.  A qcheck campaign sweeps random genomes over registry apps and
   corpus inputs; pinned cases cover the spots where the fused engine
   could legally have diverged: a branch into the middle of a fusible
   pair, fuel exhaustion inside a hoisted segment, guard-stripped
   binaries on adversarial inputs, injected executor faults, and the
   sampling-profiler fallback. *)

module B = Repro_dex.Bytecode
module Ast = Repro_dex.Ast
module Hir = Repro_hgraph.Hir
module Vm = Repro_vm
module Ctx = Repro_vm.Exec_ctx
module Value = Repro_vm.Value
module Lir = Repro_lir
module Binary = Repro_lir.Binary
module Exec = Repro_lir.Exec
module Blockexec = Repro_lir.Blockexec
module Blockplan = Repro_lir.Blockplan
module Replay = Repro_capture.Replay
module Verify = Repro_capture.Verify
module App = Repro_apps.Registry
module Pipeline = Repro_core.Pipeline
module Genome = Repro_search.Genome
module Rng = Repro_util.Rng
module Trace = Repro_util.Trace
module Faults = Repro_util.Faults

let campaign_count =
  match Option.bind (Sys.getenv_opt "BLOCKEXEC_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 200

(* ------------------------- lockstep machinery ----------------------- *)

(* Run [f] with an [on_block] hook collecting the (mid, bid, cycles)
   stream both engines publish.  On divergence the first differing entry
   names the exact block where the engines parted ways. *)
let with_block_stream f =
  let stream = ref [] in
  f (fun mid bid cyc -> stream := (mid, bid, cyc) :: !stream);
  List.rev !stream

let show_entry (mid, bid, cyc) = Printf.sprintf "m%d:b%d@%d" mid bid cyc

let first_divergence ref_s fused_s =
  let rec go i = function
    | [], [] -> None
    | a :: _, [] -> Some (i, Some a, None)
    | [], b :: _ -> Some (i, None, Some b)
    | a :: ra, b :: rb ->
      if a = b then go (i + 1) (ra, rb) else Some (i, Some a, Some b)
  in
  go 0 (ref_s, fused_s)

let dump_block dx (binary : Binary.t) (mid, bid, _) =
  let _ = dx in
  match Binary.find binary mid with
  | None -> Printf.sprintf "m%d not in binary" mid
  | Some f ->
    (match Hashtbl.find_opt f.Hir.f_blocks bid with
     | None -> Printf.sprintf "m%d (%s): no block b%d" mid f.Hir.f_name bid
     | Some b ->
       Printf.sprintf "m%d (%s) b%d:\n  %s\n  %s" mid f.Hir.f_name bid
         (String.concat "\n  " (List.map Hir.string_of_instr b.Hir.insns))
         (Hir.string_of_term b.Hir.term))

(* ------------------------ replay comparison ------------------------- *)

let show_outcome = function
  | Replay.Finished (v, cyc) ->
    Printf.sprintf "finished(%s, %d cycles)"
      (match v with Some v -> Value.to_string v | None -> "()")
      cyc
  | Replay.Crashed msg -> Printf.sprintf "crashed(%s)" msg
  | Replay.Hung -> "hung"

let outcome_eq a b =
  match a, b with
  | Replay.Finished (va, ca), Replay.Finished (vb, cb) ->
    ca = cb
    && (match va, vb with
        | None, None -> true
        | Some x, Some y -> Value.equal x y
        | Some _, None | None, Some _ -> false)
  | Replay.Crashed ma, Replay.Crashed mb -> String.equal ma mb
  | Replay.Hung, Replay.Hung -> true
  | _ -> false

(* Run the same (dx, snapshot, binary) replay under both engines and
   explain the first divergent block if any observable differs.  Compares
   outcome, post-replay cycle counter (exact also for crashes and
   timeouts), and the dirty heap/static words. *)
let compare_replay ?fuel ?faults_key ~what dx snap binary =
  let replay engine on_block =
    Replay.run ?fuel ~on_block ?faults_key dx snap
      (Replay.Compiled (Blockexec.prepare ~engine binary))
  in
  let sref = ref [] and sfused = ref [] in
  let rref = ref None and rfused = ref None in
  sref := with_block_stream (fun h -> rref := Some (replay Blockexec.Ref h));
  sfused :=
    with_block_stream (fun h -> rfused := Some (replay Blockexec.Fused h));
  let rr = Option.get !rref and rf = Option.get !rfused in
  let explain problem =
    let where =
      match first_divergence !sref !sfused with
      | None -> "block streams identical"
      | Some (i, a, b) ->
        let side name binary = function
          | None -> Printf.sprintf "%s: <stream ended>" name
          | Some e ->
            Printf.sprintf "%s: %s\n%s" name (show_entry e)
              (dump_block dx binary e)
        in
        Printf.sprintf "first divergent block at step %d\n%s\n%s" i
          (side "ref" binary a) (side "fused" binary b)
    in
    Alcotest.fail
      (Printf.sprintf "%s: %s\nref:   %s\nfused: %s\n%s" what problem
         (show_outcome rr.Replay.outcome) (show_outcome rf.Replay.outcome)
         where)
  in
  if not (outcome_eq rr.Replay.outcome rf.Replay.outcome) then
    explain "outcomes differ";
  if rr.Replay.ctx.Ctx.cycles <> rf.Replay.ctx.Ctx.cycles then
    explain
      (Printf.sprintf "post-replay cycles differ (ref %d, fused %d)"
         rr.Replay.ctx.Ctx.cycles rf.Replay.ctx.Ctx.cycles);
  let dref = Verify.diff_against_snapshot rr.Replay.ctx snap in
  let dfused = Verify.diff_against_snapshot rf.Replay.ctx snap in
  if dref <> dfused then explain "dirty heap/static words differ"

(* --------------------- shared app/corpus fixtures ------------------- *)

(* Captures and eval environments are expensive; build once per app. *)
let fixture_cache : (string, App.t * Pipeline.corpus * Pipeline.evaluation_env)
    Hashtbl.t =
  Hashtbl.create 4

let fixture name =
  match Hashtbl.find_opt fixture_cache name with
  | Some f -> f
  | None ->
    let app = Option.get (App.find name) in
    let co = Option.get (Pipeline.capture_corpus ~seed:7 ~k:2 app) in
    let env =
      Pipeline.make_eval_env ~seed:23 ~corpus:co.Pipeline.co_entries app
        co.Pipeline.co_primary
    in
    let f = (app, co, env) in
    Hashtbl.replace fixture_cache name f;
    f

let campaign_apps = [ "FFT"; "LU"; "SOR"; "MaterialLife"; "DroidFish" ]

(* ------------------------- qcheck campaign -------------------------- *)

(* Random (app, genome, input) triples: compile the genome for the app's
   hot region, then replay the primary capture and every corpus input
   under both engines.  Genomes come from the full GA gene pool, so the
   campaign routinely produces unsafe binaries that crash or loop — the
   property holds for those too (identical crash/hang, identical
   crash-time cycles). *)
let campaign =
  QCheck.Test.make ~name:"engines bit-identical on random genomes"
    ~count:campaign_count
    QCheck.(pair (int_bound 1_000_000) (int_bound 1000))
    (fun (genome_seed, pick) ->
       let name = List.nth campaign_apps (pick mod List.length campaign_apps) in
       let app, co, env = fixture name in
       let _ = app in
       let genome = Genome.random (Rng.create genome_seed) in
       match Pipeline.compile_core env genome with
       | Error _ -> true (* nothing to execute *)
       | Ok binary ->
         let snaps =
           (("primary", co.Pipeline.co_primary.Pipeline.snapshot)
            :: List.map
                 (fun ce ->
                    (ce.Pipeline.ce_input.App.in_label,
                     ce.Pipeline.ce_snapshot))
                 co.Pipeline.co_entries)
         in
         List.iter
           (fun (label, snap) ->
              compare_replay
                ~what:
                  (Printf.sprintf "%s/%s genome=%s" name label
                     (Genome.to_string genome))
                env.Pipeline.dx snap binary)
           snaps;
         true)

(* ----------------- pinned: branch into a fusible pair --------------- *)

(* Hand-built graph: the GuardNull/LoadLen pair is split across blocks b1
   (guard) and b3 (access), and b3 is *also* entered directly from b2 —
   the layout where fusing across the seam would execute the guard on a
   path that never had one.  The plan must keep the halves unfused
   (ops_fused = 0) yet execute both entry paths bit-identically.  The
   same access sequence inside one block must fuse (ops_fused > 0) and
   still agree. *)
let two_path_func ~mid ~split =
  let f =
    { Hir.f_mid = mid; f_name = "two_path"; f_nparams = 0; f_nregs = 8;
      f_blocks = Hashtbl.create 8; f_entry = 0; f_next_bid = 0;
      f_pressure = None }
  in
  (* b0 *)
  ignore
    (Hir.add_block f
       [ Hir.Const (0, B.Cint 4);      (* array length *)
         Hir.NewArr (1, B.Kint, 0);
         Hir.Const (2, B.Cint 1) ]     (* branch selector *)
       (Hir.If (B.Cne, 2, None, 1, 2, Hir.Predict_none)));
  if split then begin
    (* b1: guard only, fall through to the access block *)
    ignore (Hir.add_block f [ Hir.GuardNull 1 ] (Hir.Goto 3));
    (* b2: skips the guard, enters the access block mid-"pair" *)
    ignore (Hir.add_block f [ Hir.Const (3, B.Cint 0) ] (Hir.Goto 3));
    (* b3: the access half *)
    ignore (Hir.add_block f [ Hir.LoadLen (4, 1) ] (Hir.Ret (Some 4)))
  end
  else begin
    (* same work, pair adjacent in one block: must fuse *)
    ignore
      (Hir.add_block f [ Hir.GuardNull 1; Hir.LoadLen (4, 1) ]
         (Hir.Ret (Some 4)));
    ignore (Hir.add_block f [ Hir.Const (3, B.Cint 0) ] (Hir.Goto 1));
    ignore (Hir.add_block f [ Hir.LoadLen (4, 1) ] (Hir.Ret (Some 4)))
  end;
  f

(* A dexfile to host hand-built mains: classes/statics/main id come from a
   trivial MiniDex program; we overlay our graph on its main method id. *)
let host_dx () =
  Repro_dex.Lower.compile
    "class Main { static int main() { return 0; } }"

let run_engine engine dx binary =
  let ctx = Vm.Image.build ~seed:7 dx in
  Blockexec.install ctx (Blockexec.prepare ~engine binary);
  match Vm.Interp.run_main ctx with
  | r -> (`Ret r, ctx.Ctx.cycles, ctx)
  | exception Ctx.App_exception code -> (`Exc code, ctx.Ctx.cycles, ctx)
  | exception Exec.Segfault msg -> (`Segv msg, ctx.Ctx.cycles, ctx)
  | exception Ctx.Timeout -> (`Timeout, ctx.Ctx.cycles, ctx)
  | exception Invalid_argument msg -> (`Invalid msg, ctx.Ctx.cycles, ctx)

let agree ~what dx binary =
  let r1, c1, _ = run_engine Blockexec.Ref dx binary in
  let r2, c2, _ = run_engine Blockexec.Fused dx binary in
  Alcotest.(check bool) (what ^ ": results agree") true (r1 = r2);
  Alcotest.(check int) (what ^ ": cycles agree") c1 c2

let fused_count f =
  let before = Trace.counter_value "blockexec.ops_fused" in
  ignore (Blockexec.prepare ~engine:Blockexec.Fused (Binary.create [ f ]));
  Trace.counter_value "blockexec.ops_fused" - before

let test_branch_into_pair () =
  let dx = host_dx () in
  let mid = dx.B.dx_main in
  let split = two_path_func ~mid ~split:true in
  let joined = two_path_func ~mid ~split:false in
  Alcotest.(check int) "cross-seam pair is not fused" 0
    (fused_count (Hir.copy split));
  Alcotest.(check bool) "same-block pair fuses" true
    (fused_count (Hir.copy joined) >= 1);
  agree ~what:"split layout" dx (Binary.create [ split ]);
  agree ~what:"joined layout" dx (Binary.create [ joined ])

(* A dispatch target the graph does not contain must fail with the
   reference's exact Hir.block message, from both engines. *)
let test_missing_block () =
  let dx = host_dx () in
  let mid = dx.B.dx_main in
  let f =
    { Hir.f_mid = mid; f_name = "missing"; f_nparams = 0; f_nregs = 4;
      f_blocks = Hashtbl.create 4; f_entry = 0; f_next_bid = 0;
      f_pressure = None }
  in
  ignore
    (Hir.add_block f [ Hir.Const (0, B.Cint 1) ]
       (Hir.If (B.Cne, 0, None, 7, 0, Hir.Predict_none)));
  f.Hir.f_next_bid <- 8;  (* target 7 is in range but absent *)
  (* pre-fill the pressure cache: Analysis.pressure walks the CFG and
     would itself trip over the dangling edge at Binary.create time *)
  f.Hir.f_pressure <- Some 0;
  let binary = Binary.create [ f ] in
  let r1, c1, _ = run_engine Blockexec.Ref dx binary in
  let r2, c2, _ = run_engine Blockexec.Fused dx binary in
  (match r1 with
   | `Invalid msg ->
     Alcotest.(check bool) "Hir.block message" true
       (String.length msg >= 9 && String.sub msg 0 9 = "Hir.block")
   | _ -> Alcotest.fail "reference did not raise Invalid_argument");
  Alcotest.(check bool) "same failure" true (r1 = r2);
  Alcotest.(check int) "same cycles at failure" c1 c2

(* --------------- pinned: fallbacks off the fast cases ---------------- *)

(* A hand-built main of the given blocks (bids assigned in order). *)
let func_of ?(nregs = 8) ~mid name blocks =
  let f =
    { Hir.f_mid = mid; f_name = name; f_nparams = 0; f_nregs = nregs;
      f_blocks = Hashtbl.create 8; f_entry = 0; f_next_bid = 0;
      f_pressure = None }
  in
  List.iter (fun (insns, term) -> ignore (Hir.add_block f insns term)) blocks;
  f

let show_run = function
  | `Ret (Some v) -> "ret " ^ Value.to_string v
  | `Ret None -> "ret ()"
  | `Exc code -> Printf.sprintf "exception %d" code
  | `Segv msg -> "segfault: " ^ msg
  | `Timeout -> "timeout"
  | `Invalid msg -> "invalid_argument: " ^ msg

(* Both engines must agree, and the reference must end as [expect]. *)
let expect_same ~what ~expect dx f =
  let binary = Binary.create [ f ] in
  let r1, c1, _ = run_engine Blockexec.Ref dx binary in
  let r2, c2, _ = run_engine Blockexec.Fused dx binary in
  Alcotest.(check string) (what ^ ": reference outcome") expect (show_run r1);
  Alcotest.(check string) (what ^ ": same outcome") (show_run r1) (show_run r2);
  Alcotest.(check int) (what ^ ": same cycles") c1 c2

(* The compiled engine decides int×int and float×float cases inline; a
   float, bool or ref register reaching one of those instructions must
   take the boxed body and fail (or not) with the reference's exact
   text.  Each case is one block [Const a; Const b; op; Ret]. *)
let test_type_fallbacks () =
  let dx = host_dx () in
  let mid = dx.B.dx_main in
  let ci k = B.Cint k and cf x = B.Cfloat x and cb b = B.Cbool b in
  let case ~what ~expect x y insns =
    expect_same ~what ~expect dx
      (func_of ~mid what
         [ (Hir.Const (0, x) :: Hir.Const (1, y) :: insns, Hir.Ret (Some 2)) ])
  in
  let bin op = [ Hir.Binop (op, 2, 0, 1) ] in
  let ill = "segfault: Interp: ill-typed binop" in
  case ~what:"float + int" ~expect:ill (cf 1.5) (ci 2) (bin Ast.Add);
  case ~what:"int * bool" ~expect:ill (ci 3) (cb true) (bin Ast.Mul);
  case ~what:"bool < bool" ~expect:ill (cb false) (cb true) (bin Ast.Lt);
  case ~what:"null land int" ~expect:ill B.Cnull (ci 1) (bin Ast.Band);
  case ~what:"float shl int" ~expect:ill (cf 2.0) (ci 1) (bin Ast.Shl);
  case ~what:"int land bool" ~expect:ill (ci 1) (cb true) (bin Ast.Land);
  (* mixed operands that do not fail: ARM division by an int zero *)
  case ~what:"float / int 0" ~expect:"ret 0" (cf 2.5) (ci 0) (bin Ast.Div);
  case ~what:"float % int 0" ~expect:"ret 2.5" (cf 2.5) (ci 0) (bin Ast.Rem);
  case ~what:"float = int" ~expect:"ret false" (cf 1.0) (ci 1) (bin Ast.Eq);
  case ~what:"float = float" ~expect:"ret true" (cf 1.0) (cf 1.0) (bin Ast.Eq);
  case ~what:"bool <> bool" ~expect:"ret true" (cb true) (cb false)
    (bin Ast.Ne);
  case ~what:"bool lor bool" ~expect:"ret true" (cb true) (cb false)
    (bin Ast.Lor);
  case ~what:"bool land bool" ~expect:"ret false" (cb true) (cb false)
    (bin Ast.Land);
  case ~what:"float < float" ~expect:"ret true" (cf 1.0) (cf 2.0)
    (bin Ast.Lt);
  case ~what:"int % int 0" ~expect:"ret 5" (ci 5) (ci 0) (bin Ast.Rem);
  case ~what:"int / int 0" ~expect:"ret 0" (ci 5) (ci 0) (bin Ast.Div);
  (* guards and accesses reached by the wrong type *)
  case ~what:"bounds guard on a float index"
    ~expect:"segfault: Value.to_int: float" (cf 1.0) (ci 4)
    [ Hir.GuardBounds (0, 1) ];
  case ~what:"bounds guard on a ref length"
    ~expect:"segfault: Value.to_int: ref" (ci 1) B.Cnull
    [ Hir.GuardBounds (0, 1) ];
  case ~what:"null guard on a bool"
    ~expect:"segfault: non-pointer value dereferenced" (cb true) (ci 0)
    [ Hir.GuardNull 0 ];
  case ~what:"load through a float"
    ~expect:"segfault: non-pointer value dereferenced" (cf 8.0) (ci 0)
    [ Hir.LoadElem (B.Kint, 2, 0, 1) ];
  case ~what:"neg of a bool" ~expect:"segfault: neg of non-number" (cb true)
    (ci 0) [ Hir.Unop (Ast.Neg, 2, 0) ];
  case ~what:"not of a float" ~expect:"segfault: Value.to_bool" (cf 1.0)
    (ci 0) [ Hir.Unop (Ast.Not, 2, 0) ];
  case ~what:"i2f of a ref" ~expect:"segfault: Value.to_int: ref" B.Cnull
    (ci 0) [ Hir.I2f (2, 0) ];
  (* branches: a compare of mixed types escapes unconverted, and a fused
     compare-and-branch fails in its compare half *)
  let ret_two = ([ Hir.Const (2, ci 7) ], Hir.Ret (Some 2)) in
  let branch ~what ~expect x y term =
    expect_same ~what ~expect dx
      (func_of ~mid what
         [ ([ Hir.Const (0, x); Hir.Const (1, y) ], term); ret_two; ret_two ])
  in
  branch ~what:"if int < ref"
    ~expect:"invalid_argument: Interp: ill-typed comparison" (ci 1) B.Cnull
    (Hir.If (B.Clt, 0, Some 1, 1, 2, Hir.Predict_none));
  branch ~what:"if float = float" ~expect:"ret 7" (cf 1.0) (cf 1.0)
    (Hir.If (B.Ceq, 0, Some 1, 1, 2, Hir.Predict_taken));
  branch ~what:"if bool against zero" ~expect:"ret 7" (cb true) (ci 0)
    (Hir.If (B.Cne, 0, None, 1, 2, Hir.Predict_not_taken));
  expect_same ~what:"cmp-branch on float < bool"
    ~expect:"segfault: Interp: ill-typed binop" dx
    (func_of ~mid "cmp_if"
       [ ( [ Hir.Const (0, cf 1.0); Hir.Const (1, cb false);
             Hir.Binop (Ast.Lt, 3, 0, 1) ],
           Hir.If (B.Cne, 3, None, 1, 2, Hir.Predict_none) );
         ret_two; ret_two ])

(* Run a program under every fuel value from 0 to just past its total
   cost: at each fuel both engines must agree on finished-vs-hung and on
   the cycle counter at the moment the verdict fell. *)
let fuel_sweep ~what dx binary =
  let run_with_fuel engine fuel =
    let ctx = Vm.Image.build ~seed:7 ~fuel dx in
    Blockexec.install ctx (Blockexec.prepare ~engine binary);
    match Vm.Interp.run_main ctx with
    | r -> (`Done r, ctx.Ctx.cycles)
    | exception Ctx.Timeout -> (`Timeout, ctx.Ctx.cycles)
  in
  let total =
    match run_with_fuel Blockexec.Ref max_int with
    | `Done _, c -> c
    | `Timeout, _ -> Alcotest.fail (what ^ ": timed out at full fuel")
  in
  for fuel = 0 to total + 2 do
    let vr, cr = run_with_fuel Blockexec.Ref fuel in
    let vf, cf = run_with_fuel Blockexec.Fused fuel in
    let verdict = function `Done _ -> "done" | `Timeout -> "timeout" in
    if vr <> vf then
      Alcotest.fail
        (Printf.sprintf "%s, fuel %d: verdicts differ (ref %s, fused %s)" what
           fuel (verdict vr) (verdict vf));
    if cr <> cf then
      Alcotest.fail
        (Printf.sprintf "%s, fuel %d: cycles at verdict differ (ref %d, \
                         fused %d)" what fuel cr cf)
  done;
  (* sanity: the sweep actually crossed the boundary *)
  Alcotest.(check bool) (what ^ ": low fuel times out") true
    (fst (run_with_fuel Blockexec.Fused 1) = `Timeout);
  Alcotest.(check bool) (what ^ ": full fuel finishes") true
    (match run_with_fuel Blockexec.Fused total with
     | `Done _, _ -> true
     | `Timeout, _ -> false)

(* Branch charges come in two steps (branch + fetch, then the hint's
   misprediction charge) and the compare of a fused compare-and-branch is
   charged before either: the fuel can run out at each of the three. *)
let test_branch_fuel_edges () =
  let dx = host_dx () in
  let mid = dx.B.dx_main in
  let ret_const k = ([ Hir.Const (2, B.Cint k) ], Hir.Ret (Some 2)) in
  let sweep ~what x y body_insns term =
    let f =
      func_of ~mid what
        [ (Hir.Const (0, x) :: Hir.Const (1, y) :: body_insns, term);
          ret_const 1; ret_const 2 ]
    in
    fuel_sweep ~what dx (Binary.create [ f ])
  in
  List.iter
    (fun (hint, hname) ->
       sweep ~what:("cmp-branch int, " ^ hname) (B.Cint 1) (B.Cint 2)
         [ Hir.Binop (Ast.Lt, 3, 0, 1) ]
         (Hir.If (B.Cne, 3, None, 1, 2, hint));
       sweep ~what:("cmp-branch float, " ^ hname) (B.Cfloat 1.0)
         (B.Cfloat 2.0)
         [ Hir.Binop (Ast.Ge, 3, 0, 1) ]
         (Hir.If (B.Cne, 3, None, 1, 2, hint));
       sweep ~what:("branch, " ^ hname) (B.Cint 1) (B.Cint 2) []
         (Hir.If (B.Clt, 0, Some 1, 1, 2, hint)))
    [ (Hir.Predict_none, "no hint"); (Hir.Predict_taken, "taken");
      (Hir.Predict_not_taken, "not taken") ]

(* A function naming a register outside its file has no range proof
   ([fp_regs_ok = false]): it runs on checked boxed bodies throughout,
   both where it never touches the bad register and where it does. *)
let test_regs_not_ok () =
  let dx = host_dx () in
  let mid = dx.B.dx_main in
  let f ~touch =
    let f =
      func_of ~nregs:4 ~mid "bad_regs"
        [ ( [ Hir.Const (0, B.Cint 3); Hir.Const (1, B.Cint 4);
              Hir.Binop (Ast.Add, 2, 0, 1) ],
            Hir.If (B.Cne, 0, None, (if touch then 2 else 1), 2,
                    Hir.Predict_none) );
          ([ Hir.Move (3, 2) ], Hir.Ret (Some 3));
          ([ Hir.Move (9, 2) ], Hir.Ret (Some 9)) ]
    in
    (* Analysis.pressure tolerates the bad register, but keep it out of
       the picture *)
    f.Hir.f_pressure <- Some 0;
    f
  in
  let plan =
    Blockplan.build Vm.Cost.default (Binary.create [ f ~touch:false ])
  in
  Alcotest.(check bool) "plan has no range proof" false
    (Hashtbl.find plan.Blockplan.pl_funcs mid).Blockplan.fp_regs_ok;
  expect_same ~what:"bad register untouched" ~expect:"ret 7" dx
    (f ~touch:false);
  expect_same ~what:"bad register written"
    ~expect:"segfault: index out of bounds" dx (f ~touch:true);
  fuel_sweep ~what:"bad register untouched" dx
    (Binary.create [ f ~touch:false ])

(* ------------------ pinned: fuel death inside a block --------------- *)

(* A long straight-line block (the exact shape the headroom hoist targets)
   run under every fuel value around its total cost: at each fuel the
   engines must agree on finished-vs-hung *and* on the cycle counter at
   the moment the verdict fell — the reference charges per instruction, so
   any sloppiness in the fused engine's charging shows up here. *)
let test_fuel_exhaustion_mid_block () =
  let src =
    "class Main { static int main() { \
       int a = 1; int b = 2; int c = 3; \
       a = a + b; b = b + c; c = c + a; \
       a = a * b; b = b * c; c = c * a; \
       a = a + b; b = b + c; c = c + a; \
       a = a * b; b = b * c; c = c * a; \
       return a + b + c; } }"
  in
  let dx = Repro_dex.Lower.compile src in
  let mids = List.map (fun m -> m.B.cm_id) (Array.to_list dx.B.dx_methods) in
  fuel_sweep ~what:"straight-line block" dx
    (Lir.Compile.android_binary dx mids);
  (* a goto chain straightened into one stream of fused pairs: below its
     headroom the stream runs the boxed bodies, seams and pairs included *)
  let dx = host_dx () in
  let chain =
    func_of ~nregs:10 ~mid:dx.B.dx_main "chain"
      [ ( [ Hir.Const (0, B.Cint 4); Hir.NewArr (1, B.Kint, 0);
            Hir.Const (2, B.Cint 1) ],
          Hir.Goto 1 );
        ( [ Hir.GuardNull 1; Hir.LoadLen (3, 1); Hir.GuardBounds (2, 3);
            Hir.LoadElem (B.Kint, 4, 1, 2); Hir.Binop (Ast.Add, 5, 4, 2) ],
          Hir.Goto 2 );
        ( [ Hir.GuardBounds (2, 3); Hir.StoreElem (B.Kint, 1, 2, 5);
            Hir.Move (6, 5) ],
          Hir.Goto 3 );
        ( [ Hir.LoadElem (B.Kint, 7, 1, 2); Hir.Binop (Ast.Mul, 8, 7, 6) ],
          Hir.Ret (Some 8) ) ]
  in
  Alcotest.(check bool) "chain pairs fuse" true
    (fused_count (Hir.copy chain) >= 4);
  fuel_sweep ~what:"straightened chain" dx (Binary.create [ chain ])

(* ------------- pinned: guard-stripped genome, K>=2 corpus ----------- *)

(* The guard-stripping soundness hole and its corpus fix must look exactly
   the same through both engines: pass on the captured input, killed by
   the adversarial corpus input, with identical verdicts. *)
let test_guard_stripped_killed_identically () =
  let app, co, env = fixture "FFT" in
  let _ = app in
  let genome = Repro_core.Experiments.pinned_unsafe_genome () in
  let binary =
    match Pipeline.compile_core env genome with
    | Ok b -> b
    | Error _ -> Alcotest.fail "pinned genome failed to compile"
  in
  let verdicts engine =
    let code = Blockexec.prepare ~engine binary in
    let primary =
      Verify.check env.Pipeline.dx
        co.Pipeline.co_primary.Pipeline.snapshot env.Pipeline.vmap code
    in
    let corpus =
      List.map
        (fun ce ->
           Verify.check_ref env.Pipeline.dx ce.Pipeline.ce_snapshot
             ce.Pipeline.ce_reference code)
        co.Pipeline.co_entries
    in
    primary :: corpus
  in
  let show = function
    | Verify.Passed c -> Printf.sprintf "passed:%d" c
    | Verify.Wrong_output -> "wrong-output"
    | Verify.Crashed m -> "crashed:" ^ m
    | Verify.Hung -> "hung"
  in
  let vr = List.map show (verdicts Blockexec.Ref) in
  let vf = List.map show (verdicts Blockexec.Fused) in
  Alcotest.(check (list string)) "verdicts identical across engines" vr vf;
  (* the net still catches the stripped binary *)
  let passed s = String.length s >= 7 && String.sub s 0 7 = "passed:" in
  match vr with
  | [] -> Alcotest.fail "no verdicts"
  | primary :: corpus ->
    Alcotest.(check bool) "passes the captured input" true (passed primary);
    Alcotest.(check bool) "corpus kills the stripped binary" true
      (List.exists (fun s -> not (passed s)) corpus)

(* First genome from [seed; seed+1; ...] that compiles (random genomes can
   exceed the compile budgets). *)
let compiling_genome env seed =
  let rec go s =
    if s > seed + 50 then Alcotest.fail "no compiling genome found"
    else
      match Pipeline.compile_core env (Genome.random (Rng.create s)) with
      | Ok b -> b
      | Error _ -> go (s + 1)
  in
  go seed

(* ------------------- pinned: injected executor faults --------------- *)

(* Exec_crash / Exec_hang / Exec_wrong_ret must fire at the same keyed
   call and produce the same verdict through both engines: the fused
   engine replicates the reference's fault points, not just its happy
   path. *)
let test_faults_through_both_engines () =
  let app, co, env = fixture "FFT" in
  let _ = app in
  let snap = co.Pipeline.co_primary.Pipeline.snapshot in
  let binary = compiling_genome env 42 in
  List.iter
    (fun only ->
       Faults.enable
         (Result.get_ok
            (Faults.parse_spec (Printf.sprintf "seed=11,rate=1.0,only=%s" only)));
       Fun.protect ~finally:Faults.disable @@ fun () ->
       for key = 0 to 4 do
         compare_replay ~faults_key:key
           ~what:(Printf.sprintf "fault %s key %d" only key)
           env.Pipeline.dx snap binary
       done)
    [ "exec-crash"; "exec-wrong-ret" ];
  (* hang: bounded fuel so the injected spin terminates quickly *)
  Faults.enable
    (Result.get_ok (Faults.parse_spec "seed=11,rate=1.0,only=exec-hang"));
  Fun.protect ~finally:Faults.disable @@ fun () ->
  compare_replay ~fuel:2_000_000 ~faults_key:1 ~what:"fault exec-hang"
    env.Pipeline.dx snap binary

(* ------------------------------ prepare ------------------------------ *)

(* Every fused preparation builds one plan and reports what it formed. *)
let test_prepare_builds_one_plan () =
  let _, _, env = fixture "FFT" in
  let binary = compiling_genome env 3 in
  let grown name f =
    let before = Trace.counter_value name in
    f ();
    Trace.counter_value name - before
  in
  let prepare_fused () =
    ignore (Blockexec.prepare ~engine:Blockexec.Fused binary)
  in
  Alcotest.(check int) "one build per prepare" 1
    (grown "blockexec.plan_builds" prepare_fused);
  Alcotest.(check int) "the reference engine plans nothing" 0
    (grown "blockexec.plan_builds" (fun () ->
         ignore (Blockexec.prepare ~engine:Blockexec.Ref binary)));
  Alcotest.(check bool) "plans report fusions" true
    (grown "blockexec.ops_fused" prepare_fused > 0);
  Alcotest.(check bool) "plans report hoisted checks" true
    (grown "blockexec.checks_hoisted" prepare_fused > 0);
  Alcotest.(check bool) "plans report blocks" true
    (grown "blockexec.blocks_formed" prepare_fused > 0)

(* A plan's segment bounds are sums of its cost model: installing it into
   a context running another model must fail, not replay wrong fuel
   checks. *)
let test_install_rejects_other_cost_model () =
  let dx = host_dx () in
  let binary = Binary.create [ two_path_func ~mid:dx.B.dx_main ~split:false ] in
  let code = Blockexec.prepare ~engine:Blockexec.Fused binary in
  let other = { Vm.Cost.default with Vm.Cost.int_alu = 2 } in
  let ctx = Vm.Image.build ~seed:7 ~cost:other dx in
  Alcotest.(check bool) "foreign cost model rejected" true
    (match Blockexec.install ctx code with
     | () -> false
     | exception Invalid_argument _ -> true);
  (* the same code installs under the model it was planned for *)
  Blockexec.install (Vm.Image.build ~seed:7 dx) code

(* ----------------------- sampling fallback -------------------------- *)

(* With the profiler armed the fused dispatcher must route through the
   reference engine, so samples land on identical cycle boundaries. *)
let test_sampling_fallback () =
  let app, _, _ = fixture "FFT" in
  let samples engine =
    let code = Blockexec.prepare ~engine (Pipeline.android_binary_for app) in
    let online = Pipeline.online_run ~seed:7 ~code ~sample_period:5_000 app in
    ( online.Pipeline.cycles,
      List.map
        (fun s -> (s.Ctx.s_method, s.Ctx.s_native))
        online.Pipeline.ctx.Ctx.samples )
  in
  let cr, sr = samples Blockexec.Ref in
  let cf, sf = samples Blockexec.Fused in
  Alcotest.(check int) "cycles agree under sampling" cr cf;
  Alcotest.(check bool) "sample streams identical" true (sr = sf);
  Alcotest.(check bool) "samples were taken" true (sr <> [])

(* --------------------- whole-program measurement -------------------- *)

(* [measure_speedups] runs unsampled on code prepared for the run's
   engine, so under the fused default it executes on the compiled engine:
   its cycle means, and with them every printed speedup, must not depend
   on the engine. *)
let test_speedups_engine_independent () =
  let cfg =
    { Repro_search.Ga.quick_config with
      Repro_search.Ga.population = 6; generations = 2; max_identical = 30 }
  in
  List.iter
    (fun name ->
       let app, co, _ = fixture name in
       let opt = Pipeline.optimize ~seed:3 ~cfg app co.Pipeline.co_primary in
       let speedups engine =
         let env = { opt.Pipeline.env with Pipeline.engine } in
         Pipeline.measure_speedups ~runs:2 app { opt with Pipeline.env }
       in
       let r = speedups Blockexec.Ref and f = speedups Blockexec.Fused in
       Alcotest.(check bool) (name ^ ": speedups records identical") true
         (r = f);
       Alcotest.(check bool) (name ^ ": GA binary measured") true
         (f.Pipeline.ga_cycles > 0.0))
    [ "FFT"; "MaterialLife" ]

(* -------------------------------------------------------------------- *)

let () =
  Alcotest.run "blockexec"
    [ ("differential",
       [ QCheck_alcotest.to_alcotest campaign ]);
      ("pinned",
       [ Alcotest.test_case "branch into fusible pair" `Quick
           test_branch_into_pair;
         Alcotest.test_case "missing dispatch target" `Quick
           test_missing_block;
         Alcotest.test_case "fuel exhaustion mid-block" `Quick
           test_fuel_exhaustion_mid_block;
         Alcotest.test_case "type fallbacks match the reference" `Quick
           test_type_fallbacks;
         Alcotest.test_case "branch charges at the fuel edge" `Quick
           test_branch_fuel_edges;
         Alcotest.test_case "no register-range proof" `Quick
           test_regs_not_ok;
         Alcotest.test_case "guard-stripped killed identically" `Quick
           test_guard_stripped_killed_identically;
         Alcotest.test_case "executor faults through both engines" `Quick
           test_faults_through_both_engines ]);
      ("prepare",
       [ Alcotest.test_case "one plan per prepare" `Quick
           test_prepare_builds_one_plan;
         Alcotest.test_case "install rejects another cost model" `Quick
           test_install_rejects_other_cost_model ]);
      ("profiler",
       [ Alcotest.test_case "sampling falls back to reference" `Quick
           test_sampling_fallback ]);
      ("measurement",
       [ Alcotest.test_case "speedups identical across engines" `Quick
           test_speedups_engine_independent ]) ]
