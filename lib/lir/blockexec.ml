(* The compiled block-fused LIR executor.

   Runs the same decomposed-dialect graphs as [Exec], against the plans
   precomputed by [Blockplan], under a strict bit-identical contract: cycle
   accounting, observable memory, return values and crash/hang
   classification all match the reference engine exactly, for conforming
   *and* non-conforming (guard-stripped, fault-injected, malformed) code.

   [prepare] compiles every plan once into closure-threaded code:

   - registers live unboxed in a frame: a tag byte per register
     ([t_int]/[t_flt]/[t_bool]/[t_ref]), an [int array] holding int, bool
     (0/1) and ref payloads, and a [Float.Array.t] holding float payloads.
     Writing a register stores a tag and a payload, never a boxed value;

   - every straight segment becomes a chain of per-micro-op closures that
     tail-call each other.  A chain runs only after one headroom
     comparison ([cycles + sg_bound <= fuel] proves no interior charge can
     raise Timeout), so its charges are plain additions of constants to the
     cycle counter — exact at every instruction, hence also at crash time;

   - each micro-op checks its operands' tags and runs the int/float/bool
     case inline; any other type, and every op without a fast case, runs
     the boxed body ([exec_instr]/[exec_mop]) over the same frame.  Those
     boxed bodies mirror [Exec.run_func] verbatim and are this engine's
     only definition of the rare and failing semantics;

   - every block becomes one closure that returns the next bid.  [Tgoto],
     [Tif] and [Tcmp_if] are specialised at compile time: integer, bool
     and ref compares are decided inline and the per-hint branch charges
     are precomputed, falling back to the boxed terminator ([exec_term])
     on mixed types.

   Barrier instructions (calls, allocation, suspend checks, Sys.clock),
   segments without headroom, and whole functions whose plan lacks the
   register-range proof ([fp_regs_ok]) run the boxed bodies with
   per-charge fuel checks.

   Profiling replays ([sample_period > 0]) fall back to [Exec.run_func]
   per call: the sampling hook inside [Ctx.charge] must see every
   intermediate cycle value, which the plain additions skip.  With the
   profiler off, [Ctx.charge] is exactly "add, then raise Timeout past the
   fuel", which is what [charge_exact] and the headroom proof rely on. *)

module B = Repro_dex.Bytecode
module Ast = Repro_dex.Ast
module Hir = Repro_hgraph.Hir
module Mem = Repro_os.Mem
module Ctx = Repro_vm.Exec_ctx
module Value = Repro_vm.Value
module Cost = Repro_vm.Cost
module Interp = Repro_vm.Interp
module Jni = Repro_vm.Jni
module Faults = Repro_util.Faults
open Repro_vm.Value

type engine = Ref | Fused

let engine_name = function Ref -> "ref" | Fused -> "fused"

let engine_of_string = function
  | "ref" -> Some Ref
  | "fused" -> Some Fused
  | _ -> None

(* ---------------------------- the frame ----------------------------- *)

let t_int = '\000'
let t_flt = '\001'
let t_bool = '\002'
let t_ref = '\003'

type frame = {
  ctx : Ctx.t;
  mid : int;  (* the running method, for the lockstep [on_block] hook *)
  tags : Bytes.t;
  ints : int array;  (* payload of int, bool (0/1) and ref registers *)
  flts : Float.Array.t;  (* payload of float registers *)
  mutable wrong_ret : bool;  (* the Exec_wrong_ret fault fired for this call *)
  mutable ret : Value.t option;
}

(* Boxed view of a register, bounds-checked: out-of-range indices raise
   the same [Invalid_argument] as the reference engine's [Value.t array]. *)
let get fr r =
  match Bytes.get fr.tags r with
  | '\000' -> Vint fr.ints.(r)
  | '\001' -> Vfloat (Float.Array.get fr.flts r)
  | '\002' -> Vbool (fr.ints.(r) <> 0)
  | _ -> Vref fr.ints.(r)

let set fr r v =
  match v with
  | Vint k ->
    Bytes.set fr.tags r t_int;
    fr.ints.(r) <- k
  | Vfloat x ->
    Bytes.set fr.tags r t_flt;
    Float.Array.set fr.flts r x
  | Vbool b ->
    Bytes.set fr.tags r t_bool;
    fr.ints.(r) <- Bool.to_int b
  | Vref a ->
    Bytes.set fr.tags r t_ref;
    fr.ints.(r) <- a

(* Unchecked accessors for compiled code.  Only reached in functions whose
   plan proved every register index in range ([fp_regs_ok]). *)
let[@inline] tag fr r = Bytes.unsafe_get fr.tags r
let[@inline] iget fr r = Array.unsafe_get fr.ints r
let[@inline] fget fr r = Float.Array.unsafe_get fr.flts r

let[@inline] set_i fr tg r x =
  Bytes.unsafe_set fr.tags r tg;
  Array.unsafe_set fr.ints r x

let[@inline] set_f fr r x =
  Bytes.unsafe_set fr.tags r t_flt;
  Float.Array.unsafe_set fr.flts r x

let[@inline] copy fr d s =
  Bytes.unsafe_set fr.tags d (Bytes.unsafe_get fr.tags s);
  Array.unsafe_set fr.ints d (Array.unsafe_get fr.ints s);
  Float.Array.unsafe_set fr.flts d (Float.Array.unsafe_get fr.flts s)

(* A charge inside a segment whose headroom was proven: cannot time out. *)
let[@inline] add fr n =
  let ctx = fr.ctx in
  ctx.Ctx.cycles <- ctx.Ctx.cycles + n

(* [Ctx.charge] with the profiler off. *)
let[@inline] charge_exact ctx n =
  let cy = ctx.Ctx.cycles + n in
  ctx.Ctx.cycles <- cy;
  if cy > ctx.Ctx.fuel then raise Ctx.Timeout

let read fr addr =
  match Mem.read_word fr.ctx.Ctx.mem addr with
  | w -> w
  | exception Invalid_argument msg -> raise (Exec.Segfault msg)

let write fr addr v =
  match Mem.write_word fr.ctx.Ctx.mem addr v with
  | () -> ()
  | exception Invalid_argument msg -> raise (Exec.Segfault msg)

let as_ref v =
  match v with
  | Vref a -> a
  | Vint a -> a
  | Vfloat _ | Vbool _ -> raise (Exec.Segfault "non-pointer value dereferenced")

let[@inline] fire_hook fr bid =
  match fr.ctx.Ctx.on_block with
  | Some h -> h fr.mid bid fr.ctx.Ctx.cycles
  | None -> ()

(* ------------------------- the boxed bodies ------------------------- *)

(* One instruction.  Case bodies mirror [Exec.run_func]'s [exec_instr]
   verbatim — same charges, same evaluation order, same failures. *)
let exec_instr fr i =
  let ctx = fr.ctx in
  let c = ctx.Ctx.cost in
  let charge n = Ctx.charge ctx n in
  match i with
  | Hir.Const (d, const) ->
    charge c.Cost.const;
    set fr d
      (match const with
       | B.Cint k -> Vint k
       | B.Cfloat x -> Vfloat x
       | B.Cbool b -> Vbool b
       | B.Cnull -> Value.null)
  | Hir.Move (d, s) ->
    charge c.Cost.move;
    set fr d (get fr s)
  | Hir.Binop (op, d, a, b) ->
    charge (Exec.binop_cost c op (get fr a));
    set fr d (Exec.eval_binop_arm op (get fr a) (get fr b))
  | Hir.Fma (d, a, b, cc) ->
    charge c.Cost.float_mul;
    set fr d
      (Vfloat
         (Float.fma (Value.to_float (get fr a)) (Value.to_float (get fr b))
            (Value.to_float (get fr cc))))
  | Hir.Select (d, cnd, a, b) ->
    charge c.Cost.int_alu;
    set fr d (if Value.is_truthy (get fr cnd) then get fr a else get fr b)
  | Hir.Unop (Ast.Neg, d, a) ->
    (match get fr a with
     | Vint x ->
       charge c.Cost.int_alu;
       set fr d (Vint (-x))
     | Vfloat x ->
       charge c.Cost.float_alu;
       set fr d (Vfloat (-.x))
     | Vbool _ | Vref _ -> raise (Exec.Segfault "neg of non-number"))
  | Hir.Unop (Ast.Not, d, a) ->
    charge c.Cost.int_alu;
    set fr d (Vbool (not (Value.to_bool (get fr a))))
  | Hir.I2f (d, a) ->
    charge c.Cost.float_conv;
    set fr d (Vfloat (float_of_int (Value.to_int (get fr a))))
  | Hir.F2i (d, a) ->
    charge c.Cost.float_conv;
    set fr d (Vint (int_of_float (Value.to_float (get fr a))))
  | Hir.NewObj (d, cid) -> set fr d (Vref (Ctx.alloc_object ctx cid))
  | Hir.NewArr (d, _, len) ->
    set fr d (Vref (Ctx.alloc_array ctx (Value.to_int (get fr len))))
  | Hir.GuardNull r ->
    charge c.Cost.null_check;
    if as_ref (get fr r) = 0 then raise (Ctx.App_exception Ctx.exc_null_pointer)
  | Hir.GuardBounds (i, l) ->
    charge c.Cost.bounds_check;
    let idx = Value.to_int (get fr i) and len = Value.to_int (get fr l) in
    if idx < 0 || idx >= len then
      raise (Ctx.App_exception Ctx.exc_out_of_bounds)
  | Hir.GuardDivZero r ->
    charge c.Cost.null_check;
    (match get fr r with
     | Vint 0 -> raise (Ctx.App_exception Ctx.exc_div_by_zero)
     | _ -> ())
  | Hir.LoadElem (k, d, a, i) ->
    charge c.Cost.load;
    let addr = Ctx.elem_addr (as_ref (get fr a)) (Value.to_int (get fr i)) in
    set fr d (Value.of_word k (read fr addr))
  | Hir.StoreElem (_, a, i, v) ->
    charge c.Cost.store;
    let addr = Ctx.elem_addr (as_ref (get fr a)) (Value.to_int (get fr i)) in
    write fr addr (Value.to_word (get fr v))
  | Hir.LoadLen (d, a) ->
    charge c.Cost.load;
    set fr d (Vint (Int64.to_int (read fr (as_ref (get fr a)))))
  | Hir.LoadField (k, d, o, off) ->
    charge c.Cost.load;
    let addr = Ctx.field_addr (as_ref (get fr o)) off in
    set fr d (Value.of_word k (read fr addr))
  | Hir.StoreField (_, o, v, off) ->
    charge c.Cost.store;
    write fr (Ctx.field_addr (as_ref (get fr o)) off) (Value.to_word (get fr v))
  | Hir.LoadClass (d, o) ->
    charge c.Cost.load;
    set fr d (Vint (Int64.to_int (read fr (as_ref (get fr o)))))
  | Hir.SGet (k, d, slot) ->
    charge c.Cost.load;
    set fr d (Value.of_word k (read fr (Ctx.static_addr ctx slot)))
  | Hir.SPut (_, slot, v) ->
    charge c.Cost.store;
    write fr (Ctx.static_addr ctx slot) (Value.to_word (get fr v))
  | Hir.CallStatic (ret, mid, argregs) ->
    charge c.Cost.call_overhead;
    let cargs = List.map (fun r -> get fr r) argregs in
    (match ret, Ctx.invoke ctx mid cargs with
     | Some d, Some v -> set fr d v
     | Some _, None | None, (Some _ | None) -> ())
  | Hir.CallVirtual (ret, slot, argregs, _site) ->
    charge (c.Cost.call_overhead + c.Cost.virtual_extra + c.Cost.load);
    let cargs = List.map (fun r -> get fr r) argregs in
    let recv =
      match argregs with
      | r :: _ -> as_ref (get fr r)
      | [] -> raise (Exec.Segfault "virtual call without receiver")
    in
    let cid = Int64.to_int (read fr recv) in
    if cid < 0 || cid >= Array.length ctx.Ctx.dx.B.dx_classes then
      raise (Exec.Segfault "corrupt object header in virtual dispatch");
    let vtable = ctx.Ctx.dx.B.dx_classes.(cid).B.ci_vtable in
    if slot < 0 || slot >= Array.length vtable then
      raise (Exec.Segfault "vtable slot out of range");
    (match ret, Ctx.invoke ctx vtable.(slot) cargs with
     | Some d, Some v -> set fr d v
     | Some _, None | None, (Some _ | None) -> ())
  | Hir.CallNative (ret, n, argregs, mode) ->
    let cargs = List.map (fun r -> get fr r) argregs in
    let result =
      match mode with
      | Hir.Jni -> Jni.call ctx n cargs
      | Hir.Intrinsic -> Jni.call ~as_native:false ctx n cargs
    in
    (match ret, result with
     | Some d, Some v -> set fr d v
     | Some _, None | None, (Some _ | None) -> ())
  | Hir.SuspendCheck -> Ctx.safepoint ctx
  | Hir.ALoadC _ | Hir.AStoreC _ | Hir.ArrLenC _ | Hir.IGetC _ | Hir.IPutC _ ->
    failwith "Exec: composite instruction reached the executor \
              (method was not translated)"

(* The instructions a micro-op stands for, in order.  [Blockplan] fuses
   only pairs whose combined charges and failures are exactly those of
   the two instructions run back to back. *)
let expand (m : Blockplan.mop) =
  match m with
  | Blockplan.Op _ | Blockplan.Goto_seam _ -> [ m ]
  | Blockplan.Null_load_len (d, a) ->
    [ Blockplan.Op (Hir.GuardNull a); Blockplan.Op (Hir.LoadLen (d, a)) ]
  | Blockplan.Null_load_field (k, d, o, off) ->
    [ Blockplan.Op (Hir.GuardNull o);
      Blockplan.Op (Hir.LoadField (k, d, o, off)) ]
  | Blockplan.Null_store_field (k, o, v, off) ->
    [ Blockplan.Op (Hir.GuardNull o);
      Blockplan.Op (Hir.StoreField (k, o, v, off)) ]
  | Blockplan.Bounds_load_elem (k, d, a, i, l) ->
    [ Blockplan.Op (Hir.GuardBounds (i, l));
      Blockplan.Op (Hir.LoadElem (k, d, a, i)) ]
  | Blockplan.Bounds_store_elem (k, a, i, v, l) ->
    [ Blockplan.Op (Hir.GuardBounds (i, l));
      Blockplan.Op (Hir.StoreElem (k, a, i, v)) ]
  | Blockplan.Load_elem_op (k, dl, a, i, op, d2, x, y) ->
    [ Blockplan.Op (Hir.LoadElem (k, dl, a, i));
      Blockplan.Op (Hir.Binop (op, d2, x, y)) ]

(* One micro-op, with type confusion (Invalid_argument from the value
   accessors) converted per instruction exactly like the reference's
   per-instruction wrapper. *)
let rec exec_mop fr m =
  match m with
  | Blockplan.Op i ->
    (try exec_instr fr i
     with Invalid_argument msg -> raise (Exec.Segfault msg))
  | Blockplan.Goto_seam (n, t) ->
    Ctx.charge fr.ctx n;
    fire_hook fr t
  | _ -> List.iter (exec_mop fr) (expand m)

let exec_op fr i = exec_mop fr (Blockplan.Op i)

let branch_cost ctx fetch hint taken =
  let c = ctx.Ctx.cost in
  Ctx.charge ctx (c.Cost.branch + fetch);
  match hint, taken with
  | Hir.Predict_taken, true | Hir.Predict_not_taken, false -> ()
  | Hir.Predict_taken, false | Hir.Predict_not_taken, true ->
    Ctx.charge ctx c.Cost.branch_miss
  | Hir.Predict_none, _ -> Ctx.charge ctx (c.Cost.branch_miss / 2)

(* One terminator, returning the next bid ([ret] once the method
   returned).  The compare half of a fused compare-and-branch is wrapped
   like the instruction it was, the branch half is not (matching the
   reference's loop body). *)
let exec_term fr (fp : Blockplan.fplan) ~ret term =
  let ctx = fr.ctx in
  let c = ctx.Ctx.cost in
  match term with
  | Blockplan.Tgoto t ->
    Ctx.charge ctx (c.Cost.branch + fp.Blockplan.fp_fetch);
    t
  | Blockplan.Tif (cond, a, rhs, bt, be, hint) ->
    let vb =
      match rhs with
      | Some rb -> get fr rb
      | None -> Exec.zero_like (get fr a)
    in
    let taken = Interp.eval_cond cond (get fr a) vb in
    branch_cost ctx fp.Blockplan.fp_fetch hint taken;
    if taken then bt else be
  | Blockplan.Tcmp_if (op, d, x, y, cond, rhs, bt, be, hint) ->
    exec_op fr (Hir.Binop (op, d, x, y));
    let vb =
      match rhs with
      | Some rb -> get fr rb
      | None -> Exec.zero_like (get fr d)
    in
    let taken = Interp.eval_cond cond (get fr d) vb in
    branch_cost ctx fp.Blockplan.fp_fetch hint taken;
    if taken then bt else be
  | Blockplan.Tret r ->
    Ctx.charge ctx c.Cost.int_alu;
    let result = Option.map (fun r -> get fr r) r in
    fr.ret <-
      (match result with
       | Some v when fr.wrong_ret ->
         Faults.record Faults.Exec_wrong_ret;
         Some (Exec.perturb_value v)
       | Some _ | None -> result);
    ret
  | Blockplan.Tthrow r ->
    Ctx.charge ctx c.Cost.throw_cost;
    raise (Ctx.App_exception (Value.to_int (get fr r)))
  | Blockplan.Tmissing msg -> invalid_arg msg

(* ----------------------------- compiler ----------------------------- *)

(* Compiled code is a chain of [frame -> int] closures; the int is the
   next bid, produced by the block's terminator.  Every closure is built
   as [let g fr = ... in g] so it stays a one-argument function. *)
type k = frame -> int

let slow i (k : k) : k =
  let m = Blockplan.Op i in
  let g fr =
    exec_mop fr m;
    k fr
  in
  g

let[@inline] is_ptr t = t = t_int || t = t_ref
let[@inline] both fr t a b = tag fr a = t && tag fr b = t

let[@inline] set_word fr kind d w =
  match kind with
  | B.Kint -> set_i fr t_int d (Int64.to_int w)
  | B.Kfloat -> set_f fr d (Int64.float_of_bits w)
  | B.Kbool -> set_i fr t_bool d (Bool.to_int (w <> 0L))
  | B.Kref -> set_i fr t_ref d (Int64.to_int w)

(* [Value.to_word] of a register.  Bools store the shared [1L]/[0L]
   constants, as the boxed body does: a fresh box per bool store would be
   promoted along with the page it lands in. *)
let[@inline] word_of fr r =
  let t = tag fr r in
  if t = t_flt then Int64.bits_of_float (fget fr r)
  else if t = t_bool then if iget fr r <> 0 then 1L else 0L
  else Int64.of_int (iget fr r)

(* Charge, write the result register, continue. *)
let[@inline] ret_i fr n d x (k : k) =
  add fr n;
  set_i fr t_int d x;
  k fr

let[@inline] ret_f fr n d x (k : k) =
  add fr n;
  set_f fr d x;
  k fr

let[@inline] ret_b fr n d x (k : k) =
  add fr n;
  set_i fr t_bool d (Bool.to_int x);
  k fr

(* Binops: the int×int and float×float cases inline, everything else
   (mixed types, ill-typed operands) through the boxed body.  Charges are
   [Exec.binop_cost]'s, which depends only on the first operand's type.
   Each case is spelled out: a closure over an operator function would
   cost an indirect call per op. *)
let compile_binop (c : Cost.model) op d a b (k : k) : k =
  let slow = slow (Hir.Binop (op, d, a, b)) k in
  let ci = Exec.binop_cost c op (Vint 0)
  and cf = Exec.binop_cost c op (Vfloat 0.0) in
  match op with
  | Ast.Add ->
    let g fr =
      if both fr t_int a b then ret_i fr ci d (iget fr a + iget fr b) k
      else if both fr t_flt a b then ret_f fr cf d (fget fr a +. fget fr b) k
      else slow fr
    in
    g
  | Ast.Sub ->
    let g fr =
      if both fr t_int a b then ret_i fr ci d (iget fr a - iget fr b) k
      else if both fr t_flt a b then ret_f fr cf d (fget fr a -. fget fr b) k
      else slow fr
    in
    g
  | Ast.Mul ->
    let g fr =
      if both fr t_int a b then ret_i fr ci d (iget fr a * iget fr b) k
      else if both fr t_flt a b then ret_f fr cf d (fget fr a *. fget fr b) k
      else slow fr
    in
    g
  | Ast.Div ->
    (* ARM semantics: x / 0 = 0 *)
    let g fr =
      if both fr t_int a b then
        let y = iget fr b in
        ret_i fr ci d (if y = 0 then 0 else iget fr a / y) k
      else if both fr t_flt a b then ret_f fr cf d (fget fr a /. fget fr b) k
      else slow fr
    in
    g
  | Ast.Rem ->
    (* ARM semantics: x % 0 = x *)
    let g fr =
      if both fr t_int a b then
        let x = iget fr a and y = iget fr b in
        ret_i fr ci d (if y = 0 then x else x mod y) k
      else if both fr t_flt a b then
        ret_f fr cf d (Float.rem (fget fr a) (fget fr b)) k
      else slow fr
    in
    g
  | Ast.Band ->
    let g fr =
      if both fr t_int a b then ret_i fr ci d (iget fr a land iget fr b) k
      else slow fr
    in
    g
  | Ast.Bor ->
    let g fr =
      if both fr t_int a b then ret_i fr ci d (iget fr a lor iget fr b) k
      else slow fr
    in
    g
  | Ast.Bxor ->
    let g fr =
      if both fr t_int a b then ret_i fr ci d (iget fr a lxor iget fr b) k
      else slow fr
    in
    g
  | Ast.Shl ->
    let g fr =
      if both fr t_int a b then
        ret_i fr ci d (iget fr a lsl (iget fr b land 63)) k
      else slow fr
    in
    g
  | Ast.Shr ->
    let g fr =
      if both fr t_int a b then
        ret_i fr ci d (iget fr a asr (iget fr b land 63)) k
      else slow fr
    in
    g
  | Ast.Lt ->
    let g fr =
      if both fr t_int a b then ret_b fr ci d ((iget fr a : int) < iget fr b) k
      else if both fr t_flt a b then
        ret_b fr cf d ((fget fr a : float) < fget fr b) k
      else slow fr
    in
    g
  | Ast.Le ->
    let g fr =
      if both fr t_int a b then ret_b fr ci d ((iget fr a : int) <= iget fr b) k
      else if both fr t_flt a b then
        ret_b fr cf d ((fget fr a : float) <= fget fr b) k
      else slow fr
    in
    g
  | Ast.Gt ->
    let g fr =
      if both fr t_int a b then ret_b fr ci d ((iget fr a : int) > iget fr b) k
      else if both fr t_flt a b then
        ret_b fr cf d ((fget fr a : float) > fget fr b) k
      else slow fr
    in
    g
  | Ast.Ge ->
    let g fr =
      if both fr t_int a b then ret_b fr ci d ((iget fr a : int) >= iget fr b) k
      else if both fr t_flt a b then
        ret_b fr cf d ((fget fr a : float) >= fget fr b) k
      else slow fr
    in
    g
  | Ast.Eq | Ast.Ne ->
    (* [Value.equal] on same-tag non-float operands is payload equality;
       float and mixed-tag operands take the boxed body *)
    let ne = op = Ast.Ne in
    let g fr =
      let ta = tag fr a in
      if ta <> t_flt && ta = tag fr b then
        ret_b fr ci d (((iget fr a : int) = iget fr b) <> ne) k
      else slow fr
    in
    g
  | Ast.Land | Ast.Lor ->
    (* bools are stored as 0/1, so the bitwise op is the logical one *)
    let is_or = op = Ast.Lor in
    let g fr =
      if both fr t_bool a b then
        let x = iget fr a and y = iget fr b in
        ret_b fr ci d ((if is_or then x lor y else x land y) <> 0) k
      else slow fr
    in
    g

(* One micro-op of a segment whose headroom was proven; a fused micro-op
   compiles to its expansion. *)
let rec compile_mop (c : Cost.model) (m : Blockplan.mop) (k : k) : k =
  match m with
  | Blockplan.Goto_seam (n, t) ->
    let g fr =
      add fr n;
      fire_hook fr t;
      k fr
    in
    g
  | Blockplan.Op i -> compile_instr c i k
  | _ -> List.fold_right (compile_mop c) (expand m) k

and compile_instr (c : Cost.model) (i : Hir.instr) (k : k) : k =
  match i with
  | Hir.Const (d, const) ->
    let n = c.Cost.const in
    (match const with
     | B.Cint x ->
       let g fr = ret_i fr n d x k in
       g
     | B.Cfloat x ->
       let g fr = ret_f fr n d x k in
       g
     | B.Cbool b ->
       let g fr = ret_b fr n d b k in
       g
     | B.Cnull ->
       let g fr =
         add fr n;
         set_i fr t_ref d 0;
         k fr
       in
       g)
  | Hir.Move (d, s) ->
    let n = c.Cost.move in
    let g fr =
      add fr n;
      copy fr d s;
      k fr
    in
    g
  | Hir.Binop (op, d, a, b) -> compile_binop c op d a b k
  | Hir.Fma (d, a, b, cc) ->
    let slow = slow i k and n = c.Cost.float_mul in
    let g fr =
      if both fr t_flt a b && tag fr cc = t_flt then
        ret_f fr n d (Float.fma (fget fr a) (fget fr b) (fget fr cc)) k
      else slow fr
    in
    g
  | Hir.Select (d, cnd, a, b) ->
    let n = c.Cost.int_alu in
    let g fr =
      add fr n;
      let truthy =
        if tag fr cnd = t_flt then fget fr cnd <> 0.0 else iget fr cnd <> 0
      in
      copy fr d (if truthy then a else b);
      k fr
    in
    g
  | Hir.Unop (Ast.Neg, d, a) ->
    let slow = slow i k and ni = c.Cost.int_alu and nf = c.Cost.float_alu in
    let g fr =
      let t = tag fr a in
      if t = t_int then ret_i fr ni d (-iget fr a) k
      else if t = t_flt then ret_f fr nf d (-.fget fr a) k
      else slow fr
    in
    g
  | Hir.Unop (Ast.Not, d, a) ->
    let slow = slow i k and n = c.Cost.int_alu in
    let g fr =
      let t = tag fr a in
      if t = t_int || t = t_bool then ret_b fr n d (iget fr a = 0) k
      else slow fr
    in
    g
  | Hir.I2f (d, a) ->
    let slow = slow i k and n = c.Cost.float_conv in
    let g fr =
      if tag fr a = t_int then ret_f fr n d (float_of_int (iget fr a)) k
      else slow fr
    in
    g
  | Hir.F2i (d, a) ->
    let slow = slow i k and n = c.Cost.float_conv in
    let g fr =
      if tag fr a = t_flt then ret_i fr n d (int_of_float (fget fr a)) k
      else slow fr
    in
    g
  | Hir.GuardNull r ->
    let slow = slow i k and n = c.Cost.null_check in
    let g fr =
      if is_ptr (tag fr r) then begin
        add fr n;
        if iget fr r = 0 then raise (Ctx.App_exception Ctx.exc_null_pointer);
        k fr
      end
      else slow fr
    in
    g
  | Hir.GuardBounds (ix, l) ->
    let slow = slow i k and n = c.Cost.bounds_check in
    let g fr =
      if tag fr ix = t_int && tag fr l = t_int then begin
        add fr n;
        let idx = iget fr ix in
        if idx < 0 || idx >= iget fr l then
          raise (Ctx.App_exception Ctx.exc_out_of_bounds);
        k fr
      end
      else slow fr
    in
    g
  | Hir.GuardDivZero r ->
    let n = c.Cost.null_check in
    let g fr =
      add fr n;
      if tag fr r = t_int && iget fr r = 0 then
        raise (Ctx.App_exception Ctx.exc_div_by_zero);
      k fr
    in
    g
  | Hir.LoadElem (kind, d, a, ix) ->
    let slow = slow i k and n = c.Cost.load in
    let g fr =
      if is_ptr (tag fr a) && tag fr ix = t_int then begin
        add fr n;
        set_word fr kind d (read fr (Ctx.elem_addr (iget fr a) (iget fr ix)));
        k fr
      end
      else slow fr
    in
    g
  | Hir.StoreElem (_, a, ix, v) ->
    let slow = slow i k and n = c.Cost.store in
    let g fr =
      if is_ptr (tag fr a) && tag fr ix = t_int then begin
        add fr n;
        write fr (Ctx.elem_addr (iget fr a) (iget fr ix)) (word_of fr v);
        k fr
      end
      else slow fr
    in
    g
  | Hir.LoadLen (d, a) | Hir.LoadClass (d, a) ->
    let slow = slow i k and n = c.Cost.load in
    let g fr =
      if is_ptr (tag fr a) then begin
        add fr n;
        set_i fr t_int d (Int64.to_int (read fr (iget fr a)));
        k fr
      end
      else slow fr
    in
    g
  | Hir.LoadField (kind, d, o, off) ->
    let slow = slow i k and n = c.Cost.load in
    let g fr =
      if is_ptr (tag fr o) then begin
        add fr n;
        set_word fr kind d (read fr (Ctx.field_addr (iget fr o) off));
        k fr
      end
      else slow fr
    in
    g
  | Hir.StoreField (_, o, v, off) ->
    let slow = slow i k and n = c.Cost.store in
    let g fr =
      if is_ptr (tag fr o) then begin
        add fr n;
        write fr (Ctx.field_addr (iget fr o) off) (word_of fr v);
        k fr
      end
      else slow fr
    in
    g
  | Hir.SGet (kind, d, slot) ->
    let n = c.Cost.load in
    let g fr =
      add fr n;
      set_word fr kind d (read fr (Ctx.static_addr fr.ctx slot));
      k fr
    in
    g
  | Hir.SPut (_, slot, v) ->
    let n = c.Cost.store in
    let g fr =
      add fr n;
      write fr (Ctx.static_addr fr.ctx slot) (word_of fr v);
      k fr
    in
    g
  | Hir.NewObj _ | Hir.NewArr _ | Hir.CallStatic _ | Hir.CallVirtual _
  | Hir.CallNative _ | Hir.SuspendCheck | Hir.ALoadC _ | Hir.AStoreC _
  | Hir.ArrLenC _ | Hir.IGetC _ | Hir.IPutC _ -> slow i k

(* A conditional branch: two-step charge (branch + fetch, then the
   misprediction charge of the hint), folded into one addition when both
   fit under the fuel. *)
let[@inline] branch ctx k1 k2 target =
  let cy = ctx.Ctx.cycles + k1 + k2 in
  if cy <= ctx.Ctx.fuel then begin
    ctx.Ctx.cycles <- cy;
    target
  end
  else begin
    Ctx.charge ctx k1;
    Ctx.charge ctx k2;
    target
  end

(* Bit (cmp + 1) of the mask says whether a compare result
   cmp ∈ {-1, 0, 1} takes the branch. *)
let cond_mask = function
  | B.Ceq -> 0b010
  | B.Cne -> 0b101
  | B.Clt -> 0b001
  | B.Cle -> 0b011
  | B.Cgt -> 0b100
  | B.Cge -> 0b110

let compile_if (c : Cost.model) (fp : Blockplan.fplan) ~ret cond a rhs bt be
    hint : k =
  let k1 = c.Cost.branch + fp.Blockplan.fp_fetch in
  let miss_t, miss_e =
    match hint with
    | Hir.Predict_taken -> (0, c.Cost.branch_miss)
    | Hir.Predict_not_taken -> (c.Cost.branch_miss, 0)
    | Hir.Predict_none -> (c.Cost.branch_miss / 2, c.Cost.branch_miss / 2)
  in
  let mask = cond_mask cond in
  match rhs with
  | None ->
    (* against the typed zero: total over every tag *)
    let g fr =
      let cmp =
        if tag fr a = t_flt then Float.compare (fget fr a) 0.0
        else Int.compare (iget fr a) 0
      in
      if mask land (1 lsl (cmp + 1)) <> 0 then branch fr.ctx k1 miss_t bt
      else branch fr.ctx k1 miss_e be
    in
    g
  | Some rb ->
    let term = Blockplan.Tif (cond, a, rhs, bt, be, hint) in
    let g fr =
      let ta = tag fr a in
      if ta <> tag fr rb then exec_term fr fp ~ret term
      else begin
        let cmp =
          if ta = t_flt then Float.compare (fget fr a) (fget fr rb)
          else Int.compare (iget fr a) (iget fr rb)
        in
        if mask land (1 lsl (cmp + 1)) <> 0 then branch fr.ctx k1 miss_t bt
        else branch fr.ctx k1 miss_e be
      end
    in
    g

(* The largest charge a binop can make (its bound in a one-op segment). *)
let binop_bound c op =
  max (Exec.binop_cost c op (Vint 0)) (Exec.binop_cost c op (Vfloat 0.0))

let compile_term c (fp : Blockplan.fplan) ~ret (term : Blockplan.tplan) : k =
  match term with
  | Blockplan.Tgoto t ->
    let n = c.Cost.branch + fp.Blockplan.fp_fetch in
    let g fr = charge_exact fr.ctx n; t in
    g
  | Blockplan.Tif (cond, a, rhs, bt, be, hint) ->
    compile_if c fp ~ret cond a rhs bt be hint
  | Blockplan.Tcmp_if (op, d, x, y, cond, rhs, bt, be, hint) ->
    (* the compare runs as a one-op segment in front of the branch *)
    let tif = compile_if c fp ~ret cond d rhs bt be hint in
    let fast = compile_binop c op d x y tif in
    let exact = Hir.Binop (op, d, x, y) and bound = binop_bound c op in
    let g fr =
      let ctx = fr.ctx in
      if ctx.Ctx.cycles + bound <= ctx.Ctx.fuel then fast fr
      else begin
        exec_op fr exact;
        tif fr
      end
    in
    g
  | Blockplan.Tret _ | Blockplan.Tthrow _ | Blockplan.Tmissing _ ->
    let g fr = exec_term fr fp ~ret term in
    g

let compile_part c (p : Blockplan.part) (k : k) : k =
  match p with
  | Blockplan.Barrier i -> slow i k
  | Blockplan.Straight sg ->
    let fast = Array.fold_right (compile_mop c) sg.Blockplan.sg_ops k in
    let ops = sg.Blockplan.sg_ops and bound = sg.Blockplan.sg_bound in
    let g fr =
      let ctx = fr.ctx in
      if ctx.Ctx.cycles + bound <= ctx.Ctx.fuel then fast fr
      else begin
        Array.iter (exec_mop fr) ops;
        k fr
      end
    in
    g

(* Without the register-range proof every access must stay checked: the
   block runs the boxed bodies throughout, which reproduce the
   reference's out-of-range failures bit for bit. *)
let boxed_block (fp : Blockplan.fplan) ~ret (bp : Blockplan.bplan) : k =
  let g fr =
    Array.iter
      (function
        | Blockplan.Straight sg ->
          Array.iter (exec_mop fr) sg.Blockplan.sg_ops
        | Blockplan.Barrier i -> exec_op fr i)
      bp.Blockplan.bp_parts;
    exec_term fr fp ~ret bp.Blockplan.bp_term
  in
  g

type cfunc = {
  cf_func : Hir.func;
  cf_blocks : k array;  (* indexed by bid *)
  cf_ret : int;  (* returned by a [Tret] block: no bid the function reaches *)
}

let missing_block (f : Hir.func) bid =
  invalid_arg (Printf.sprintf "Hir.block: no block %d in %s" bid f.Hir.f_name)

let compile_func c (fp : Blockplan.fplan) =
  let f = fp.Blockplan.fp_func in
  let targets =
    Array.fold_left
      (fun acc bp ->
         match bp with
         | Some { Blockplan.bp_term = Blockplan.Tgoto t; _ } -> t :: acc
         | Some
             { Blockplan.bp_term =
                 ( Blockplan.Tif (_, _, _, bt, be, _)
                 | Blockplan.Tcmp_if (_, _, _, _, _, _, bt, be, _) ); _ } ->
           bt :: be :: acc
         | Some _ | None -> acc)
      [ f.Hir.f_entry ] fp.Blockplan.fp_blocks
  in
  let rec free r = if List.mem r targets then free (r - 1) else r in
  let ret = free (-1) in
  let block bid = function
    | None -> fun _ -> missing_block f bid
    | Some bp when fp.Blockplan.fp_regs_ok ->
      Array.fold_right (compile_part c) bp.Blockplan.bp_parts
        (compile_term c fp ~ret bp.Blockplan.bp_term)
    | Some bp -> boxed_block fp ~ret bp
  in
  { cf_func = f; cf_blocks = Array.mapi block fp.Blockplan.fp_blocks;
    cf_ret = ret }

(* ---------------------------- execution ----------------------------- *)

(* Execute one compiled method.  Precondition: [ctx.sample_period <= 0]
   ([dispatcher] takes the reference path for profiling replays). *)
let run_func (ctx : Ctx.t) cf args =
  let f = cf.cf_func in
  let n = max f.Hir.f_nregs 1 in
  let fr =
    { ctx; mid = f.Hir.f_mid; tags = Bytes.make n t_int; ints = Array.make n 0;
      flts = Float.Array.make n 0.0; wrong_ret = false; ret = None }
  in
  List.iteri (fun i v -> set fr i v) args;
  (* Fault points: keyed and fired exactly as in [Exec.run_func], so an
     injected fault produces the same failure at the same call. *)
  (match Faults.scope_key () with
   | None -> ()
   | Some sk ->
     let key = Faults.combine sk f.Hir.f_mid in
     if Faults.fire Faults.Exec_crash ~key then begin
       Faults.record Faults.Exec_crash;
       raise (Exec.Segfault "injected executor fault")
     end;
     if Faults.fire Faults.Exec_hang ~key then begin
       Faults.record Faults.Exec_hang;
       while true do
         Ctx.charge ctx 1_000_000
       done
     end;
     fr.wrong_ret <- Faults.fire Faults.Exec_wrong_ret ~key);
  let blocks = cf.cf_blocks and ret = cf.cf_ret in
  let nb = Array.length blocks in
  let bid = ref f.Hir.f_entry in
  while !bid <> ret do
    let b = !bid in
    fire_hook fr b;
    (* a dispatch target outside the plan table reproduces [Hir.block]'s
       failure, unconverted (the reference raises it outside the
       instruction wrapper) *)
    if b >= 0 && b < nb then bid := (Array.unsafe_get blocks b) fr
    else missing_block f b
  done;
  fr.ret

type compiled = { cm_cost : Cost.model; cm_funcs : (int, cfunc) Hashtbl.t }

let dispatcher cm binary =
  fun (ctx : Ctx.t) mid args ->
    match Hashtbl.find_opt cm.cm_funcs mid with
    | Some cf ->
      if ctx.Ctx.sample_period > 0 then
        (* profiling replay: the sampler inside [Ctx.charge] must observe
           every intermediate cycle value, which the compiled charges
           skip — take the reference per-instruction path for this call *)
        (match Binary.find binary mid with
         | Some g -> Exec.run_func ctx g args
         | None -> Interp.interpret ctx mid args)
      else run_func ctx cf args
    | None -> Interp.interpret ctx mid args

type code = Reference of Binary.t | Compiled of compiled * Binary.t

let prepare ?(engine = Fused) binary =
  match engine with
  | Ref -> Reference binary
  | Fused ->
    let plan = Blockplan.build Cost.default binary in
    let c = plan.Blockplan.pl_cost in
    let cm_funcs = Hashtbl.create (Hashtbl.length plan.Blockplan.pl_funcs) in
    Hashtbl.iter
      (fun mid fp -> Hashtbl.replace cm_funcs mid (compile_func c fp))
      plan.Blockplan.pl_funcs;
    Compiled ({ cm_cost = c; cm_funcs }, binary)

let install ctx = function
  | Reference binary -> Exec.install ctx binary
  | Compiled (cm, binary) ->
    (* compiled charges are constants of the plan's cost model: replaying
       them under another model would charge the wrong cycles *)
    if not (Cost.equal cm.cm_cost ctx.Ctx.cost) then
      invalid_arg "Blockexec.install: plan built under another cost model";
    Ctx.set_dispatch ctx (dispatcher cm binary)
