module Cfg = Repro_util.Cfg
module ISet = Set.Make (Int)

let defs_of_block (b : Hir.block) =
  List.fold_left
    (fun acc i ->
       match Hir.def_of i with Some d -> ISet.add d acc | None -> acc)
    ISet.empty b.Hir.insns

(* Upward-exposed uses: used before any local (re)definition. *)
let uses_of_block (b : Hir.block) =
  let rec walk defined acc = function
    | [] ->
      List.fold_left
        (fun acc u -> if ISet.mem u defined then acc else ISet.add u acc)
        acc (Hir.uses_of_term b.Hir.term)
    | i :: rest ->
      let acc =
        List.fold_left
          (fun acc u -> if ISet.mem u defined then acc else ISet.add u acc)
          acc (Hir.uses_of i)
      in
      let defined =
        match Hir.def_of i with Some d -> ISet.add d defined | None -> defined
      in
      walk defined acc rest
  in
  walk ISet.empty ISet.empty b.Hir.insns

let liveness (f : Hir.func) (g : Cfg.t) =
  let live_out : (int, ISet.t) Hashtbl.t = Hashtbl.create 16 in
  let live_in : (int, ISet.t) Hashtbl.t = Hashtbl.create 16 in
  let get tbl bid = Option.value ~default:ISet.empty (Hashtbl.find_opt tbl bid) in
  let nodes = Cfg.nodes g in
  let uses = Hashtbl.create 16 and defs = Hashtbl.create 16 in
  List.iter
    (fun bid ->
       let b = Hir.block f bid in
       Hashtbl.replace uses bid (uses_of_block b);
       Hashtbl.replace defs bid (defs_of_block b))
    nodes;
  let changed = ref true in
  while !changed do
    changed := false;
    (* reverse RPO converges quickly for backward problems *)
    List.iter
      (fun bid ->
         let out =
           List.fold_left
             (fun acc s -> ISet.union acc (get live_in s))
             ISet.empty (Cfg.succs g bid)
         in
         let inn =
           ISet.union (Hashtbl.find uses bid) (ISet.diff out (Hashtbl.find defs bid))
         in
         if not (ISet.equal out (get live_out bid)) then begin
           Hashtbl.replace live_out bid out;
           changed := true
         end;
         if not (ISet.equal inn (get live_in bid)) then begin
           Hashtbl.replace live_in bid inn;
           changed := true
         end)
      (List.rev nodes)
  done;
  live_out

let live_before live_out insns term =
  (* walk backwards accumulating, then reverse *)
  let after_term =
    List.fold_left (fun acc u -> ISet.add u acc) live_out (Hir.uses_of_term term)
  in
  let rec back acc live = function
    | [] -> acc
    | i :: rest ->
      let live =
        match Hir.def_of i with Some d -> ISet.remove d live | None -> live
      in
      let live = List.fold_left (fun s u -> ISet.add u s) live (Hir.uses_of i) in
      back (live :: acc) live rest
  in
  back [] after_term (List.rev insns)

let def_count (f : Hir.func) =
  let counts = Hashtbl.create 32 in
  Hir.iter_blocks f (fun _ b ->
      List.iter
        (fun i ->
           match Hir.def_of i with
           | Some d ->
             Hashtbl.replace counts d
               (1 + Option.value ~default:0 (Hashtbl.find_opt counts d))
           | None -> ())
        b.Hir.insns);
  counts

(* Register pressure: the largest live-out set across the function's
   blocks.  Pure — callers decide whether to cache it in
   [Hir.f_pressure]; mutating that cache from worker domains is a data
   race, so [Repro_lir.Binary.create] precomputes it once per binary. *)
let pressure (f : Hir.func) =
  let g = Hir.cfg f in
  let live_out = liveness f g in
  Hashtbl.fold (fun _ live acc -> max acc (ISet.cardinal live)) live_out 0
