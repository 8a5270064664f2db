module Hir = Repro_hgraph.Hir

type t = {
  funcs : (int, Hir.func) Hashtbl.t;
  mutable size : int;
  mutable dig : string option;
}

let find t mid = Hashtbl.find_opt t.funcs mid
let mids t =
  Hashtbl.fold (fun mid _ acc -> mid :: acc) t.funcs []
  |> List.sort Int.compare

(* Content digest over the printed graphs in ascending-mid order — the memo
   key Evalpool uses to deduplicate identical binaries.  Absent methods contribute an empty part so the digest
   stays byte-compatible with the historical [Pipeline.binary_key]. *)
let compute_digest t =
  let parts =
    List.map
      (fun mid ->
         match find t mid with
         | Some f -> Hir.to_string f
         | None -> "")
      (mids t)
  in
  Digest.to_hex (Digest.string (String.concat "\n" parts))

let digest t =
  match t.dig with
  | Some d -> d
  | None ->
    let d = compute_digest t in
    t.dig <- Some d;
    d

let create fs =
  let funcs = Hashtbl.create 16 in
  List.iter
    (fun f ->
       (* Precompute the register-pressure cache while the binary is still
          private to the building domain: executor reads of [f_pressure]
          from concurrent Evalpool workers must never race a lazy fill. *)
       if f.Hir.f_pressure = None then
         f.Hir.f_pressure <- Some (Repro_hgraph.Analysis.pressure f);
       Hashtbl.replace funcs f.Hir.f_mid f)
    fs;
  let t =
    { funcs; size = List.fold_left (fun acc f -> acc + Hir.size f) 0 fs;
      dig = None }
  in
  (* Same single-domain discipline as [f_pressure]: fill the digest before
     the binary can cross domains, so concurrent [digest] reads never race
     a lazy fill.  The cost is already paid today — every candidate's memo
     key performs exactly this walk. *)
  t.dig <- Some (compute_digest t);
  t

let recompute_size t =
  t.size <- Hashtbl.fold (fun _ f acc -> acc + Hir.size f) t.funcs 0;
  (* the function table changed (overlay): the cached digest is stale *)
  t.dig <- None
