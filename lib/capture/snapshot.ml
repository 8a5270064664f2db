module Mem = Repro_os.Mem
module Storage = Repro_os.Storage
module Trace = Repro_util.Trace
module Bounded = Repro_util.Bounded

type page_image = { pg_index : int; pg_data : int64 array }

type t = {
  snap_id : string;
  snap_app : string;
  snap_mid : int;
  snap_args : Repro_vm.Value.t list;
  snap_maps : Mem.mapping list;
  snap_pages : page_image list;
  snap_common : page_image list;
  snap_code_files : (string * int) list;
  snap_heap_next : int;
  snap_alloc_since_gc : int;
  snap_store : Storage.t option;
}

let program_bytes t = List.length t.snap_pages * Mem.page_size
let common_bytes t = List.length t.snap_common * Mem.page_size

let program_label t = t.snap_id ^ "/capture"
let common_label t = t.snap_app ^ "/boot-common"

let page_list images =
  List.map (fun { pg_index; pg_data } -> (pg_index, pg_data)) images

let store storage t =
  (* enqueue only; the idle-priority spooler (Storage.drain between GA
     evaluation batches) does the hashing.  Boot-common pages get their own
     per-app blob: identical runtime pages dedup to shared frames in the
     content-addressed store, which is exactly the Figure 11 sharing. *)
  Storage.write storage ~label:(program_label t) ~pages:(page_list t.snap_pages);
  Storage.write storage ~label:(common_label t) ~pages:(page_list t.snap_common);
  { t with snap_store = Some storage }

let discard storage t = Storage.delete storage ~label:(program_label t)

(* ------------------------- snapshot templates ------------------------ *)

(* One immutable address-space template per (domain, snapshot): mappings
   recreated and every captured page installed once, after which each
   replay takes an O(page-table) [Mem.clone] instead of re-copying every
   page.  The cache is domain-local so template frames (plain-int
   refcounts) are never shared across domains — each Domainpool worker
   builds its own template, amortized over every batch the pool runs.

   The cache holds up to 12 templates, keyed by snapshot id, rather than
   a single entry: corpus verification cycles through K snapshots per
   candidate, and a one-entry cache would rebuild every template K times
   per evaluation — O(snapshot), not O(dirty pages).  The budget bounds
   the per-domain footprint (a template pins every captured page of its
   snapshot). *)
let templates : Mem.t Bounded.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bounded.create ~budget:12 ())

let invalidate_templates () = Bounded.clear (Domain.DLS.get templates)

(* page images for the template: from the snapshot's store when its blobs
   are in it (checksum-validated read; failures raise [Storage.Integrity],
   which the replay loader converts into a crashed replay for the
   quarantine policy), else the in-memory lists *)
let template_pages snap =
  match snap.snap_store with
  | Some storage when Storage.contains storage ~label:(program_label snap) ->
    Trace.incr "storage.template_reads";
    let fetch label =
      match Storage.read storage ~label with
      | Ok pages -> pages
      | Error e -> raise (Storage.Integrity e)
    in
    fetch (common_label snap) @ fetch (program_label snap)
  | _ -> page_list snap.snap_common @ page_list snap.snap_pages

let build_template snap =
  Trace.span ~cat:"replay" ~args:[ ("app", snap.snap_app) ]
    "snapshot:build_template"
  @@ fun () ->
  Trace.incr "replay.template_builds";
  let pages = template_pages snap in
  let mem = Mem.create () in
  List.iter
    (fun m ->
       Mem.map mem ~base:m.Mem.map_base ~npages:m.Mem.map_npages
         ~kind:m.Mem.map_kind ~name:m.Mem.map_name)
    snap.snap_maps;
  List.iter (fun (page, data) -> Mem.install_page mem ~page data) pages;
  mem

let template snap =
  let cache = Domain.DLS.get templates in
  match Bounded.find cache snap.snap_id with
  | Some mem -> mem
  | None ->
    let mem = build_template snap in
    ignore (Bounded.add cache snap.snap_id mem);
    mem

let cached_template snap = Bounded.find (Domain.DLS.get templates) snap.snap_id
