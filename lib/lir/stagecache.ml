(* Process-global, domain-safe LRU cache of per-(method, pass-prefix) IR
   states, held in one [Bounded] table under a byte budget.  See
   stagecache.mli for the contract; compile.ml is the only writer/reader
   on the hot path. *)

module Hir = Repro_hgraph.Hir
module Trace = Repro_util.Trace
module Bounded = Repro_util.Bounded

type entry = {
  sc_func : Hir.func;
  sc_charges : int array;
}

type stats = {
  prefix_hits : int;
  prefix_misses : int;
  binary_hits : int;
  binary_misses : int;
  genes_reused : int;
  genes_run : int;
  longest_prefix : int;
  inserts : int;
  evictions : int;
  entries : int;
  bytes_held : int;
  frontend_funcs : int;
}

(* Everything below the mutex: the bounded table and the longest reused
   prefix.  A single lock is fine — each operation is O(prefix length) at
   worst and the per-operation work it guards is tiny next to running a
   pass.  Counts live in the cache's own Trace scope. *)
let lock = Mutex.create ()

(* Rough resident-size estimate for one cached IR state: the block table,
   per-instruction boxes and the charge array.  Only relative accuracy
   matters — the budget bounds growth, it is not an allocator.  The last
   recorded charge is exactly [Hir.size] of the cached function (the
   compiler charges the post-pass size), so no O(size) walk is needed. *)
let slot_bytes entry =
  let n = Array.length entry.sc_charges in
  let ir_size = if n = 0 then Hir.size entry.sc_func else entry.sc_charges.(n - 1) in
  256 + (112 * ir_size) + (8 * n)

let table : entry Bounded.t =
  Bounded.create ~weight:slot_bytes ~budget:(256 * 1024 * 1024) ()

let metrics = Trace.scope ()
let count name n = Trace.add ~scope:metrics name n

(* a maximum, not a count, so not a counter *)
let longest = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let capacity_bytes () = locked (fun () -> Bounded.budget table)

let key ~frontend ~mid fp = Printf.sprintf "%s|%d|%s" frontend mid fp

let note_evictions n = if n > 0 then count "stagecache.evictions" n

let set_capacity_bytes n =
  locked (fun () -> note_evictions (Bounded.set_budget table (max 0 n)))

let fingerprints ~frontend spec =
  let acc = ref frontend in
  Array.of_list
    (List.map
       (fun (name, args) ->
          acc := Digest.to_hex
              (Digest.string (!acc ^ "/" ^ Passes.canon_token name args));
          !acc)
       spec)

let lookup ~frontend ~mid ~fps =
  locked (fun () ->
      let rec probe k =
        if k = 0 then None
        else
          match Bounded.find table (key ~frontend ~mid fps.(k - 1)) with
          | Some e -> Some (k, e)
          | None -> probe (k - 1)
      in
      match probe (Array.length fps) with
      | Some (k, e) ->
        if k > !longest then longest := k;
        count "stagecache.prefix_hits" 1;
        count "stagecache.genes_reused" k;
        Some (k, e)
      | None ->
        count "stagecache.prefix_misses" 1;
        None)

let insert ~frontend ~mid ~fp entry =
  locked (fun () ->
      let k = key ~frontend ~mid fp in
      if not (Bounded.mem table k) then begin
        count "stagecache.inserts" 1;
        note_evictions (Bounded.add table k entry)
      end)

let note_compile ~hit =
  count
    (if hit then "stagecache.binary_hits" else "stagecache.binary_misses") 1

let note_gene_run () = count "stagecache.genes_run" 1

let note_frontend_func () = count "stagecache.frontend_funcs" 1

let stats () =
  let v name = Trace.counter_value ~scope:metrics name in
  locked (fun () ->
      { prefix_hits = v "stagecache.prefix_hits";
        prefix_misses = v "stagecache.prefix_misses";
        binary_hits = v "stagecache.binary_hits";
        binary_misses = v "stagecache.binary_misses";
        genes_reused = v "stagecache.genes_reused";
        genes_run = v "stagecache.genes_run";
        longest_prefix = !longest;
        inserts = v "stagecache.inserts";
        evictions = Bounded.evictions table;
        entries = Bounded.length table;
        bytes_held = Bounded.weight table;
        frontend_funcs = v "stagecache.frontend_funcs" })

let reset () =
  locked (fun () ->
      Bounded.clear table;
      Trace.reset_scope metrics;
      longest := 0)

let print_stats ?(label = "stage cache") s =
  let total = s.prefix_hits + s.prefix_misses in
  let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
  Printf.printf
    "%s: %d/%d prefix hits (%.0f%%), %d/%d whole compiles from cache, \
     %d/%d genes reused (%.0f%%), longest reused prefix %d\n"
    label s.prefix_hits total
    (pct s.prefix_hits total)
    s.binary_hits
    (s.binary_hits + s.binary_misses)
    s.genes_reused
    (s.genes_reused + s.genes_run)
    (pct s.genes_reused (s.genes_reused + s.genes_run))
    s.longest_prefix;
  Printf.printf
    "  %d entries holding %.2f MB (%d inserts, %d evictions); %d front-end \
     templates built\n"
    s.entries
    (float_of_int s.bytes_held /. 1048576.)
    s.inserts s.evictions s.frontend_funcs
