(* Domain-based parallel evaluation of GA generations with two-level
   memoization.  See the interface for the determinism contract.

   Scheduling: tasks are first resolved against the genome memo on the
   calling domain, the surviving unique genomes are compiled in parallel,
   then the unique unseen binaries are verified in parallel.  Workers only
   ever run the caller-supplied [compile]/[verify] stages on disjoint
   tasks; all cache reads and writes happen on the calling domain, so no
   synchronization beyond the work-queue index is needed and results are
   reproducible by construction.

   Parallel stages run on the caller's persistent [Domainpool], so worker
   domains (and their domain-local replay templates) outlive the batch.

   The memos are [Bounded] caches with one unit of weight per entry.
   Eviction can only cause re-computation of a deterministic stage, never
   a different result, so the search-history digest is invariant under
   any budget.

   Tracing: each batch is a span on the calling domain and each worker
   wraps its work loop in a span on its own domain, so an exported trace
   shows the real parallelism (distinct tids) and per-worker busy time.
   Counts live in the pool's own Trace scope. *)

module Trace = Repro_util.Trace
module Bounded = Repro_util.Bounded

type stats = {
  batches : int;
  tasks : int;
  genome_hits : int;
  genome_misses : int;
  key_hits : int;
  compiles : int;
  verifies : int;
  evictions : int;
}

type ('bin, 'core, 'out) t = {
  cache : bool;
  pool : Domainpool.t;
  canon : Genome.t -> string;
  compile : Genome.t -> ('bin, 'core) result;
  key_of : 'bin -> string;
  verify : 'bin -> 'core;
  finish : ev_index:int -> 'core -> 'out;
  genome_cache : 'core Bounded.t;
  key_cache : 'core Bounded.t;
  metrics : Trace.scope;
}

(* Bounded for a long-lived server, but comfortably above what one search
   touches, so a default pool behaves exactly like the old unbounded one. *)
let default_memo_budget = 65536

let create ?(cache = true) ?(memo_budget = default_memo_budget) ~pool
    ~canon ~compile ~key_of ~verify ~finish () =
  if memo_budget < 1 then
    invalid_arg "Evalpool.create: memo_budget must be >= 1";
  { cache; pool; canon; compile; key_of; verify; finish;
    genome_cache = Bounded.create ~budget:memo_budget ();
    key_cache = Bounded.create ~budget:memo_budget ();
    metrics = Trace.scope () }

(* Every event is one bump of the pool's scope, which also lands in the
   process set, so [stats] and [cumulative_stats] are the same view over
   two counter sets. *)
let count t name n = Trace.add ~scope:t.metrics name n

let read ?scope () =
  let v name = Trace.counter_value ?scope name in
  { batches = v "evalpool.batches";
    tasks = v "evalpool.tasks";
    genome_hits = v "evalpool.genome_hits";
    genome_misses = v "evalpool.genome_misses";
    key_hits = v "evalpool.key_hits";
    compiles = v "evalpool.compiles";
    verifies = v "evalpool.verifies";
    evictions = v "evalpool.memo_evictions" }

let stats t = read ~scope:t.metrics ()
let cumulative_stats () = read ()

(* ------------------------------- memos ------------------------------- *)

let memo_add t tbl key core =
  let n = Bounded.add tbl key core in
  if n > 0 then count t "evalpool.memo_evictions" n

let seed_caches t ~genomes ~keys =
  if t.cache then begin
    List.iter (fun (c, core) -> memo_add t t.genome_cache c core) genomes;
    List.iter (fun (k, core) -> memo_add t t.key_cache k core) keys
  end

(* Run [f] over [arr] on every worker of the pool (the calling domain
   acts as worker 0).  Work-stealing via a shared atomic index; each
   output slot is written by exactly one domain and published by the
   pool's completion handshake. *)
let parallel_map t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let worker wid =
      Trace.span ~cat:"evalpool"
        ~args:[ ("worker", string_of_int wid) ]
        "evalpool:worker"
      @@ fun () ->
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          out.(i) <- Some (f arr.(i));
          loop ()
        end
      in
      loop ()
    in
    let failures = Array.make (Domainpool.size t.pool) None in
    Domainpool.run t.pool (fun wid ->
        try worker wid with e -> failures.(wid) <- Some e);
    Array.iter (Option.iter raise) failures;
    Array.map (function Some v -> v | None -> assert false) out
  end

let evaluate_batch t tasks =
  Trace.span ~cat:"evalpool"
    ~args:[ ("tasks", string_of_int (Array.length tasks)) ]
    "evalpool:batch"
  @@ fun () ->
  let n = Array.length tasks in
  count t "evalpool.batches" 1;
  count t "evalpool.tasks" n;
  let canons = Array.map (fun (_, g) -> t.canon g) tasks in
  let cores : 'core option array = Array.make n None in
  (* Stage 0 (calling domain): genome-memo lookups and in-batch dedup.
     [reps] holds the indices of tasks that actually need a compile; with
     the cache disabled, every task is its own representative. *)
  let seen_in_batch = Hashtbl.create 16 in
  let rep_rev = ref [] in
  Array.iteri
    (fun i (_, _) ->
       let c = canons.(i) in
       match if t.cache then Bounded.find t.genome_cache c else None with
       | Some core ->
         cores.(i) <- Some core;
         count t "evalpool.genome_hits" 1
       | None ->
         if t.cache && Hashtbl.mem seen_in_batch c then
           count t "evalpool.genome_hits" 1
         else begin
           if t.cache then Hashtbl.add seen_in_batch c ();
           rep_rev := i :: !rep_rev;
           count t "evalpool.genome_misses" 1
         end)
    tasks;
  let reps = Array.of_list (List.rev !rep_rev) in
  let nrep = Array.length reps in
  (* Stage A (parallel): compile the representative genomes. *)
  let compiled = parallel_map t (fun i -> t.compile (snd tasks.(i))) reps in
  count t "evalpool.compiles" nrep;
  let rep_core : 'core option array = Array.make nrep None in
  let rep_bin : ('bin * string) option array = Array.make nrep None in
  Array.iteri
    (fun k result ->
       match result with
       | Error core -> rep_core.(k) <- Some core
       | Ok bin -> rep_bin.(k) <- Some (bin, t.key_of bin))
    compiled;
  (* Stage B plan (calling domain): resolve binaries against the key memo
     and pick one representative per unseen key. *)
  let key_owner = Hashtbl.create 16 in
  let verify_rev = ref [] in
  Array.iteri
    (fun k bin ->
       match bin with
       | None -> ()
       | Some (_, key) ->
         (match if t.cache then Bounded.find t.key_cache key else None with
          | Some core ->
            rep_core.(k) <- Some core;
            count t "evalpool.key_hits" 1
          | None ->
            if t.cache && Hashtbl.mem key_owner key then
              count t "evalpool.key_hits" 1
            else begin
              if t.cache then Hashtbl.add key_owner key k;
              verify_rev := k :: !verify_rev
            end))
    rep_bin;
  let vreps = Array.of_list (List.rev !verify_rev) in
  (* Stage B (parallel): verified replay of the unique new binaries. *)
  let verified =
    parallel_map t
      (fun k ->
         match rep_bin.(k) with
         | Some (bin, _) -> t.verify bin
         | None -> assert false)
      vreps
  in
  count t "evalpool.verifies" (Array.length vreps);
  Array.iteri (fun j k -> rep_core.(k) <- Some verified.(j)) vreps;
  (* Fill same-key siblings and the key memo. *)
  Array.iteri
    (fun k bin ->
       match bin, rep_core.(k) with
       | Some (_, key), None ->
         (match Hashtbl.find_opt key_owner key with
          | Some owner -> rep_core.(k) <- rep_core.(owner)
          | None -> assert false)
       | _, _ -> ())
    rep_bin;
  if t.cache then
    Array.iteri
      (fun k bin ->
         match bin, rep_core.(k) with
         | Some (_, key), Some core -> memo_add t t.key_cache key core
         | _, _ -> ())
      rep_bin;
  (* Publish representative results into an in-batch table first (and the
     genome memo when caching): duplicates later in the batch must resolve
     even if the memo evicts a representative before they are filled. *)
  let batch_results = Hashtbl.create 16 in
  Array.iteri
    (fun k i ->
       let core =
         match rep_core.(k) with Some c -> c | None -> assert false
       in
       cores.(i) <- Some core;
       Hashtbl.replace batch_results canons.(i) core;
       if t.cache then memo_add t t.genome_cache canons.(i) core)
    reps;
  Array.mapi
    (fun i (ev_index, _) ->
       let core =
         match cores.(i) with
         | Some c -> c
         | None ->
           (* duplicate of an earlier representative in this batch *)
           Hashtbl.find batch_results canons.(i)
       in
       t.finish ~ev_index core)
    tasks

let print_stats ?(label = "evalpool") s =
  Printf.printf
    "%s: %d evaluations in %d batches | genome cache %d hits / %d misses | \
     binary-key reuse %d | %d compiles, %d verified replays | %d memo \
     evictions\n"
    label s.tasks s.batches s.genome_hits s.genome_misses s.key_hits
    s.compiles s.verifies s.evictions
