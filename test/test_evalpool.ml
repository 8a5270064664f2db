(* Tests for the parallel memoized evaluation engine (Evalpool) and its
   determinism contract: for a fixed seed, the GA's full evaluation history
   is byte-identical whatever the worker count and whether or not the
   genome/binary memos are enabled.  This is what lets `-j N` and caching
   be user-transparent accelerators rather than semantics changes. *)

module Ga = Repro_search.Ga
module Genome = Repro_search.Genome
module Evalpool = Repro_search.Evalpool
module Domainpool = Repro_search.Domainpool
module Pipeline = Repro_core.Pipeline
module App = Repro_apps.Registry
module Blockexec = Repro_lir.Blockexec
module Stagecache = Repro_lir.Stagecache
module Trace = Repro_util.Trace

(* ----------------------- end-to-end determinism --------------------- *)

let tiny_cfg =
  { Ga.quick_config with population = 8; generations = 4; max_identical = 30 }

(* everything observable about a finished search *)
let fingerprint (o : Pipeline.optimized) =
  (o.Pipeline.ga.Ga.best,
   o.Pipeline.ga.Ga.history,
   o.Pipeline.ga.Ga.evaluations,
   o.Pipeline.ga.Ga.halted_early,
   o.Pipeline.best_genome)

let test_search_determinism app_name seed () =
  let app = Option.get (App.find app_name) in
  let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
  let run ~jobs ~cache =
    fingerprint (Pipeline.optimize ~seed ~cfg:tiny_cfg ~jobs ~cache app cap)
  in
  let reference = run ~jobs:1 ~cache:true in
  Alcotest.(check bool) "-j 4 identical to -j 1" true
    (run ~jobs:4 ~cache:true = reference);
  Alcotest.(check bool) "--no-cache identical to cached" true
    (run ~jobs:1 ~cache:false = reference);
  Alcotest.(check bool) "-j 4 --no-cache identical too" true
    (run ~jobs:4 ~cache:false = reference)

(* ------------------- engine transparency of the search ---------------- *)

(* The replay engine is one more user-transparent accelerator: a full FFT
   search under the block-fused executor is byte-identical to the reference
   interpretation, whatever the worker count and memo setting.  Any fusion
   or check-hoisting bug that perturbed a single cycle anywhere in the
   search would show up here as a diverging history. *)
let test_engine_determinism () =
  let app = Option.get (App.find "FFT") in
  let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
  let run ~engine ~jobs ~cache =
    fingerprint
      (Pipeline.optimize ~seed:3 ~cfg:tiny_cfg ~jobs ~cache ~engine app cap)
  in
  let reference = run ~engine:Blockexec.Ref ~jobs:1 ~cache:true in
  List.iter
    (fun (jobs, cache) ->
       Alcotest.(check bool)
         (Printf.sprintf "fused -j%d cache=%b = ref" jobs cache)
         true
         (run ~engine:Blockexec.Fused ~jobs ~cache = reference))
    [ (1, true); (4, true); (1, false); (4, false) ]

(* A plan lives for one verification: [verify_core] prepares the binary
   once and replays it for the primary capture and every corpus entry, as
   do the two baseline replays of the environment.  So each verified
   replay (passed or rejected) is either the first of its verification —
   which built a plan — or a corpus check, and a regression that planned
   per corpus replay would break the sum.  Counters always count, so the
   deltas need no tracing. *)
let test_one_plan_per_verification () =
  let app = Option.get (App.find "FFT") in
  let co = Option.get (Pipeline.capture_corpus ~seed:5 ~k:3 app) in
  Alcotest.(check bool) "the corpus has secondary inputs" true
    (co.Pipeline.co_entries <> []);
  let names =
    [ "blockexec.plan_builds"; "verify.corpus_checks"; "verify.passed";
      "verify.rejected" ]
  in
  let before = List.map Trace.counter_value names in
  let o =
    Pipeline.optimize ~seed:3 ~cfg:tiny_cfg ~jobs:2 ~cache:true
      ~engine:Blockexec.Fused ~corpus:co.Pipeline.co_entries app
      co.Pipeline.co_primary
  in
  match List.map2 (fun n b -> Trace.counter_value n - b) names before with
  | [ builds; corpus_checks; passed; rejected ] ->
    Alcotest.(check bool) "corpus replays ran" true (corpus_checks > 0);
    Alcotest.(check int) "builds + corpus checks = verified replays"
      (passed + rejected) (builds + corpus_checks);
    (* the pool's verifies plus the android and -O3 baselines *)
    Alcotest.(check int) "one build per verification"
      (o.Pipeline.pool_stats.Evalpool.verifies + 2) builds
  | _ -> assert false

(* The engine and the stage cache are per-run knobs: two corpus searches
   stepped in alternation in one process, on one shared pool, one on the
   reference engine without the stage cache and one with the defaults,
   reach the same digest — and the keyless session never touches the
   stage cache, not even while the other session fills it. *)
let test_per_run_knobs_interleaved () =
  let app = Option.get (App.find "FFT") in
  let co = Option.get (Pipeline.capture_corpus ~seed:5 ~k:3 app) in
  Domainpool.with_pool ~workers:2 @@ fun pool ->
  let start ?engine ?stage_cache () =
    Pipeline.start_search ~seed:3 ~cfg:tiny_cfg ~pool ?engine ?stage_cache
      ~corpus:co.Pipeline.co_entries app co.Pipeline.co_primary
  in
  let untouched what f =
    let before = Stagecache.stats () in
    let r = f () in
    Alcotest.(check bool) (what ^ " leaves the stage cache untouched") true
      (Stagecache.stats () = before);
    r
  in
  let keyless =
    untouched "starting the keyless session" (fun () ->
        start ~engine:Blockexec.Ref ~stage_cache:false ())
  in
  let default = start () in
  let cache_before = Stagecache.stats () in
  let rec alternate a b =
    match a, b with
    | Some r1, Some r2 -> (r1, r2)
    | _ ->
      let step s = function
        | Some r -> Some r
        | None ->
          (match Pipeline.search_step s with
           | `Finished r -> Some r
           | `Live | `Replayed -> None)
      in
      let a = untouched "a keyless step" (fun () -> step keyless a) in
      alternate a (step default b)
  in
  let r_keyless, r_default = alternate None None in
  Alcotest.(check bool) "the default session used the stage cache" true
    (Stagecache.stats () <> cache_before);
  Alcotest.(check string) "same digest across engine and stage cache"
    (Pipeline.search_digest r_default) (Pipeline.search_digest r_keyless)

(* ----------------------- synthetic pool fixtures --------------------- *)

(* Synthetic stages over toy "binaries" (the genome itself): compile and
   verify count their invocations so the memo behaviour is observable. *)
let counting_pool ?(cache = true) ?memo_budget ?key_of () =
  let compiles = ref 0 and verifies = ref 0 in
  let key = match key_of with Some k -> k | None -> Genome.to_string in
  let pool =
    Evalpool.create ~pool:(Domainpool.create ~workers:1) ~cache ?memo_budget
      ~canon:Genome.to_string
      ~compile:(fun g -> incr compiles; Ok g)
      ~key_of:key
      ~verify:(fun g -> incr verifies; String.length (Genome.to_string g))
      ~finish:(fun ~ev_index core -> (ev_index, core))
      ()
  in
  (pool, compiles, verifies)

let gene p = { Genome.g_pass = p; g_params = [| 0 |] }
let ga = [ gene "alpha" ]
let gb = [ gene "beta"; gene "gamma" ]

let test_genome_memo_accounting () =
  let pool, compiles, verifies = counting_pool () in
  let out = Evalpool.evaluate_batch pool [| (1, ga); (2, ga); (3, gb) |] in
  Alcotest.(check int) "aligned ev_index 1" 1 (fst out.(0));
  Alcotest.(check bool) "duplicate genome, same core" true
    (snd out.(0) = snd out.(1));
  Alcotest.(check int) "two unique compiles" 2 !compiles;
  Alcotest.(check int) "two unique verifies" 2 !verifies;
  (* a later batch is served entirely from the memo *)
  let again = Evalpool.evaluate_batch pool [| (9, ga) |] in
  Alcotest.(check int) "cache hit keeps ev_index" 9 (fst again.(0));
  Alcotest.(check int) "no new compile" 2 !compiles;
  let s = Evalpool.stats pool in
  Alcotest.(check int) "tasks" 4 s.Evalpool.tasks;
  Alcotest.(check int) "batches" 2 s.Evalpool.batches;
  Alcotest.(check int) "genome hits" 2 s.Evalpool.genome_hits;
  Alcotest.(check int) "genome misses" 2 s.Evalpool.genome_misses

let test_key_memo_reuses_verification () =
  (* two distinct genomes compiling to the same binary key: both compile,
     only one verified replay runs (the identical-binaries case) *)
  let pool, compiles, verifies =
    counting_pool ~key_of:(fun _ -> "same-binary") ()
  in
  let out = Evalpool.evaluate_batch pool [| (1, ga); (2, gb) |] in
  Alcotest.(check int) "both compiled" 2 !compiles;
  Alcotest.(check int) "verified once" 1 !verifies;
  Alcotest.(check bool) "sibling gets the owner's core" true
    (snd out.(0) = snd out.(1));
  Alcotest.(check int) "key reuse counted" 1
    (Evalpool.stats pool).Evalpool.key_hits

let test_cache_disabled_is_honest () =
  let pool, compiles, verifies = counting_pool ~cache:false () in
  let out = Evalpool.evaluate_batch pool [| (1, ga); (2, ga); (3, gb) |] in
  Alcotest.(check int) "every task compiled" 3 !compiles;
  Alcotest.(check int) "every task verified" 3 !verifies;
  Alcotest.(check bool) "results still agree" true
    (snd out.(0) = snd out.(1));
  let s = Evalpool.stats pool in
  Alcotest.(check int) "no hits without cache" 0
    (s.Evalpool.genome_hits + s.Evalpool.key_hits)

(* --------------------- bounded (LRU) memo budget ---------------------- *)

let genome_of_int i = [ { Genome.g_pass = "p" ^ string_of_int i;
                          g_params = [| i |] } ]

let test_memo_budget_bounds_and_evicts () =
  let pool, compiles, _ = counting_pool ~memo_budget:2 () in
  (* three distinct genomes through a 2-entry budget: someone is evicted *)
  let batch =
    Array.init 3 (fun i -> (i + 1, genome_of_int i))
  in
  ignore (Evalpool.evaluate_batch pool batch);
  Alcotest.(check int) "three unique compiles" 3 !compiles;
  Alcotest.(check bool) "evictions happened" true
    ((Evalpool.stats pool).Evalpool.evictions > 0);
  (* the victim was the least-recently-used entry (genome 0): asking for
     it again recompiles, while the freshest entry is still memoized *)
  ignore (Evalpool.evaluate_batch pool [| (10, genome_of_int 2) |]);
  Alcotest.(check int) "fresh entry still cached" 3 !compiles;
  ignore (Evalpool.evaluate_batch pool [| (11, genome_of_int 0) |]);
  Alcotest.(check int) "evicted entry recompiles" 4 !compiles

(* Eviction must never change what the search *sees* — an LRU-bounded
   memo is a cache, not a semantics change.  A full FFT search under an
   absurdly small budget (constant evictions) must be byte-identical to
   the unbounded reference. *)
let test_memo_budget_digest_invariant () =
  let app = Option.get (App.find "FFT") in
  let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
  let reference =
    fingerprint (Pipeline.optimize ~seed:3 ~cfg:tiny_cfg app cap)
  in
  let bounded =
    Pipeline.optimize ~seed:3 ~cfg:tiny_cfg ~memo_budget:4 app cap
  in
  Alcotest.(check bool) "tiny budget, identical search" true
    (fingerprint bounded = reference);
  Alcotest.(check bool) "and the budget really bit" true
    (bounded.Pipeline.pool_stats.Evalpool.evictions > 0)

let test_parallel_matches_sequential () =
  (* pure stages, so domains can run them without shared state *)
  let make pool =
    Evalpool.create ~pool ~cache:false ~canon:Genome.to_string
      ~compile:(fun g ->
          if List.length g mod 7 = 3 then Error (-1)
          else Ok g)
      ~key_of:Genome.to_string
      ~verify:(fun g -> Hashtbl.hash (Genome.to_string g))
      ~finish:(fun ~ev_index core -> (ev_index, core))
      ()
  in
  let rng = Repro_util.Rng.create 42 in
  let tasks =
    Array.init 40 (fun i -> (i + 1, Genome.random rng))
  in
  let batch jobs =
    Domainpool.with_pool ~workers:jobs @@ fun pool ->
    Evalpool.evaluate_batch (make pool) tasks
  in
  let seq = batch 1 in
  let par = batch 4 in
  Alcotest.(check bool) "4 domains, same outputs" true (seq = par);
  Alcotest.(check int) "aligned with input" 40 (fst seq.(39))

let test_worker_errors_propagate () =
  Domainpool.with_pool ~workers:2 @@ fun workers ->
  let pool =
    Evalpool.create ~pool:workers ~cache:false ~canon:Genome.to_string
      ~compile:(fun _ -> failwith "compile stage exploded")
      ~key_of:Genome.to_string
      ~verify:(fun g -> String.length (Genome.to_string g))
      ~finish:(fun ~ev_index core -> (ev_index, core))
      ()
  in
  Alcotest.check_raises "stage failure surfaces"
    (Failure "compile stage exploded")
    (fun () -> ignore (Evalpool.evaluate_batch pool [| (1, ga); (2, gb) |]))

(* ---------------------------- Domainpool ----------------------------- *)

let test_pool_runs_each_worker_once () =
  Domainpool.with_pool ~workers:3 @@ fun pool ->
  let runs = Array.init 3 (fun _ -> Atomic.make 0) in
  for _ = 1 to 5 do
    Domainpool.run pool (fun wid -> Atomic.incr runs.(wid))
  done;
  Alcotest.(check (list int)) "five runs, once per worker each" [ 5; 5; 5 ]
    (Array.to_list (Array.map Atomic.get runs))

let test_pool_caller_exn_waits_for_workers () =
  Domainpool.with_pool ~workers:3 @@ fun pool ->
  let finished = Atomic.make 0 in
  Alcotest.check_raises "caller's exception re-raised" Exit (fun () ->
      Domainpool.run pool (fun wid ->
          if wid = 0 then raise Exit;
          Unix.sleepf 0.05;
          Atomic.incr finished));
  Alcotest.(check int) "every pool worker had finished" 2
    (Atomic.get finished)

let test_pool_survives_worker_exn () =
  Domainpool.with_pool ~workers:2 @@ fun pool ->
  Domainpool.run pool (fun wid -> if wid = 1 then failwith "worker died");
  let ran = Atomic.make 0 in
  Domainpool.run pool (fun _ -> Atomic.incr ran);
  Alcotest.(check int) "next run reaches every worker" 2 (Atomic.get ran)

let test_pool_rejects_nested_run () =
  List.iter
    (fun workers ->
       Domainpool.with_pool ~workers @@ fun pool ->
       let nested = ref None in
       Domainpool.run pool (fun wid ->
           if wid = 0 then
             nested :=
               Some
                 (match Domainpool.run pool ignore with
                  | () -> "ran"
                  | exception Invalid_argument _ -> "Invalid_argument"));
       Alcotest.(check (option string))
         (Printf.sprintf "nested run on a %d-worker pool" workers)
         (Some "Invalid_argument") !nested)
    [ 1; 2 ]

let test_pool_shutdown_idempotent () =
  let pool = Domainpool.create ~workers:3 in
  Domainpool.shutdown pool;
  Domainpool.shutdown pool;
  Alcotest.(check int) "size survives shutdown" 3 (Domainpool.size pool)

let test_pool_size1_runs_inline () =
  Domainpool.with_pool ~workers:1 @@ fun pool ->
  let caller = Domain.self () in
  let seen = ref None in
  Domainpool.run pool (fun wid -> seen := Some (wid, Domain.self () = caller));
  Alcotest.(check (option (pair int bool))) "worker 0 is the calling domain"
    (Some (0, true)) !seen

(* Worker domains live as long as the search, so each one builds a
   snapshot's replay template once: at most one build per snapshot on the
   calling domain and one on the pool's second domain, however many
   batches the search runs. *)
let test_templates_survive_batches () =
  let app = Option.get (App.find "FFT") in
  Trace.enable ();
  Trace.reset ();
  Fun.protect ~finally:(fun () -> Trace.reset (); Trace.disable ())
  @@ fun () ->
  let co = Option.get (Pipeline.capture_corpus ~seed:5 ~k:3 app) in
  let snapshots = 1 + List.length co.Pipeline.co_entries in
  let o =
    Pipeline.optimize ~seed:18 ~jobs:2 ~corpus:co.Pipeline.co_entries app
      co.Pipeline.co_primary
  in
  Alcotest.(check bool) "several batches ran" true
    (o.Pipeline.pool_stats.Evalpool.batches > 2);
  let builds = Trace.counter_value "replay.template_builds" in
  Alcotest.(check bool)
    (Printf.sprintf "%d template builds <= 2 x %d snapshots" builds snapshots)
    true
    (builds <= 2 * snapshots)

(* A session that owns its pool must release the pool's domains when the
   search dies: 64 aborted -j3 sessions would otherwise hold 128 domains,
   past the runtime's limit. *)
let test_aborted_sessions_release_domains () =
  let app = Option.get (App.find "FFT") in
  let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
  for i = 1 to 64 do
    let s =
      Pipeline.start_search ~seed:3 ~cfg:tiny_cfg ~jobs:3 ~abort_after:1 app
        cap
    in
    match Pipeline.search_step s with
    | _ -> Alcotest.failf "session %d was not aborted" i
    | exception Repro_core.Checkpoint.Injected_abort -> ()
  done

(* ------------------------ stats are registry views ------------------- *)

(* Each pool counts in its own Trace scope and every bump also lands in the
   process set, so two pools keep separate stats and the cumulative view
   is exactly their sum. *)
let test_pools_keep_separate_stats () =
  Trace.reset ();
  let a, _, _ = counting_pool () in
  let b, _, _ = counting_pool ~memo_budget:1 () in
  ignore (Evalpool.evaluate_batch a [| (1, ga); (2, ga); (3, gb) |]);
  ignore (Evalpool.evaluate_batch b [| (1, gb) |]);
  ignore (Evalpool.evaluate_batch b [| (2, ga) |]);
  let sa = Evalpool.stats a and sb = Evalpool.stats b in
  Alcotest.(check (pair int int)) "tasks per pool" (3, 2)
    (sa.Evalpool.tasks, sb.Evalpool.tasks);
  Alcotest.(check (pair int int)) "batches per pool" (1, 2)
    (sa.Evalpool.batches, sb.Evalpool.batches);
  Alcotest.(check (pair int int)) "genome hits per pool" (1, 0)
    (sa.Evalpool.genome_hits, sb.Evalpool.genome_hits);
  Alcotest.(check (pair int int)) "evictions per pool" (0, 2)
    (sa.Evalpool.evictions, sb.Evalpool.evictions);
  let sum f = f sa + f sb in
  let c = Evalpool.cumulative_stats () in
  Alcotest.(check bool) "cumulative = a + b" true
    (c
     = { Evalpool.batches = sum (fun s -> s.Evalpool.batches);
         tasks = sum (fun s -> s.Evalpool.tasks);
         genome_hits = sum (fun s -> s.Evalpool.genome_hits);
         genome_misses = sum (fun s -> s.Evalpool.genome_misses);
         key_hits = sum (fun s -> s.Evalpool.key_hits);
         compiles = sum (fun s -> s.Evalpool.compiles);
         verifies = sum (fun s -> s.Evalpool.verifies);
         evictions = sum (fun s -> s.Evalpool.evictions) })

(* Counters always count, so a search reports the same pool stats whether
   or not it was traced. *)
let test_stats_independent_of_tracing () =
  let app = Option.get (App.find "FFT") in
  let cap = Option.get (Pipeline.capture_once ~seed:5 app) in
  let run () =
    let o = Pipeline.optimize ~seed:3 ~cfg:tiny_cfg ~jobs:2 app cap in
    o.Pipeline.pool_stats
  in
  let untraced = run () in
  Trace.enable ();
  let traced =
    Fun.protect ~finally:(fun () -> Trace.disable (); Trace.reset ()) run
  in
  Alcotest.(check bool) "stats traced = untraced" true (traced = untraced);
  Alcotest.(check bool) "and the search did evaluate" true
    (untraced.Evalpool.tasks > 0)

let () =
  Alcotest.run "evalpool"
    [ ("determinism",
       [ Alcotest.test_case "FFT seed 3" `Quick
           (test_search_determinism "FFT" 3);
         Alcotest.test_case "FFT seed 11" `Quick
           (test_search_determinism "FFT" 11);
         Alcotest.test_case "BubbleSort seed 7" `Quick
           (test_search_determinism "BubbleSort" 7) ]);
      ("engine",
       [ Alcotest.test_case "ref = fused across jobs/cache" `Quick
           test_engine_determinism;
         Alcotest.test_case "per-run knobs, interleaved sessions" `Quick
           test_per_run_knobs_interleaved;
         Alcotest.test_case "one plan per verification" `Quick
           test_one_plan_per_verification ]);
      ("memoization",
       [ Alcotest.test_case "genome memo accounting" `Quick
           test_genome_memo_accounting;
         Alcotest.test_case "binary-key reuse" `Quick
           test_key_memo_reuses_verification;
         Alcotest.test_case "cache disabled" `Quick
           test_cache_disabled_is_honest;
         Alcotest.test_case "memo budget bounds and evicts" `Quick
           test_memo_budget_bounds_and_evicts;
         Alcotest.test_case "eviction never changes the search" `Quick
           test_memo_budget_digest_invariant ]);
      ("parallelism",
       [ Alcotest.test_case "parallel = sequential" `Quick
           test_parallel_matches_sequential;
         Alcotest.test_case "errors propagate" `Quick
           test_worker_errors_propagate;
         Alcotest.test_case "templates survive batches" `Quick
           test_templates_survive_batches;
         Alcotest.test_case "aborted sessions release domains" `Quick
           test_aborted_sessions_release_domains ]);
      ("domainpool",
       [ Alcotest.test_case "each worker once per run" `Quick
           test_pool_runs_each_worker_once;
         Alcotest.test_case "caller exception waits for workers" `Quick
           test_pool_caller_exn_waits_for_workers;
         Alcotest.test_case "worker exception, next run fine" `Quick
           test_pool_survives_worker_exn;
         Alcotest.test_case "nested run rejected" `Quick
           test_pool_rejects_nested_run;
         Alcotest.test_case "shutdown idempotent" `Quick
           test_pool_shutdown_idempotent;
         Alcotest.test_case "size 1 runs inline" `Quick
           test_pool_size1_runs_inline ]);
      ("metrics",
       [ Alcotest.test_case "pools keep separate stats" `Quick
           test_pools_keep_separate_stats;
         Alcotest.test_case "stats independent of tracing" `Quick
           test_stats_independent_of_tracing ]) ]
