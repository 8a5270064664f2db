(** A parallel, memoizing evaluation engine for GA generations.

    The paper's offline search is embarrassingly parallel: every genome
    evaluation is an isolated compile + verified replay of a snapshot
    (paper §3.6, Figure 6).  [Evalpool] evaluates a whole generation
    concurrently on the worker domains of a {!Domainpool} and memoizes the deterministic part of
    each evaluation so duplicate genomes — and distinct genomes that
    compile to the same binary — are paid for once.

    The engine is built around a three-stage evaluator supplied by the
    caller:

    - [compile]: genome -> binary (or an immediate failure result).
      Expensive, deterministic, thread-safe.
    - [verify]: binary -> core result (verified replay measurement).
      Expensive, deterministic, thread-safe.
    - [finish]: core result + evaluation index -> final outcome.  Cheap;
      runs on the calling domain.  Anything stochastic (the replay noise
      model) belongs here, seeded from the evaluation index so results are
      independent of worker count, scheduling and cache state.

    Determinism contract: for a fixed batch of [(ev_index, genome)] tasks,
    [evaluate_batch] returns the same outcomes for any pool size,
    whether or not the cache is enabled, and for any [memo_budget].  Two
    caches are maintained when enabled: a genome-level memo (canonicalized
    genome -> core result) and a binary-level memo ([key_of] the compiled
    binary -> core result, which also feeds the GA's identical-binaries
    halting rule upstream).  Both are {!Repro_util.Bounded} LRU tables — a long-lived
    serving process evaluates millions of genomes, so unbounded memos
    would be a slow leak; eviction merely forces a deterministic
    recomputation and can never change an outcome. *)

type stats = {
  batches : int;
  tasks : int;            (** evaluations requested *)
  genome_hits : int;      (** served from the genome memo *)
  genome_misses : int;    (** required at least a compile *)
  key_hits : int;         (** verified replay skipped: binary already seen *)
  compiles : int;
  verifies : int;
  evictions : int;        (** memo entries dropped by the LRU budget *)
}
(** Each field is an [evalpool.*] counter of {!Repro_util.Trace} ([evictions]
    is [evalpool.memo_evictions]).  Per-worker busy time is not a count:
    the [evalpool:worker] spans record it. *)

type ('bin, 'core, 'out) t

val default_memo_budget : int
(** Default per-table entry budget (large enough that a single search
    never evicts). *)

val create :
  ?cache:bool ->
  ?memo_budget:int ->
  pool:Domainpool.t ->
  canon:(Genome.t -> string) ->
  compile:(Genome.t -> ('bin, 'core) result) ->
  key_of:('bin -> string) ->
  verify:('bin -> 'core) ->
  finish:(ev_index:int -> 'core -> 'out) ->
  unit -> ('bin, 'core, 'out) t
(** [pool] runs the parallel stages; the caller owns it and may share it
    across several Evalpools (the serve scheduler shares one across every
    tenant).  [cache] (default true) enables the
    genome and binary memos; when disabled every task is evaluated
    honestly, which is what the differential tests rely on.
    [memo_budget] caps each memo table's entry count ({!default_memo_budget}
    by default); the least-recently-used entry is evicted when full. *)

val evaluate_batch : ('bin, 'core, 'out) t -> (int * Genome.t) array -> 'out array
(** Evaluate one generation.  Tasks are [(ev_index, genome)] pairs; the
    result array is index-aligned with the input.  Only the calling domain
    touches the caches; workers run pure [compile]/[verify] stages. *)

val seed_caches :
  ('bin, 'core, 'out) t ->
  genomes:(string * 'core) list ->
  keys:(string * 'core) list ->
  unit
(** Warm-start the memos from previously persisted results: [genomes] maps
    canonical genome strings and [keys] binary keys to core results (both
    as produced by this pool's own [compile]/[verify] stages in an earlier
    process — checkpoint resume feeds its journal through this).  No-op
    when the cache is disabled; entries respect the LRU budget. *)

val stats : _ t -> stats
(** This pool's counters: a view of its own {!Repro_util.Trace.scope}. *)

val cumulative_stats : unit -> stats
(** Process-wide totals across every pool created since the last
    {!Repro_util.Trace.reset} (for end-of-run reports in the CLI and
    benchmark harness): a view of the process counters. *)

val print_stats : ?label:string -> stats -> unit
(** Human-readable one-line cache report on stdout. *)
