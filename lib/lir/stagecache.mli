(** The staged-compilation cache: content-addressed memoization of
    per-pass-prefix IR states for {!Compile.llvm_binary_staged}.

    The GA mutates and recombines pass sequences a few genes at a time, so
    most of a generation's compile work re-runs prefixes that were already
    compiled for a parent genome.  This cache remembers, per (front-end
    digest, method, canonical gene-prefix fingerprint), the IR state after
    that prefix together with the {e recorded work charges} the prefix
    incurred, so a later compile resumes at its first divergent gene and
    pays only for the changed suffix.  An exact recompile (an elite
    survivor, a re-proposed hill-climb neighbour, any repeat under
    [--no-cache]) resumes every method from its full-length prefix and
    pays only for the copy and the binary's materialization.

    {b Accounting transparency.}  An entry carries the per-pass
    [Hir.size] charges its prefix accumulated; on a hit the compiler
    replays them through its live work counter with the same
    [work_limit] check a real run performs.  [Compile_timeout]
    classification — and therefore every search history built on it — is
    byte-identical with the cache on or off, at any [-j].

    {b Identity.}  Prefix fingerprints hash {!Passes.canon_token} renderings
    of each gene, chained from the front-end digest — exactly the
    canonicalization the Evalpool genome memo uses ([Genome.canon]), so
    the two caches can never disagree on genome identity.

    {b Domain safety and bounds.}  One process-global table behind a
    mutex, shared by all Evalpool worker domains; cached funcs are never
    mutated after insertion (the compiler copies before materializing a
    binary from them).  Residency is bounded by a {!Repro_util.Bounded}
    byte budget.  The counts behind {!stats} are [stagecache.*] counters
    in the cache's own {!Repro_util.Trace.scope}, so they also show in the
    process counter set. *)

type entry = {
  sc_func : Repro_hgraph.Hir.func;
  (** IR state after the prefix; treat as immutable — copy before any
      mutating consumer ([Binary.create], fault mutators). *)
  sc_charges : int array;
  (** per-pass [Hir.size] work charges of genes [1..k], for replay *)
}

val capacity_bytes : unit -> int
val set_capacity_bytes : int -> unit
(** LRU byte budget over held IR (default 256 MiB); shrinking evicts
    immediately. *)

val fingerprints : frontend:string -> (string * int array) list -> string array
(** [fingerprints ~frontend spec] chains {!Passes.canon_token} tokens from
    the front-end digest: element [k-1] identifies the [k]-gene canonical
    prefix of [spec] under that front-end. *)

val lookup :
  frontend:string -> mid:int -> fps:string array -> (int * entry) option
(** Longest cached prefix for this (front-end, method): [Some (k, entry)]
    means [entry] is the state after genes [1..k] ([fps.(k-1)]).  Bumps
    hit/miss and reuse counters.  Only keyed front ends call it: a
    keyless {!Compile.frontend} is how a run goes without the cache. *)

val insert : frontend:string -> mid:int -> fp:string -> entry -> unit
(** Publish the state after a freshly-run prefix (first writer wins; the
    value is a pure function of the key, so racing duplicates are
    identical).  May evict least-recently-used entries to stay under the
    byte budget. *)

val note_compile : hit:bool -> unit
(** One whole compile of a cacheable front end with a non-empty spec:
    a hit when every compiled method of the region resumed at its
    full-length prefix, i.e. the compile was served from cache; a miss
    otherwise (including a compile that raised). *)

val note_gene_run : unit -> unit
(** One pass actually executed for a keyed front end (the denominator
    of the reuse ratio). *)

val note_frontend_func : unit -> unit
(** One front-end template (bytecode→HGraph→translate of one method)
    actually built by a keyed front end. *)

type stats = {
  prefix_hits : int;      (** method-compiles resumed from a cached prefix *)
  prefix_misses : int;    (** method-compiles with no usable prefix *)
  binary_hits : int;      (** whole compiles served from cache: every
                              method resumed at its full-length prefix *)
  binary_misses : int;    (** counted compiles that ran at least one pass
                              (or raised); see {!note_compile} *)
  genes_reused : int;     (** passes skipped by prefix reuse *)
  genes_run : int;        (** passes actually executed *)
  longest_prefix : int;   (** longest prefix ever reused, in genes *)
  inserts : int;
  evictions : int;
  entries : int;          (** live entries *)
  bytes_held : int;       (** estimated resident bytes of live entries *)
  frontend_funcs : int;   (** front-end templates built across frontends *)
}

val stats : unit -> stats
val reset : unit -> unit
(** Drop all entries and zero the cache's counter scope (between
    independent runs and tests).  The process counters keep their
    values. *)

val print_stats : ?label:string -> stats -> unit
(** Human-readable end-of-run report, printed alongside the Evalpool cache
    report. *)
