(** A persistent pool of worker domains: the only way this program runs
    work in parallel.

    A [Domainpool] spawns its worker domains once; each {!run} call hands
    the same job closure to every worker (the calling domain participates
    as worker 0) and returns when all of them have finished.  One job runs
    at a time.  Every {!Evalpool} runs its parallel stages on a pool, and
    whoever chooses the worker count owns the pool: a standalone search
    session, a fleet run, an experiment driver, or the serve scheduler
    (which shares one pool across every tenant, so a single pool bounds
    the whole process's parallelism no matter how many searches are
    active).

    Domain-local state (replay templates, trace buffers) lives as long as
    the pool's domains do, so it is reused across every batch the pool
    runs.

    Memory publication: a worker's writes made during a job are visible to
    the caller when {!run} returns (the completion handshake goes through
    the pool's mutex). *)

type t

val create : workers:int -> t
(** [create ~workers:n] spawns [n - 1] persistent domains; the caller acts
    as the [n]-th worker.  [n] must be >= 1; [n = 1] spawns nothing and
    {!run} degenerates to a plain call on the calling domain. *)

val size : t -> int
(** Total worker count, including the calling domain. *)

val run : t -> (int -> unit) -> unit
(** [run t job] executes [job wid] once on every worker ([wid] 0 on the
    calling domain, 1.. on the pool domains) and returns when all are
    done.  [job] must confine its exceptions (capture them into result
    slots): an exception escaping a pool domain is swallowed, one escaping
    the caller's share is re-raised after every worker has finished.
    @raise Invalid_argument on a nested or concurrent call — the pool
    serves one job at a time. *)

val shutdown : t -> unit
(** Join the pool domains.  Idempotent; the pool must not be used after.
    A process does exit with idle pool domains still blocked, but each
    live pool holds domains against the runtime's limit of 128 and pins
    their domain-local caches (a replay template per snapshot), so shut a
    pool down as soon as its owner is done with it. *)

val with_pool : workers:int -> (t -> 'a) -> 'a
(** [with_pool ~workers f] creates a pool, applies [f] to it and shuts
    the pool down when [f] returns or raises. *)
