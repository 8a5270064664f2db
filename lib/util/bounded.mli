(** A string-keyed cache bounded by a weight budget, evicting the
    least-recently-used entries first.  Every size-capped table in the
    repository is one (ARCHITECTURE.md, "Caches").

    Every {!find} hit and every insertion stamps the entry with a fresh
    tick; {!add} then evicts the entry with the smallest tick while the
    held weight exceeds the budget.  Ticks are unique, so victims are a
    pure function of the call sequence, never of hash-table layout.
    Eviction is an O(n) scan, paid only when the budget is crossed.

    Not thread-safe: callers that share a cache across domains hold
    their own lock around every call. *)

type 'a t

val create : ?weight:('a -> int) -> budget:int -> unit -> 'a t
(** An empty cache.  [weight] (default: 1 per entry) must be
    non-negative.  @raise Invalid_argument if [budget < 0]. *)

val find : 'a t -> string -> 'a option
(** The value under the key, touching it as most recently used. *)

val mem : 'a t -> string -> bool
(** Presence test; does not touch the entry. *)

val add : 'a t -> string -> 'a -> int
(** Insert unless the key is present (first writer wins: every cache
    here stores a pure function of its key), then evict the stalest
    entries while the held weight exceeds the budget.  Returns the
    number evicted.  An entry heavier than the whole budget is itself
    evicted once everything older is gone. *)

val budget : 'a t -> int

val set_budget : 'a t -> int -> int
(** Change the budget and evict down to it; returns the number evicted.
    @raise Invalid_argument if the budget is negative. *)

val clear : 'a t -> unit
(** Drop every entry and zero the eviction count. *)

val length : 'a t -> int
val weight : 'a t -> int
(** Total weight of the resident entries. *)

val evictions : 'a t -> int
(** Entries evicted since creation or the last {!clear}. *)
