(** Pipeline-wide structured tracing and the counter registry.

    The paper's argument is quantitative — capture under 15 ms (Figure 10),
    small snapshots (Figure 11), cheap verified replays — so every stage of
    the reproduction can report where its time goes through this module:
    nestable timed {e spans} plus monotonic integer {e counters}.  Two
    exporters are provided: Chrome [trace_event] JSON (load the file in
    [chrome://tracing] or {{:https://ui.perfetto.dev} Perfetto}) and a
    plain-text summary table.

    {b One counter store.}  Every integer counter in the program lives
    here.  A bump always lands in the process set; a bump with [~scope]
    lands in that {!scope} as well, so a component keeps its own totals
    (one per [Repro_search.Evalpool], one for [Repro_lir.Stagecache])
    and its [stats] are a view of them.  Scopes are not registered
    anywhere: one lives exactly as long as its owner.

    {b Domain safety.}  Span events are appended to a per-domain buffer
    (domain-local storage, single writer) and merged at export time; the
    exported [tid] is the OCaml domain id, so a parallel [Evalpool] run
    shows its worker domains as separate tracks.  Counters are shared and
    mutex-protected.  Export/reset are meant to run on the main domain
    while no worker domains are live (the pool joins its workers before
    returning, which also publishes their buffers).

    {b Cost.}  Only spans are gated.  When tracing is disabled — the
    default — a span is a single [Atomic.get] and allocates nothing.
    Counters always count: a bump is one mutex-protected table update
    (on a 2-core Xeon VM: 40-90 ns on one domain, about 150 ns when two
    domains do nothing but bump), and a whole search makes a few tens of
    thousands of them, a few milliseconds against seconds of search. *)

type phase = B | E
(** Span begin/end, mirroring the Chrome [ph] field. *)

(** One recorded span edge, in Chrome [trace_event] vocabulary. *)
type event = {
  ev_name : string;                (** span name *)
  ev_cat : string;                 (** category (Chrome [cat] field) *)
  ev_ph : phase;                   (** begin or end *)
  ev_ts : float;                   (** seconds since [enable]/[reset] *)
  ev_tid : int;                    (** OCaml domain id of the emitter *)
  ev_seq : int;                    (** per-domain emission order *)
  ev_args : (string * string) list; (** free-form key/value annotations *)
}

val enabled : unit -> bool
(** Whether spans are currently recorded. *)

val enable : unit -> unit
(** Start recording spans (resets the clock epoch on first use). *)

val disable : unit -> unit
(** Stop recording spans; already-recorded data stays readable/exportable. *)

val reset : unit -> unit
(** Drop all recorded events, zero the process counters and restart the
    clock epoch.  Scopes keep their values.  Call from the main domain
    with no tracing workers live. *)

val set_clock : (unit -> float) -> unit
(** Replace the time source (default: the monotonic {!Clock.now}, so span
    durations stay non-negative across wall-clock steps); for tests that
    need deterministic timestamps.  Call [reset] afterwards. *)

val span : ?cat:string -> ?args:(string * string) list ->
  string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] as a nested span on the calling domain.
    The end event is emitted even when [f] raises.  [cat] defaults to
    ["repro"]. *)

type scope
(** A set of counters owned by one component. *)

val scope : unit -> scope
(** A fresh, empty scope. *)

val add : ?scope:scope -> string -> int -> unit
(** [add counter n] bumps a monotonic counter in the process set and,
    with [~scope], in that scope too.  Counts whether or not tracing is
    enabled. *)

val incr : ?scope:scope -> string -> unit
(** [incr counter] is [add counter 1]. *)

val counter_value : ?scope:scope -> string -> int
(** Current value of a counter in [scope] (default: the process set); 0
    if never bumped. *)

val reset_scope : scope -> unit
(** Zero every counter of one scope, and nothing else. *)

val events : unit -> event list
(** Merged snapshot of every domain's span events, ordered by
    [(ts, tid, seq)]. *)

val counters : unit -> (string * int) list
(** All process counters, sorted by name. *)

val to_chrome_json : unit -> string
(** The whole trace as Chrome [trace_event] JSON: one [B]/[E] pair per
    span, one [C] event per process counter.  Field order and string
    escaping are stable (locked by the golden test). *)

val write_chrome : string -> unit
(** [write_chrome file] writes [to_chrome_json () ^ "\n"] to [file]. *)

val summary : unit -> string
(** Plain-text report: per-span-name count/total/mean/max table plus the
    process counter table. *)

val print_summary : unit -> unit
