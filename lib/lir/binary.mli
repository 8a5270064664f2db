(** A compiled binary: the set of optimized method graphs installed for an
    application, plus its code size (the GA's tiebreaker). *)

type t = {
  funcs : (int, Repro_hgraph.Hir.func) Hashtbl.t;  (** method id -> code *)
  mutable size : int;                               (** total instructions *)
  mutable dig : string option;
  (** memoized content digest; filled by [create] before the binary can
      cross domains, invalidated by [recompute_size] *)
}

val create : Repro_hgraph.Hir.func list -> t
val find : t -> int -> Repro_hgraph.Hir.func option
val mids : t -> int list
val recompute_size : t -> unit

val digest : t -> string
(** Hex digest of the printed method graphs in ascending-mid order — the
    binary memo key ([Pipeline.binary_key] delegates here).  Memoized; [create] fills it eagerly so
    cross-domain reads never race a lazy fill. *)
