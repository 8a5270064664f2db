(** Dataflow analyses over the IR, shared by the Android pipeline and the
    LLVM-style pass library. *)

module ISet : Set.S with type elt = int

val liveness : Hir.func -> Repro_util.Cfg.t -> (int, ISet.t) Hashtbl.t
(** Live-out register set per block (backward may analysis). *)

val live_before :
  ISet.t -> Hir.instr list -> Hir.term -> ISet.t list
(** Given a block's live-out set, the live set *before* each instruction, in
    instruction order (same length as the instruction list). *)

val defs_of_block : Hir.block -> ISet.t
val uses_of_block : Hir.block -> ISet.t

val def_count : Hir.func -> (int, int) Hashtbl.t
(** Number of static definitions of each register over the whole function. *)

val pressure : Hir.func -> int
(** Register pressure: the largest live-out set over all blocks.  Pure (no
    caching); see [Hir.f_pressure] for the per-function cache that
    [Repro_lir.Binary.create] fills exactly once, before a binary can be
    shared across evaluation domains. *)
