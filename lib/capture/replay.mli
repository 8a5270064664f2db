(** Replaying captured executions (paper §3.3, Figure 5).

    The loader rebuilds a partial Android process from the snapshot —
    mappings recreated, captured pages placed at their original addresses
    (collisions with the loader's own range are placed via the break-free
    relocation step), allocator and GC accounting restored — and then jumps
    into the hot region under the interpreter or compiled code — the
    original Android-compiled code or a candidate optimized binary. *)

type code_version =
  | Interpreter                        (** reference semantics (§3.4) *)
  | Compiled of Repro_lir.Blockexec.code
      (** a binary prepared for one engine by {!Repro_lir.Blockexec.prepare} *)

type outcome =
  | Finished of Repro_vm.Value.t option * int   (** result, cycles *)
  | Crashed of string
  | Hung                                        (** exceeded the replay fuel *)

type run = {
  outcome : outcome;
  ctx : Repro_vm.Exec_ctx.t;      (** post-replay state, for verification *)
  loader_collisions : int;        (** captured pages that hit loader pages *)
}

val loader_base : int
(** Byte address of the loader program's own (fixed, low) range. *)

val loader_pages : int
(** Size of the loader's range in pages. *)

val run :
  ?fuel:int ->
  ?record_vcall:(Typeprof.site -> int -> unit) ->
  ?on_block:(int -> int -> int -> unit) ->
  ?faults_key:int ->
  Repro_dex.Bytecode.dexfile -> Snapshot.t -> code_version -> run
(** Default fuel: 200M cycles (a replay that runs 100x longer than any
    sensible region is declared hung, like a watchdog would).

    A [Compiled] code runs on the engine it was prepared for: the
    per-instruction reference engine ([Ref], {!Repro_lir.Exec}) or the
    block-fused engine ([Fused], {!Repro_lir.Blockexec}).  The two are
    bit-identical in every observable — results, cycles, memory, failure
    classification — so the choice never affects figures, only wall-clock
    replay time.  Replays always run under {!Repro_vm.Cost.default}.

    [on_block] becomes the context's [on_block] hook
    ({!Repro_vm.Exec_ctx.t}): both engines fire it at every compiled
    block entry with (method id, block id, cycles so far), so a
    differential test can name the first block where two replays part
    ways.

    [faults_key] opts this replay into the fault-injection net
    ([Repro_util.Faults]): the replay runs inside a fault scope with that
    site key, arming the loader fault points (page-restore collision,
    truncated snapshot, register-state corruption) and the executor fault
    points (crash, hang-until-fuel, wrong return value).  Without it — the
    default, and always the case for reference interpreted replays and
    online runs — injected faults can never damage the replay.  Whether a
    fault fires is a pure function of the armed fault seed and
    [faults_key], so callers (see [Repro_core.Pipeline.verify_core]) vary
    the key per retry attempt to distinguish transient replay faults from
    deterministic miscompiles. *)

val cycles : run -> int option
(** Cycles if the replay finished. *)
