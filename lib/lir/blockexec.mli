(** The compiled block-fused LIR executor (ROADMAP item 2).

    Executes compiled binaries against the decode-time plans of
    {!Blockplan}: per-block micro-op streams with straightened goto chains,
    peephole-fused hot pairs, and straight-line segments that charge
    without per-instruction fuel checks after a single headroom check
    against the remaining fuel.  {!prepare} compiles each plan once into
    closure-threaded code: one closure per micro-op with its cycle charge
    folded in as a constant, one closure per block returning the next
    block id, and registers held unboxed (a tag byte plus an int or float
    payload).  Int, float and bool cases run inline; every other case runs
    the boxed reference semantics.

    Contract: cycle accounting, observable memory, return values,
    profiler samples and crash/hang classification are bit-identical to
    {!Exec} — for conforming and non-conforming (guard-stripped,
    fault-injected, malformed) code alike.  [test/test_blockexec.ml] and
    the differential property in [test/test_fuzz.ml] enforce this in
    lockstep; [bench/main.exe exec] measures the speedup. *)

type engine = Ref | Fused

val engine_name : engine -> string
val engine_of_string : string -> engine option

type code
(** A binary made ready to replay under one engine: for [Fused] the
    binary's {!Blockplan} (built once, under {!Repro_vm.Cost.default})
    compiled to closures, for [Ref] just the binary.  Immutable; nothing
    caches it; the caller keeps it while it replays the binary
    ([Pipeline.verify_core] keeps it for one verification). *)

val prepare : ?engine:engine -> Binary.t -> code
(** [engine] defaults to [Fused]; a search takes its engine from its
    evaluation environment ([Repro_core.Pipeline.evaluation_env]). *)

val install : Repro_vm.Exec_ctx.t -> code -> unit
(** Install the code's dispatcher ({!Exec.install} for [Ref]).  The
    fused dispatcher falls back to {!Exec.run_func} while the profiler
    samples ([ctx.sample_period > 0]).
    @raise Invalid_argument if the context's cost model is not the one
    the plan was built under. *)
