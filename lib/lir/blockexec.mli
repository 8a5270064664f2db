(** The block-fused LIR executor (ROADMAP item 2).

    Executes compiled binaries against the decode-time plans of
    {!Blockplan}: per-block micro-op streams with straightened goto chains,
    peephole-fused hot pairs, and straight-line segments that run on a
    local cycle accumulator after a single headroom check against the
    remaining fuel (hoisting the reference engine's per-instruction fuel
    checks).

    Contract: cycle accounting, observable memory, return values,
    profiler samples and crash/hang classification are bit-identical to
    {!Exec} — for conforming and non-conforming (guard-stripped,
    fault-injected, malformed) code alike.  [test/test_blockexec.ml] and
    the differential property in [test/test_fuzz.ml] enforce this in
    lockstep; [bench/main.exe exec] measures the speedup. *)

type engine = Ref | Fused

val engine_name : engine -> string
val engine_of_string : string -> engine option

val default_engine : unit -> engine
(** Process-wide default used by {!prepare} when no engine is passed
    explicitly; starts as [Fused]. *)

val set_default_engine : engine -> unit

type code
(** A binary made ready to replay under one engine: for [Fused] it holds
    the binary's {!Blockplan} (built once, under {!Repro_vm.Cost.default}),
    for [Ref] just the binary.  Nothing caches it; the caller keeps it
    while it replays the binary ([Pipeline.verify_core] keeps it for one
    verification). *)

val prepare : ?engine:engine -> Binary.t -> code
(** [engine] defaults to {!default_engine}[ ()]. *)

val install : Repro_vm.Exec_ctx.t -> code -> unit
(** Install the code's dispatcher ({!Exec.install} for [Ref]).  The
    fused dispatcher falls back to {!Exec.run_func} while the profiler
    samples ([ctx.sample_period > 0]).
    @raise Invalid_argument if the context's cost model is not the one
    the plan was built under. *)
