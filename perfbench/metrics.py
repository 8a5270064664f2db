"""Metric arithmetic of the benchmark.

Pure functions from the raw JSON records that ``child.exe`` prints (one per
cold process) to the benchmark's metrics.  ``run.py`` orchestrates the
processes; ``test_metrics.py`` checks this file on fixed synthetic inputs.
"""

import math
import statistics

# Percentiles considered for a distribution's tail, highest first.
TAIL_LADDER = (99, 98, 95, 90, 80, 75, 50)
# A tail percentile is reported only with at least this many samples above it.
TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least ``pct``%
    of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n):
    """The highest percentile of ``TAIL_LADDER`` that leaves at least
    ``TAIL_MIN_BEYOND`` of ``n`` samples beyond it, or None."""
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100 * n) >= TAIL_MIN_BEYOND:
            return pct
    return None


def distribution(values):
    """Median, the rule-chosen tail percentile and the sample count.  Too
    few samples for any tail percentile (or only for p50) report the
    median as the tail, at 50."""
    pct = tail_percentile(len(values))
    mid = median(values)
    return {
        "p50": mid,
        "tail": percentile(values, pct) if pct and pct > 50 else mid,
        "tail_pct": pct if pct else 50,
        "n": len(values),
    }


def pool_busy_s(phases):
    """Seconds the pool's workers spent inside their stage loops."""
    return sum(stop - start for phase in phases for start, stop in phase)


def pool_idle_s(phases):
    """Barrier idle of the evaluation pool.  ``phases`` holds one list of
    ``[start, stop]`` worker spans per fan-out; a phase of k workers costs
    k times its wall (first start to last stop) of which the workers were
    busy for the sum of their spans."""
    idle = 0.0
    for phase in phases:
        if not phase:
            continue
        wall = max(stop for _, stop in phase) - min(start for start, _ in phase)
        idle += len(phase) * wall - sum(stop - start for start, stop in phase)
    return idle


def geomean_speedup(baseline_ms, best_ms):
    """Geometric mean over apps of baseline replay time / best fitness."""
    pairs = list(zip(baseline_ms, best_ms))
    if not pairs:
        return 0.0
    return math.exp(sum(math.log(b / f) for b, f in pairs) / len(pairs))


def extra_live_batches(live_per_process, standalone_batches):
    """Live batches a killed-and-resumed run evaluated beyond what the
    uninterrupted standalone searches need: 0 when resume re-evaluates
    nothing that was already checkpointed."""
    return sum(live_per_process) - sum(standalone_batches)


def check_outcomes(outcomes, pins):
    """``outcomes``: (app, error, digest) per search or tenant, error None
    when it finished; ``pins``: app -> pinned digest.  Returns (attempted,
    failed, reasons)."""
    failed, reasons = 0, []
    for app, error, digest in outcomes:
        if error is not None:
            failed += 1
            reasons.append(f"{app}: {error}")
        elif digest != pins.get(app):
            failed += 1
            reasons.append(f"{app}: digest {digest} != pinned {pins.get(app)}")
    return len(outcomes), failed, reasons


def failed_share(attempted, failed):
    return failed / attempted if attempted else 1.0


# --------------------------------------------------------------- end to end


def search_iteration(recs):
    """End-to-end metrics of one standalone-search iteration: one cold
    process per app, run one after another."""
    apps = [a for rec in recs for a in rec["apps"] if a["ok"]]
    return {
        "setup_s": sum(a["capture_s"] + a["start_s"] for a in apps),
        "search_s": sum(sum(a["steps_s"]) for a in apps),
        "time_to_binary_s_max": max((a["total_s"] for a in apps), default=0.0),
        "cpu_s": sum(rec["cpu_s"] for rec in recs),
        "peak_rss_mb": max(rec["peak_rss_mb"] for rec in recs),
        "capture_pause_ms": median([a["pause_ms"] for a in apps]),
        "speedup_vs_o3": geomean_speedup(
            [a["o3_ms"] for a in apps], [a["best_ms"] for a in apps]),
        "speedup_vs_android": geomean_speedup(
            [a["android_ms"] for a in apps], [a["best_ms"] for a in apps]),
        "wall_s": sum(rec["wall_s"] for rec in recs),
        "step_ms": [s * 1000 for a in apps for s in a["steps_s"]],
    }


def search_outcomes(recs):
    return [(a["app"], a.get("error"), a.get("digest"))
            for rec in recs for a in rec["apps"]]


def serve_iteration(kill, resume, baselines):
    """End-to-end metrics of one serve kill/resume pair; ``baselines``: each
    app's baseline replay times and capture charge."""
    best = {r["app"]: r["best_ms"] for r in resume["reports"]
            if r["outcome"] == "finished"}
    base = [b for b in baselines if b["app"] in best]
    return {
        "setup_s": kill["submit_s"],
        "search_s": kill["drive_s"] + resume["drive_s"],
        "time_to_binary_s_max": (kill["submit_s"] + kill["drive_s"]
                                 + resume["submit_s"] + resume["drive_s"]),
        "cpu_s": kill["cpu_s"] + resume["cpu_s"],
        "peak_rss_mb": max(kill["peak_rss_mb"], resume["peak_rss_mb"]),
        "capture_pause_ms": median([b["pause_ms"] for b in baselines]),
        "speedup_vs_o3": geomean_speedup(
            [b["o3_ms"] for b in base], [best[b["app"]] for b in base]),
        "speedup_vs_android": geomean_speedup(
            [b["android_ms"] for b in base], [best[b["app"]] for b in base]),
        "resume_setup_s": resume["submit_s"],
        "wall_s": kill["wall_s"] + resume["wall_s"],
        "step_ms": [],
    }


def serve_outcomes(kill, resume):
    """Tenant outcomes of a kill/resume pair: the kill half must abort and
    the resume half must finish every tenant."""
    outcomes = [(r["app"], r["error"] or (None if r["outcome"] == "finished"
                                          else r["outcome"]), r["digest"])
                for r in resume["reports"]]
    if not kill["aborted"]:
        outcomes.append(("serve-kill", "drive finished before the kill", None))
    return outcomes


# ---------------------------------------------------------------- per layer


def _merge_traces(recs):
    """Sum counters, layer self times and span lists across processes."""
    counters, layer_self, spans, phases = {}, {}, {}, []
    for rec in recs:
        tr = rec["trace"]
        for k, v in tr["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in tr["layer_self_s"].items():
            layer_self[k] = layer_self.get(k, 0.0) + v
        for k, v in tr["spans_ms"].items():
            spans.setdefault(k, []).extend(v)
        phases.extend(tr["pool_phases"])
    return counters, layer_self, spans, phases


def _ratio(num, den):
    return num / den if den else 0.0


def _put_distribution(out, prefix, values):
    d = distribution(values)
    out[prefix + "_p50"] = d["p50"]
    out[prefix + "_tail"] = d["tail"]
    out[prefix + "_tail_pct"] = d["tail_pct"]
    out[prefix + "_n"] = d["n"]


# Core-layer metrics; they read 0 on the workloads that do not serve.
SERVE_ONLY = ("serve.rounds", "serve.fairness_spread", "serve.live_batches",
              "serve.replayed_batches", "serve.resume_setup_s",
              "ckpt.journal_bytes", "ckpt.extra_live_batches")


def layer_metrics(recs, pause_ms, snapshots, serve=None):
    """Per-layer metrics of one traced iteration.  ``recs``: its traced
    child records; ``pause_ms``: capture charge per app; ``snapshots``:
    captured snapshots replayed; ``serve``: (kill, resume, standalone
    batches) for the serve workload."""
    c, self_s, spans, phases = _merge_traces(recs)
    get = lambda k: c.get(k, 0)  # noqa: E731
    sc = {}
    for rec in recs:
        for k, v in rec["stagecache"].items():
            sc[k] = max(sc.get(k, 0), v) if k == "bytes_held" else sc.get(k, 0) + v
    batch_ms = spans["evalpool:batch"]
    if serve:
        step_ms, stepped_ms = batch_ms, spans["bench:drive"]
    else:
        step_ms = stepped_ms = spans["bench:search_step"]
    compile_ms, verify_ms, licm_ms = (
        spans["compile:llvm"], spans["verify"], spans["pass:licm"])
    out = {
        "capture.corpus_ms": sum(spans["capture_corpus"]),
        "capture.eval_env_ms": sum(spans["make_eval_env"]),
        "capture.online_run_ms": sum(spans["online_run"]),
        "capture.faults": get("capture.faults"),
        "capture.pages_spooled": get("capture.pages_spooled"),
        "capture.pause_ms": median(pause_ms),
        "search.step_ms_max": max(step_ms, default=0.0),
        "search.batches": get("evalpool.batches"),
        "search.evaluations": get("evalpool.tasks"),
        "search.overhead_s": (sum(stepped_ms) - sum(batch_ms)) / 1000,
        "evalpool.busy_s": pool_busy_s(phases),
        "evalpool.idle_s": pool_idle_s(phases),
        "evalpool.genome_hit_ratio": _ratio(get("evalpool.genome_hits"),
                                            get("evalpool.tasks")),
        "evalpool.key_hit_ratio": _ratio(get("evalpool.key_hits"),
                                         get("evalpool.compiles")),
        "compile.calls": len(compile_ms),
        "compile.ms_p90": percentile(compile_ms, 90) if compile_ms else 0.0,
        "compile.work": get("compile.work"),
        "pass.licm_ms": sum(licm_ms),
        "pass.licm_ms_max": max(licm_ms, default=0.0),
        "stagecache.prefix_hit_ratio": _ratio(
            sc["prefix_hits"], sc["prefix_hits"] + sc["prefix_misses"]),
        "stagecache.binary_hit_ratio": _ratio(
            sc["binary_hits"], sc["binary_hits"] + sc["binary_misses"]),
        "stagecache.genes_reused_ratio": _ratio(
            sc["genes_reused"], sc["genes_reused"] + sc["genes_run"]),
        "stagecache.mb_held": sc["bytes_held"] / 2**20,
        "stagecache.evictions": sc["evictions"],
        "verify.calls": len(verify_ms),
        "verify.ms_p90": percentile(verify_ms, 90) if verify_ms else 0.0,
        "verify.corpus_checks": get("verify.corpus_checks"),
        "verify.corpus_kills": get("verify.corpus_kills"),
        "verify.rejected": get("verify.rejected"),
        "replay.template_builds": get("replay.template_builds"),
        "replay.template_builds_per_snapshot": _ratio(
            get("replay.template_builds"), snapshots),
        "blockexec.plan_builds": get("blockexec.plan_builds"),
        "blockexec.ops_fused": get("blockexec.ops_fused"),
        "blockexec.checks_hoisted": get("blockexec.checks_hoisted"),
        "mem.clone_pages": get("mem.clone_pages"),
        "ckpt.saves": get("ckpt.saves"),
    }
    _put_distribution(out, "search.step_ms", step_ms)
    _put_distribution(out, "compile.ms", compile_ms)
    _put_distribution(out, "verify.ms", verify_ms)
    for layer in ("capture", "search", "compile", "verify", "core"):
        out[f"layer.{layer}_self_s"] = self_s.get(layer, 0.0)
    if serve:
        kill, resume, standalone = serve
        out.update({
            "serve.rounds": kill["rounds"] + resume["rounds"],
            "serve.fairness_spread": max(kill["fairness_spread"],
                                         resume["fairness_spread"]),
            "serve.live_batches": kill["live_batches"] + resume["live_batches"],
            "serve.replayed_batches": sum(r["replayed_batches"]
                                          for r in resume["reports"]),
            "serve.resume_setup_s": resume["submit_s"],
            "ckpt.journal_bytes": sum(r["journal_bytes"]
                                      for r in resume["reports"]),
            "ckpt.extra_live_batches": extra_live_batches(
                [kill["live_batches"], resume["live_batches"]], standalone),
        })
    else:
        out.update({k: 0 for k in SERVE_ONLY})
    return out


def median_metrics(iterations, names):
    """Per-metric median over a run's iterations."""
    return {n: median([it[n] for it in iterations]) for n in names}
