"""The repo benchmark: time to a verified binary, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload serve-resume-j2 --seed 1 --seconds 36 --trace 0

It builds ``perfbench/child.exe`` with dune, then runs the workload again
and again, each time in fresh processes, for about ``--seconds``.
Every search is checked against the digest pinned in ``pins.json``.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` (medians over the run's iterations) with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``.  A human-readable table
precedes it.

``--seed`` permutes the order in which the workload's apps are run or
submitted; search results must not depend on it.  ``--search-seed``
selects the pinned capture/search seed (default: the repo's default 7).
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join("_build", "default", "perfbench", "child.exe")
WORK = os.path.join("perfbench", ".work")
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 170

WORKLOADS = {
    "scimark-j1": {"kind": "search", "apps": ["FFT", "LU", "SOR"],
                   "corpus": 1, "jobs": 1},
    "interactive-corpus-j2": {"kind": "search",
                              "apps": ["MaterialLife", "DroidFish"],
                              "corpus": 4, "jobs": 2},
    "serve-resume-j2": {"kind": "serve",
                        "apps": ["FFT", "SOR", "DroidFish", "Sieve"],
                        "corpus": 1, "jobs": 2, "abort_after": 22},
}

# End-to-end figures printed in the table; BENCHMARK.json gates the subset
# that is a measured, never-zero value on every workload.
TABLE = [("setup_s", "s"), ("search_s", "s"), ("time_to_binary_s_max", "s"),
         ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("capture_pause_ms", "ms"),
         ("speedup_vs_o3", "x"), ("speedup_vs_android", "x"),
         ("resume_setup_s", "s")]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (dune-project and lib/ missing)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./" + CHILD],
                       stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed", 1)


def child(mode, apps, seed, trace, **opts):
    """Run one cold ``child.exe`` process and return its JSON record."""
    cmd = [CHILD, mode, "--apps", ",".join(apps), "--seed", str(seed)]
    for k, v in opts.items():
        if v is True:
            cmd.append("--" + k)
        elif v is not None and v is not False:
            cmd += ["--" + k, str(v)]
    if trace:
        cmd.append("--trace")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def search_iteration(w, apps, seed, trace, pins):
    # one cold process per app, so no app inherits another's caches
    recs = [child("search", [app], seed, trace, corpus=w["corpus"],
                  jobs=w["jobs"]) for app in apps]
    layer = None
    if trace:
        ok = [a for rec in recs for a in rec["apps"] if a["ok"]]
        layer = metrics.layer_metrics(
            recs, [a["pause_ms"] for a in ok], sum(a["snapshots"] for a in ok))
    return (metrics.search_iteration(recs), metrics.search_outcomes(recs), [],
            layer)


# Serve tenants' baselines are deterministic in (app, seed), so only a
# run's first resume process rebuilds them, after its measured section.
_baselines = []


def serve_iteration(w, apps, seed, trace, pins):
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        kill = child("serve", apps, seed, trace, jobs=w["jobs"], dir=WORK,
                     abort=w["abort_after"])
        resume = child("serve", apps, seed, trace, jobs=w["jobs"], dir=WORK,
                       baselines=not _baselines)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if not _baselines:
        _baselines.extend(resume["baselines"])
    e2e = metrics.serve_iteration(kill, resume, _baselines)
    standalone = [pins[a]["batches"] for a in apps]
    extra = metrics.extra_live_batches(
        [kill["live_batches"], resume["live_batches"]], standalone)
    problems = [] if extra == 0 else [f"{extra} extra live batches on resume"]
    layer = None
    if trace:
        layer = metrics.layer_metrics(
            [kill, resume], [b["pause_ms"] for b in _baselines],
            len(apps), serve=(kill, resume, standalone))
    return e2e, metrics.serve_outcomes(kill, resume), problems, layer


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def load_pins(workload, search_seed):
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    try:
        return pins[str(search_seed)][workload]
    except KeyError:
        fail(f"no pinned digests for {workload} at search seed {search_seed}")


def fmt(v):
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def print_table(workload, plain, traced, attempted, failed):
    print(f"== {workload}: {len(plain)} untraced, {len(traced)} traced "
          "iteration(s), median [tail] (n)")
    for name, unit in TABLE:
        vals = [it[name] for it in plain if name in it]
        if vals:
            d = metrics.distribution(vals)
            tail = f" [p{d['tail_pct']} {fmt(d['tail'])}]" if d["n"] >= 20 else ""
            print(f"  {name:24} {fmt(d['p50']):>10} {unit:3}{tail} (n={d['n']})")
    print(f"  {'failed_share':24} "
          f"{fmt(metrics.failed_share(attempted, failed)):>10} ratio "
          f"({failed}/{attempted})")
    steps = [s for it in plain for s in it["step_ms"]]
    if steps:
        d = metrics.distribution(steps)
        print(f"  {'search step':24} {fmt(d['p50']):>10} ms  "
              f"[p{d['tail_pct']} {fmt(d['tail'])}] (n={d['n']})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--search-seed", type=int, default=7)
    args = ap.parse_args()

    spec = load_spec()
    build()
    w = WORKLOADS[args.workload]
    pins = load_pins(args.workload, args.search_seed)
    apps = list(w["apps"])
    random.Random(args.seed).shuffle(apps)
    step = search_iteration if w["kind"] == "search" else serve_iteration

    plain, traced, layers = [], [], []
    attempted = failed = 0
    problems = []
    start = time.monotonic()
    longest = 0.0
    while True:
        # a traced run alternates untraced and traced iterations, so the
        # tracing overhead is measured within the run
        trace = bool(args.trace) and len(traced) < len(plain)
        t0 = time.monotonic()
        try:
            e2e, outcomes, probs, layer = step(w, apps, args.search_seed,
                                               trace, pins)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            attempted += len(apps)
            failed += len(apps)
            problems.append(str(e))
            break
        n, f, reasons = metrics.check_outcomes(
            outcomes, {a: pins[a]["digest"] for a in pins})
        attempted, failed = attempted + n, failed + f
        problems += reasons + probs
        (traced if trace else plain).append(e2e)
        if layer is not None:
            layers.append(layer)
        # start another iteration only if it should end no later than half
        # an iteration past --seconds (a traced run needs one of each kind)
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed + longest > RUN_LIMIT_S:
            break
        if elapsed + longest / 2 > args.seconds and (not args.trace or traced):
            break

    for p in problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    if plain:
        print_table(args.workload, plain, traced, attempted, failed)
    if args.trace and plain and traced:
        wall = metrics.median([it["wall_s"] for it in plain])
        overhead = metrics.median([it["wall_s"] for it in traced]) - wall
        values = metrics.median_metrics(layers, layers[0].keys())
        values["trace.overhead_s"] = overhead
        values["trace.overhead_ratio"] = overhead / wall
        wanted = spec["per_layer"]
    elif not args.trace and plain:
        values = metrics.median_metrics(
            plain, [n for n, _ in TABLE if all(n in it for it in plain)])
        wanted = spec["end_to_end"]
    else:
        values, wanted = {}, []
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
           for m in wanted if m["name"] in values}
    if args.trace:
        for name in sorted(values):
            print(f"  {name:40} {fmt(values[name])}")
    correct = failed == 0 and not problems and len(out) == len(wanted) > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": out}))


if __name__ == "__main__":
    main()
