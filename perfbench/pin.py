"""Regenerate ``pins.json``: every (search seed, workload, app)'s search
digest and live batch count, from standalone searches, one cold process
per app.  A serve tenant is pinned to the standalone search it must equal.

    python3 perfbench/pin.py 7 11

Only re-pin when a change is meant to alter search results.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    seeds = [int(s) for s in sys.argv[1:]] or [7]
    run.build()
    path = os.path.join(run.HERE, "pins.json")
    pins = {}
    if os.path.exists(path):
        with open(path) as f:
            pins = json.load(f)
    for seed in seeds:
        per_seed = pins.setdefault(str(seed), {})
        for name, w in run.WORKLOADS.items():
            per_seed[name] = {}
            for app in w["apps"]:
                rec = run.child("search", [app], seed, False,
                                corpus=w["corpus"], jobs=w["jobs"])
                a = rec["apps"][0]
                if not a["ok"]:
                    run.fail(f"{name}/{app} at seed {seed}: {a['error']}", 1)
                per_seed[name][app] = {"digest": a["digest"],
                                       "batches": a["live_batches"]}
                print(f"seed {seed} {name} {app}: {a['digest']} "
                      f"({a['live_batches']} batches)", file=sys.stderr)
    with open(path, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
