"""Tests of the benchmark's metric arithmetic on fixed synthetic inputs.

    python3 perfbench/test_metrics.py    (also run by `dune runtest`)
"""

import json
import os
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertEqual(metrics.tail_percentile(20), 50)
        self.assertEqual(metrics.tail_percentile(40), 75)
        self.assertEqual(metrics.tail_percentile(99), 80)
        self.assertEqual(metrics.tail_percentile(100), 90)
        self.assertEqual(metrics.tail_percentile(200), 95)
        self.assertEqual(metrics.tail_percentile(1000), 99)

    def test_distribution(self):
        d = metrics.distribution([float(v) for v in range(100, 0, -1)])
        self.assertEqual(d, {"p50": 50.5, "tail": 90.0, "tail_pct": 90,
                             "n": 100})
        # exactly ten samples lie beyond the reported tail
        self.assertEqual(sum(v > d["tail"] for v in range(1, 101)), 10)

    def test_small_samples_fall_back_to_median(self):
        self.assertEqual(metrics.distribution([3.0, 1.0, 2.0]),
                         {"p50": 2.0, "tail": 2.0, "tail_pct": 50, "n": 3})


class PoolIdle(unittest.TestCase):
    def test_single_worker_is_never_idle(self):
        phases = [[[0.125, 1.5]], [[1.5, 2.75]], [[3.0, 3.0625]]]
        self.assertEqual(metrics.pool_idle_s(phases), 0.0)
        self.assertEqual(metrics.pool_busy_s(phases), 2.6875)

    def test_barrier_and_start_skew(self):
        # two workers: one stops 0.5 s early, one starts 0.25 s late
        phases = [[[0.0, 2.0], [0.0, 1.5]], [[2.0, 3.0], [2.25, 3.0]]]
        self.assertAlmostEqual(metrics.pool_idle_s(phases), 0.5 + 0.25)
        self.assertAlmostEqual(metrics.pool_busy_s(phases), 3.5 + 1.75)


class Speedups(unittest.TestCase):
    def test_geometric_mean(self):
        self.assertAlmostEqual(
            metrics.geomean_speedup([2.0, 8.0], [1.0, 2.0]), 8 ** 0.5)
        self.assertAlmostEqual(
            metrics.geomean_speedup([3.0, 3.0, 3.0], [1.0, 3.0, 9.0]), 1.0)


class Resume(unittest.TestCase):
    def test_extra_live_batches(self):
        self.assertEqual(metrics.extra_live_batches([22, 22], [11] * 4), 0)
        # a resume that re-evaluated three checkpointed batches
        self.assertEqual(metrics.extra_live_batches([22, 25], [11] * 4), 3)


class FailedShare(unittest.TestCase):
    def test_wrong_pinned_digest_counts_as_failed(self):
        outcomes = [("FFT", None, "aa"), ("LU", None, "bb"),
                    ("SOR", None, "cc"), ("Sieve", "raised", None)]
        pins = {"FFT": "aa", "LU": "deliberately-wrong", "SOR": "cc",
                "Sieve": "dd"}
        attempted, failed, reasons = metrics.check_outcomes(outcomes, pins)
        self.assertEqual((attempted, failed), (4, 2))
        self.assertEqual(metrics.failed_share(attempted, failed), 0.5)
        self.assertIn("LU", reasons[0])
        self.assertEqual(reasons[1], "Sieve: raised")

    def test_all_pinned(self):
        outcomes = [("FFT", None, "aa")]
        self.assertEqual(metrics.check_outcomes(outcomes, {"FFT": "aa"}),
                         (1, 0, []))


def _trace(**counters):
    spans = {n: [] for n in ("compile:llvm", "verify", "evalpool:batch",
                             "pass:licm", "bench:search_step", "bench:drive",
                             "make_eval_env", "capture_corpus", "online_run")}
    spans.update({"compile:llvm": [2.0, 4.0], "verify": [3.0],
                  "evalpool:batch": [10.0], "bench:search_step": [12.0],
                  "bench:drive": [12.0]})
    return {"counters": counters, "spans_ms": spans,
            "layer_self_s": {"capture": 0.5, "search": 0.25, "compile": 1.0,
                             "verify": 2.0, "core": 0.125},
            "pool_phases": [[[0.0, 0.004]], [[0.004, 0.01]]]}


def _stagecache():
    return {"prefix_hits": 3, "prefix_misses": 1, "binary_hits": 1,
            "binary_misses": 3, "genes_reused": 1, "genes_run": 1,
            "evictions": 2, "bytes_held": 2 ** 21}


class Ledger(unittest.TestCase):
    def test_every_named_metric_is_emitted(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        rec = {"trace": _trace(**{"evalpool.tasks": 4,
                                  "evalpool.genome_hits": 1,
                                  "replay.template_builds": 3}),
               "stagecache": _stagecache()}
        search = metrics.layer_metrics([rec], [9.0], 3)
        serve_rec = {"submit_s": 1.0, "drive_s": 2.0, "rounds": 6,
                     "fairness_spread": 0.0, "live_batches": 22,
                     "reports": [{"replayed_batches": 11,
                                  "journal_bytes": 100}] * 2}
        serve = metrics.layer_metrics(
            [rec, rec], [9.0, 11.0], 2, serve=(serve_rec, serve_rec, [11] * 4))
        names = {m["name"] for m in spec["per_layer"]} - {
            "trace.overhead_s", "trace.overhead_ratio"}
        self.assertEqual(set(search), names)
        self.assertEqual(set(serve), names)
        self.assertEqual(search["evalpool.idle_s"], 0.0)
        self.assertEqual(search["replay.template_builds_per_snapshot"], 1.0)
        self.assertEqual(search["evalpool.genome_hit_ratio"], 0.25)
        self.assertEqual(search["stagecache.mb_held"], 2.0)
        self.assertAlmostEqual(search["search.overhead_s"], 0.002)
        self.assertEqual(serve["ckpt.extra_live_batches"], 0)
        self.assertEqual(serve["stagecache.evictions"], 4)

    def test_search_iteration(self):
        app = {"ok": True, "capture_s": 0.5, "start_s": 0.25,
               "steps_s": [1.0, 2.0], "total_s": 3.75, "pause_ms": 10.0,
               "android_ms": 4.0, "o3_ms": 2.0, "best_ms": 1.0}
        recs = [{"cpu_s": 4.0, "peak_rss_mb": 300.0, "wall_s": 4.0,
                 "apps": [app]},
                {"cpu_s": 5.0, "peak_rss_mb": 200.0, "wall_s": 4.75,
                 "apps": [dict(app, total_s=4.5, pause_ms=20.0)]}]
        it = metrics.search_iteration(recs)
        self.assertEqual(it["setup_s"], 1.5)
        self.assertEqual(it["search_s"], 6.0)
        self.assertEqual(it["time_to_binary_s_max"], 4.5)
        self.assertEqual(it["capture_pause_ms"], 15.0)
        self.assertEqual((it["cpu_s"], it["peak_rss_mb"]), (9.0, 300.0))
        self.assertAlmostEqual(it["speedup_vs_o3"], 2.0)
        self.assertAlmostEqual(it["speedup_vs_android"], 4.0)


if __name__ == "__main__":
    unittest.main()
