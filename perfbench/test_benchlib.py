"""Tests of the benchmark's own helpers.

    python3 -B -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        # 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        self.assertEqual(bl.tail(list(range(1000)))[0], 99.0)
        # 999 samples: p99 would leave 9, so the rule falls to p95.
        self.assertEqual(bl.tail(list(range(999)))[0], 95.0)
        self.assertEqual(bl.tail(list(range(10010)))[0], 99.9)

    def test_value_and_count(self):
        q, v, n = bl.tail([float(i) for i in range(1, 201)])
        self.assertEqual((q, n), (95.0, 200))
        self.assertEqual(v, 190.0)  # nearest rank: the 190th of 200
        beyond = sum(1 for x in range(1, 201) if x > v)
        self.assertGreaterEqual(beyond, bl.TAIL_MIN_BEYOND)

    def test_small_sample_falls_back_to_median(self):
        self.assertEqual(bl.tail([3.0, 1.0, 2.0])[:2], (50.0, 2.0))

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            bl.tail([])


class TrimmedMean(unittest.TestCase):
    def test_drops_both_tails(self):
        vals = [1.0] + [10.0] * 8 + [1000.0]
        self.assertEqual(bl.trimmed_mean(vals), 10.0)

    def test_follows_the_mix_of_two_modes(self):
        mostly_slow = [35.0] * 4 + [50.0] * 16
        mostly_fast = [35.0] * 16 + [50.0] * 4
        self.assertAlmostEqual(bl.trimmed_mean(mostly_slow), 48.125)
        self.assertAlmostEqual(bl.trimmed_mean(mostly_fast), 36.875)

    def test_small_sample_keeps_everything(self):
        self.assertEqual(bl.trimmed_mean([2.0, 4.0]), 3.0)


class FailureCounting(unittest.TestCase):
    OK = "result id=%d status=ok kind=analyze name=%s fp=ab cached=0 ms=1.0 " \
         "stop=proven nodes=3 t0.rs=2"

    def test_all_answered(self):
        lines = [self.OK % (1, "a"), self.OK % (2, "b")]
        self.assertEqual(bl.count_failures(["a", "b"], lines), (2, 0, 0, 0))

    def test_error_line_counts(self):
        lines = [self.OK % (1, "a"),
                 "result id=2 status=error name=b msg=precondition%20failed"]
        self.assertEqual(bl.count_failures(["a", "b"], lines), (2, 1, 1, 0))

    def test_refusal_counts_once(self):
        # An unparseable request is answered under the reader's own name.
        lines = [self.OK % (1, "a"),
                 "result id=2 status=error name=line2 msg=unknown%20command"]
        self.assertEqual(bl.count_failures(["a", "b"], lines), (2, 1, 1, 0))

    def test_missing_line_counts(self):
        self.assertEqual(bl.count_failures(["a", "b", "c"], [self.OK % (1, "a")]),
                         (3, 2, 0, 2))

    def test_duplicate_names_need_one_line_each(self):
        lines = [self.OK % (1, "a")]
        self.assertEqual(bl.count_failures(["a", "a"], lines), (2, 1, 0, 1))

    def test_control_acks_are_ignored(self):
        lines = [self.OK % (1, "a"), "drained", "stats submitted=1"]
        self.assertEqual(bl.count_failures(["a"], lines), (1, 0, 0, 0))


class ResultLines(unittest.TestCase):
    LINE = ("result id=7 status=ok kind=reduce name=r1 fp=00ff cached=1 "
            "ms=0.125 stop=proven nodes=12 success=1 t0.status=reduced "
            "t0.rs=4 t1.status=fits t1.rs=3 ddg=ddg%20x")

    def test_fields(self):
        f = bl.parse_fields(self.LINE)
        self.assertEqual(f[""], "result")
        self.assertEqual(f["kind"], "reduce")
        self.assertEqual(f["ddg"], "ddg%20x")
        self.assertEqual(bl.per_type(f, "rs"), {0: 4, 1: 3})

    def test_bare_token(self):
        self.assertEqual(bl.parse_fields("drained"), {"": "drained"})
        self.assertEqual(bl.parse_fields("x flag")["flag"], "1")

    def test_normalize_drops_delivery_fields(self):
        hit = self.LINE
        cold = self.LINE.replace("id=7", "id=1").replace("cached=1", "cached=0") \
            .replace("ms=0.125", "ms=33.000").replace("name=r1", "name=w1x0")
        self.assertEqual(bl.normalize_result(hit), bl.normalize_result(cold))
        other = self.LINE.replace("t0.rs=4", "t0.rs=5")
        self.assertNotEqual(bl.normalize_result(other), bl.normalize_result(hit))


class MetricsExposition(unittest.TestCase):
    BODY = [
        "# TYPE rsat_engine_misses counter",
        "rsat_engine_misses_total 12",
        "# TYPE rsat_pool_queue_wait_ms histogram",
        'rsat_pool_queue_wait_ms_bucket{le="0.5"} 3',
        'rsat_pool_queue_wait_ms_bucket{le="+Inf"} 4',
        "rsat_pool_queue_wait_ms_sum 2.25",
        "rsat_pool_queue_wait_ms_count 4",
        "# EOF",
    ]

    def test_parse(self):
        m = bl.parse_prometheus("\n".join(self.BODY))
        self.assertEqual(m["rsat_engine_misses_total"], 12.0)
        self.assertEqual(m['rsat_pool_queue_wait_ms_bucket{le="+Inf"}'], 4.0)
        self.assertEqual(m["rsat_pool_queue_wait_ms_sum"], 2.25)

    def test_framing_stops_at_eof(self):
        it = iter(self.BODY + ["result id=1 status=ok name=a"])
        m = bl.read_prometheus(it)
        self.assertEqual(len(m), 5)
        self.assertEqual(next(it), "result id=1 status=ok name=a")

    def test_missing_eof_is_an_error(self):
        with self.assertRaises(ValueError):
            bl.parse_prometheus("\n".join(self.BODY[:-1]))
        with self.assertRaises(ValueError):
            bl.read_prometheus(iter(self.BODY[:-1]))


if __name__ == "__main__":
    unittest.main()
