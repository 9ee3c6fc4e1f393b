"""Self-tests of the benchmark's aggregation: python3 -m unittest discover -s rpqbench"""

import unittest

import run


class TailPercentile(unittest.TestCase):
    def test_picks_highest_ladder_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(100), 9000)
        self.assertEqual(run.tail_percentile(99), 7500)
        self.assertEqual(run.tail_percentile(199), 9000)
        self.assertEqual(run.tail_percentile(200), 9500)
        self.assertEqual(run.tail_percentile(1000), 9900)
        self.assertEqual(run.tail_percentile(99999), 9990)
        self.assertEqual(run.tail_percentile(100000), 9999)
        self.assertEqual(run.tail_percentile(20), 5000)
        self.assertIsNone(run.tail_percentile(19))

    def test_reported_percentile_has_ten_samples_beyond(self):
        for n in range(20, 5000):
            pp = run.tail_percentile(n)
            self.assertGreaterEqual(run.beyond(n, pp), 10)
            higher = [p for p in run.LADDER if p > pp]
            if higher:
                self.assertLess(run.beyond(n, higher[0]), 10)

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(run.percentile(xs, 5000), 50)
        self.assertEqual(run.percentile(xs, 9900), 99)
        self.assertEqual(run.percentile(xs, 9999), 100)
        self.assertEqual(run.beyond(100, 9900), 1)


class HostScale(unittest.TestCase):
    @staticmethod
    def fork(walk_ns):
        p = {"traced": False, "timed_tuples": 1000, "wall_ns": 10**9, "slides": 20,
             "arrival_ns": [100_000] * 50, "slide_ns": [1_000_000] * 20,
             "nodes_per_slide": 10.0, "heap_bytes": 2**20, "host_walk_ns": walk_ns}
        return {"min_timed_passes": 1, "passes": [p]}

    def test_timings_follow_the_median_walk(self):
        nominal = self.fork([run.HOST_WALK_NS] * 5)
        # Half as fast a host; one walk hit by a collection does not count.
        slow = self.fork([2 * run.HOST_WALK_NS] * 4 + [100 * run.HOST_WALK_NS])
        m0, s0 = run.end_to_end([nominal], [1.0])
        m1, s1 = run.end_to_end([slow], [1.0])
        self.assertAlmostEqual(m0["throughput_tps"][0], 1000)
        self.assertAlmostEqual(m1["throughput_tps"][0], 2000)
        self.assertAlmostEqual(m1["latency_p50_us"][0], 50)
        self.assertAlmostEqual(m1["slide_p50_us"][0], 500)
        self.assertAlmostEqual(s1["unscaled_throughput_tps"], 1000)
        self.assertEqual(m1["delta_nodes"], m0["delta_nodes"])
        self.assertAlmostEqual(m0["setup_s"][0], 1.0)
        self.assertAlmostEqual(m1["setup_s"][0], 0.5)


if __name__ == "__main__":
    unittest.main()
