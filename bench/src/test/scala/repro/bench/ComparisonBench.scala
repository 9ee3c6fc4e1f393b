package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.data.{Queries, StreamGen}
import repro.harness.{BenchConfig, Runner}
import repro.stream.WindowSpec

/** Figure 11 (as table): speed-up of the incremental Algorithm RAPQ over the
  * emulated persistent-query baseline that re-evaluates the full window per
  * arrival (the paper's Virtuoso emulation, §5.6; substitution documented in
  * DESIGN.md §2/§4).
  */
class ComparisonBench extends AnyFunSuite {

  test("Fig 11 (as table): RAPQ vs full-re-evaluation baseline, Yago-like graph") {
    // the baseline is O(batch) per tuple — keep the stream short for it
    val edges = math.max(600, (2400 * BenchConfig.scale).toInt)
    val stream = StreamGen.yagoLike(
      nEntities = math.max(100, (600 * BenchConfig.scale).toInt), nEdges = edges)
    val window = WindowSpec(size = edges / 4, slide = math.max(1, edges / 40))

    val rows = Queries.yago.map { q =>
      val inc  = Runner.runRapq(q.name, "yago", q.dfa, window, stream)
      val base = Runner.runBaseline(q.name, "yago", q.dfa, window, stream)
      (q, inc, base)
    }

    println("\n### Fig 11 (as table) — RAPQ vs per-arrival re-evaluation baseline\n")
    println(Runner.markdownTable(
      Seq("query", "RAPQ t/s", "baseline t/s", "speed-up (throughput)",
          "RAPQ p99 (µs)", "baseline p99 (µs)", "speed-up (p99)"),
      rows.map { case (q, inc, base) =>
        Seq(q.name, Runner.fmt(inc.throughputPerSec), Runner.fmt(base.throughputPerSec),
            f"${inc.throughputPerSec / math.max(1e-9, base.throughputPerSec)}%.0fx",
            Runner.fmt(inc.p99Micros), Runner.fmt(base.p99Micros),
            f"${base.p99Micros / math.max(1e-9, inc.p99Micros)}%.0fx") }))

    // Shape (paper §5.6): the incremental algorithm wins on every query, by
    // a large factor on the recursive ones.
    rows.foreach { case (q, inc, base) =>
      assert(inc.throughputPerSec > base.throughputPerSec,
        s"${q.name}: incremental must beat per-arrival re-evaluation")
    }
    val maxSpeedup = rows.map { case (_, inc, base) =>
      inc.throughputPerSec / math.max(1e-9, base.throughputPerSec)
    }.max
    assert(maxSpeedup > 10, f"expected order-of-magnitude speed-ups, got $maxSpeedup%.1fx")
  }
}
