package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.data.{Queries, StreamGen}
import repro.harness.{BenchConfig, Runner}

/** Figure 10 (as table): impact of explicit deletions (negative tuples) on
  * tail latency, Yago-like graph, deletion ratio 0%–10% (paper §5.4).
  */
class DeletionsBench extends AnyFunSuite {

  test("Fig 10 (as table): tail latency vs explicit-deletion ratio") {
    val (base, window) = BenchConfig.yago()
    val queries = Queries.yago.filter(q => Set("Q1", "Q2", "Q7", "Q9", "Q11").contains(q.name))
    val ratios = Seq(0.0, 0.02, 0.05, 0.10)

    val rows = for (q <- queries; ratio <- ratios) yield {
      val stream = if (ratio == 0.0) base else StreamGen.withDeletions(base, ratio)
      val r = Runner.runRapq(q.name, f"del=${ratio * 100}%.0f%%", q.dfa, window, stream)
      (q.name, ratio, r)
    }

    println("\n### Fig 10 (as table) — explicit deletions, Yago-like graph\n")
    println(Runner.markdownTable(
      Seq("query", "deletion ratio", "p99 (µs)", "mean (µs)", "p99 vs 0%"),
      rows.map { case (q, ratio, r) =>
        val basep99 = rows.find(x => x._1 == q && x._2 == 0.0).get._3.p99Micros
        Seq(q, f"${ratio * 100}%.0f%%", Runner.fmt(r.p99Micros),
            Runner.fmt(r.meanMicros),
            f"${r.p99Micros / math.max(1e-9, basep99)}%.2fx") }))

    // Shape (paper §5.4): deletions add overhead, but the impact stays
    // relatively steady as the ratio grows (the window shrinks with it).
    queries.foreach { q =>
      val ofQ = rows.filter(_._1 == q.name)
      val base99 = ofQ.find(_._2 == 0.0).get._3.p99Micros
      val worst = ofQ.map(_._3.p99Micros).max
      assert(worst < math.max(50.0, base99 * 50),
        s"${q.name}: deletion overhead exploded ($base99 -> $worst µs)")
    }
  }
}
