package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.data.{Queries, StreamGen}
import repro.harness.{BenchConfig, Runner}
import repro.stream.WindowSpec

/** Figure 6 (as tables): sensitivity of Algorithm RAPQ to the window size
  * |W| and the slide interval β on the Yago-like graph (fixed-rate
  * timestamps make |W| an exact edge count, as in the paper).
  */
class WindowScalabilityBench extends AnyFunSuite {

  private val queries = Queries.yago.filter(q => Set("Q2", "Q7", "Q10").contains(q.name))
  private def stream(edges: Int) =
    StreamGen.yagoLike(nEntities = math.max(100, (3000 * BenchConfig.scale).toInt), edges)

  test("Fig 6(a) (as table): tail latency grows with the window size |W|") {
    val edges = math.max(2000, (24000 * BenchConfig.scale).toInt)
    val s = stream(edges)
    val sizes = Seq(edges / 8, edges / 4, edges * 3 / 8, edges / 2)
    val rows = for (q <- queries; w <- sizes) yield {
      val r = Runner.runRapq(q.name, s"|W|=$w", q.dfa, WindowSpec(w, math.max(1, w / 10)), s)
      (q.name, w, r)
    }
    println("\n### Fig 6(a) (as table) — tail latency vs window size (Yago-like)\n")
    println(Runner.markdownTable(
      Seq("query", "|W| (edges)", "p99 (µs)", "mean (µs)", "nodes", "expiry total (ms)"),
      rows.map { case (q, w, r) =>
        Seq(q, w.toString, Runner.fmt(r.p99Micros), Runner.fmt(r.meanMicros),
            r.nodes.toString, Runner.fmt(r.expiryMillis)) }))

    // Shape: the largest window is never cheaper than the smallest one
    // (index sizes scale with |W|; allow noise on the intermediate points).
    queries.foreach { q =>
      val ofQ = rows.filter(_._1 == q.name).sortBy(_._2)
      assert(ofQ.last._3.nodes >= ofQ.head._3.nodes,
        s"${q.name}: index must grow with |W|")
    }
  }

  test("Fig 6(b) (as table): expiry cost grows with β but amortizes to a constant") {
    val edges = math.max(2000, (24000 * BenchConfig.scale).toInt)
    val s = stream(edges)
    val wSize = edges / 3
    val betas = Seq(wSize / 40, wSize / 20, wSize / 10, wSize / 5)
    val rows = for (q <- queries; b <- betas) yield {
      val r = Runner.runRapq(q.name, s"beta=$b", q.dfa, WindowSpec(wSize, math.max(1, b)), s)
      (q.name, b, r)
    }
    println("\n### Fig 6(b) (as table) — window maintenance vs slide interval β\n")
    println(Runner.markdownTable(
      Seq("query", "β", "expiry runs' total (ms)", "expiry per slide (ms)", "p99 (µs)"),
      rows.map { case (q, b, r) =>
        Seq(q, b.toString, Runner.fmt(r.expiryMillis),
            Runner.fmt(r.expiryMillis / math.max(1.0, edges.toDouble / b)),
            Runner.fmt(r.p99Micros)) }))

    // Shape: per-slide expiry cost grows with β (fewer, bigger slides), while
    // the total over the stream stays within a small factor.
    queries.foreach { q =>
      val ofQ = rows.filter(_._1 == q.name).sortBy(_._2)
      val perSlideSmall = ofQ.head._3.expiryMillis / (edges.toDouble / ofQ.head._2)
      val perSlideBig   = ofQ.last._3.expiryMillis / (edges.toDouble / ofQ.last._2)
      assert(perSlideBig >= perSlideSmall * 0.5,
        s"${q.name}: per-slide expiry cost should grow with β")
    }
  }
}
