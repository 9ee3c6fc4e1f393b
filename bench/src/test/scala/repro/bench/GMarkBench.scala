package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa
import repro.data.GMark
import repro.harness.{BenchConfig, Runner}

/** Figures 7–9 (as tables): the gMark synthetic RPQ workload — DFA size vs
  * query size, throughput vs automaton size k, and throughput vs Δ index
  * size at fixed k.
  */
class GMarkBench extends AnyFunSuite {

  private lazy val workload = GMark.workload()
  private lazy val dfas = workload.map(r => (r, Dfa.fromRegex(r)))

  test("Fig 7 (as table): minimal-DFA size vs query size for 100 gMark RPQs") {
    val bySize = dfas.groupBy(_._1.size).toSeq.sortBy(_._1)
    println("\n### Fig 7 (as table) — DFA size k vs query size |Q_R| (100 queries)\n")
    println(Runner.markdownTable(
      Seq("|Q_R|", "queries", "min k", "mean k", "max k"),
      bySize.map { case (s, qs) =>
        val ks = qs.map(_._2.k)
        Seq(s.toString, qs.size.toString, ks.min.toString,
            Runner.fmt(ks.sum.toDouble / ks.size), ks.max.toString) }))

    // The paper's practical finding: no exponential DFA growth.
    dfas.foreach { case (r, dfa) =>
      assert(dfa.k <= 3 * r.size + 3, s"k=${dfa.k} exploded for size ${r.size}: $r")
    }
  }

  test("Fig 8/9 (as tables): throughput vs k; throughput vs index size at fixed k") {
    val (stream, window) = BenchConfig.gmark()
    // a deterministic subset keeps the bench under control
    val subset = dfas.zipWithIndex.filter(_._2 % 3 == 0).map(_._1)
    val results = subset.map { case (r, dfa) =>
      (r, dfa, Runner.runRapq(s"size=${r.size}", "gmark", dfa, window, stream))
    }

    println("\n### Fig 8 (as table) — RAPQ throughput vs automaton size k (gMark)\n")
    val byK = results.groupBy(_._2.k).toSeq.sortBy(_._1)
    println(Runner.markdownTable(
      Seq("k", "queries", "geo-mean throughput (t/s)", "min", "max"),
      byK.map { case (k, rs) =>
        val ts = rs.map(_._3.throughputPerSec)
        val geo = math.exp(ts.map(math.log).sum / ts.size)
        Seq(k.toString, rs.size.toString, Runner.fmt(geo),
            Runner.fmt(ts.min), Runner.fmt(ts.max)) }))

    println("\n### Fig 9 (as table) — throughput vs Δ index size (all measured queries)\n")
    println(Runner.markdownTable(
      Seq("query", "|Q_R|", "k", "Δ nodes", "throughput (t/s)"),
      results.sortBy(-_._3.nodes).map { case (r, dfa, res) =>
        Seq(r.toString.take(48), r.size.toString, dfa.k.toString, res.nodes.toString,
            Runner.fmt(res.throughputPerSec)) }))

    // Shape (paper §5.3): performance varies widely at fixed k; throughput
    // anti-correlates with index size. Check a rank correlation over all runs.
    val pairs = results.map(r => (r._3.nodes.toDouble, r._3.throughputPerSec))
    val n = pairs.size
    def ranks(xs: Seq[Double]) = {
      val sorted = xs.zipWithIndex.sortBy(_._1).map(_._2).zipWithIndex
      sorted.sortBy(_._1).map(_._2.toDouble)
    }
    val rN = ranks(pairs.map(_._1)); val rT = ranks(pairs.map(_._2))
    val d2 = rN.zip(rT).map { case (a, b) => (a - b) * (a - b) }.sum
    val spearman = 1.0 - 6.0 * d2 / (n * (n * n - 1.0))
    println(f"\nSpearman(index size, throughput) = $spearman%.3f over $n runs\n")
    assert(spearman < 0.0, "throughput should anti-correlate with index size")
  }
}
