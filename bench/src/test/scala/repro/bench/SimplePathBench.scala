package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.data.Queries
import repro.harness.{BenchConfig, Runner}

/** Table 4: which queries can be evaluated under simple path semantics per
  * graph, and the latency overhead of Algorithm RSPQ relative to RAPQ.
  *
  * A query is "successful" when the stream completes within the per-tuple
  * extension budget — conflict blow-ups (the NP-hard regime) exhaust it.
  */
class SimplePathBench extends AnyFunSuite {

  test("Table 4: successful queries under simple path semantics & relative slowdown") {
    val budget = 300_000L
    val rows = for {
      ds <- Seq("yago", "so", "ldbc")
      q  <- Queries.forDataset(ds)
    } yield {
      val (stream, window) = BenchConfig.dataset(ds)
      val rapq = Runner.runRapq(q.name, ds, q.dfa, window, stream)
      val rspq = Runner.runRspq(q.name, ds, q.dfa, window, stream, stepBudget = budget)
      (ds, q.name, rapq, rspq)
    }

    println("\n### Table 4 — RSPQ feasibility and overhead (budgeted)\n")
    println(Runner.markdownTable(
      Seq("dataset", "query", "successful", "conflicts", "RAPQ p99 (µs)",
          "RSPQ p99 (µs)", "overhead"),
      rows.map { case (ds, q, ra, rs) =>
        Seq(ds, q, if (rs.completed) "yes" else "NO (budget)",
            rs.conflicts.toString, Runner.fmt(ra.p99Micros),
            if (rs.completed) Runner.fmt(rs.p99Micros) else "—",
            if (rs.completed) f"${rs.p99Micros / math.max(1e-9, ra.p99Micros)}%.1fx"
            else "—") }))

    val byDs = rows.groupBy(_._1)

    // Paper Table 4 row 1: all queries succeed on the (mostly acyclic,
    // heterogeneous) Yago-like graph.
    byDs("yago").foreach { case (_, q, _, rs) =>
      assert(rs.completed, s"yago/$q should be evaluable under simple path semantics")
    }

    // The restricted expressions Q1, Q4, Q11 succeed on every graph (paper
    // §5.5). Q1 and Q4 are additionally conflict-free by the containment
    // property; Q11's chain DFA *does* raise Definition-16 conflicts when a
    // cyclic path returns to an earlier vertex at the accepting state (an
    // ε-only suffix-language difference), but evaluation still completes —
    // "successful" ≠ "zero conflicts" (see EXPERIMENTS.md).
    rows.filter(r => Set("Q1", "Q4", "Q11").contains(r._2)).foreach {
      case (ds, q, _, rs) => assert(rs.completed, s"$ds/$q must succeed")
    }
    rows.filter(r => Set("Q1", "Q4").contains(r._2)).foreach {
      case (ds, q, _, rs) => assert(rs.conflicts == 0, s"$ds/$q is conflict-free")
    }

    // Successful-query sets per dataset (our Table 4).
    Seq("yago", "so", "ldbc").foreach { ds =>
      val ok = byDs(ds).filter(_._4.completed).map(_._2)
      println(s"successful on $ds: ${ok.mkString(", ")}")
    }
  }
}
