package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Containment
import repro.data.Queries
import repro.harness.Runner

/** Tables 2 & 3: the real-world RPQ workload instantiated per dataset, with
  * minimal-DFA sizes and the conflict-freedom signal (containment property).
  */
class QueriesWorkloadBench extends AnyFunSuite {

  test("Table 2/3: queries per dataset, DFA size k, containment property") {
    val rows = for {
      ds <- Seq("so", "ldbc", "yago")
      q  <- Queries.forDataset(ds)
    } yield {
      val c = Containment(q.dfa)
      Seq(ds, q.name, q.pattern, q.regex.size.toString, q.dfa.k.toString,
          if (c.hasContainmentProperty) "yes" else "no")
    }
    println("\n### Table 2/3 — real-world RPQ workload (per dataset)\n")
    println(Runner.markdownTable(
      Seq("dataset", "query", "pattern", "|Q_R|", "k (min DFA)", "containment property"),
      rows))

    assert(rows.count(_.head == "so") == 11)
    assert(rows.count(_.head == "ldbc") == 8)
    assert(rows.count(_.head == "yago") == 11)
    // restricted expressions are conflict-free on any graph
    rows.filter(r => r(1) == "Q1" || r(1) == "Q4").foreach(r => assert(r(5) == "yes"))
    // every minimal DFA is small (the paper's practical observation)
    rows.foreach(r => assert(r(4).toInt <= 4))
  }
}
