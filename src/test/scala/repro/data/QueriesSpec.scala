package repro.data

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Containment

class QueriesSpec extends AnyFunSuite {

  test("Table 2: eleven templates, named Q1..Q11") {
    val qs = Queries.templates("a", "b", "c")
    assert(qs.map(_.name) == (1 to 11).map(i => s"Q$i"))
  }

  test("every template parses and compiles to a DFA") {
    Queries.templates("a", "b", "c").foreach { q =>
      assert(q.dfa.k >= 1, q.name)
    }
  }

  test("Q11 is the only non-recursive query (fixed-size language)") {
    val qs = Queries.templates("a", "b", "c")
    val starless = qs.filter(q => !q.pattern.contains("*") && !q.pattern.contains("+"))
    assert(starless.map(_.name) == Seq("Q11"))
  }

  test("SO instantiation uses the three SO labels and covers all edges") {
    val labels = Queries.so.flatMap(_.regex.labels).toSet
    assert(labels == Set("a2q", "c2a", "c2q"))
    assert(Queries.so.size == 11)
  }

  test("LDBC instantiation skips Q4, Q9, Q10 (paper §5.1.2)") {
    assert(Queries.ldbc.map(_.name) ==
      Seq("Q1", "Q2", "Q3", "Q5", "Q6", "Q7", "Q8", "Q11"))
  }

  test("Yago instantiation keeps all 11 queries") {
    assert(Queries.yago.size == 11)
    assert(Queries.yago.flatMap(_.regex.labels).toSet ==
      Set("participatedIn", "happenedIn", "hasCapital"))
  }

  test("restricted queries Q1 and Q4 have the containment property (conflict-free anywhere)") {
    val qs = Queries.templates("a", "b", "c")
    val byName = qs.map(q => q.name -> q).toMap
    assert(Containment(byName("Q1").dfa).hasContainmentProperty)
    assert(Containment(byName("Q4").dfa).hasContainmentProperty)
  }

  test("Q9 lacks the containment property (conflicts possible on cyclic graphs)") {
    val q9 = Queries.templates("a", "b", "c").find(_.name == "Q9").get
    assert(!Containment(q9.dfa).hasContainmentProperty)
  }

  test("DFA sizes are small for all real-world queries (k <= 4)") {
    Queries.templates("a", "b", "c").foreach { q =>
      assert(q.dfa.k <= 4, s"${q.name}: k=${q.dfa.k}")
    }
  }

  test("forDataset dispatch") {
    assert(Queries.forDataset("so") == Queries.so)
    assert(Queries.forDataset("ldbc") == Queries.ldbc)
    assert(Queries.forDataset("yago") == Queries.yago)
    intercept[IllegalArgumentException](Queries.forDataset("nope"))
  }

  test("query sizes follow the paper's |Q_R| definition") {
    val byName = Queries.templates("a", "b", "c").map(q => q.name -> q).toMap
    assert(byName("Q1").regex.size == 2)  // a*
    assert(byName("Q4").regex.size == 4)  // 3 labels + 1 star
    assert(byName("Q11").regex.size == 3) // 3 labels
  }
}
