package repro.batch

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa
import repro.batch.BatchRpq.E
import repro.stream.SnapshotGraph

class BatchRpqSpec extends AnyFunSuite {

  test("single edge, single-label query") {
    val r = BatchRpq.evaluate(Seq(E(1, 2, "a")), Dfa.fromPattern("a"))
    assert(r == Set((1L, 2L)))
  }

  test("two-hop concatenation") {
    val r = BatchRpq.evaluate(Seq(E(1, 2, "a"), E(2, 3, "b")), Dfa.fromPattern("a b"))
    assert(r == Set((1L, 3L)))
  }

  test("no ε-results: a* does not return (v, v) for isolated matches") {
    val r = BatchRpq.evaluate(Seq(E(1, 2, "a")), Dfa.fromPattern("a*"))
    assert(r == Set((1L, 2L)))
  }

  test("kleene star follows chains") {
    val edges = Seq(E(1, 2, "a"), E(2, 3, "a"), E(3, 4, "a"))
    val r = BatchRpq.evaluate(edges, Dfa.fromPattern("a+"))
    assert(r == Set((1L, 2L), (1L, 3L), (1L, 4L), (2L, 3L), (2L, 4L), (3L, 4L)))
  }

  test("cycles under arbitrary semantics yield self-pairs") {
    val r = BatchRpq.evaluate(Seq(E(1, 2, "a"), E(2, 1, "a")), Dfa.fromPattern("a a"))
    assert(r == Set((1L, 1L), (2L, 2L)))
  }

  test("the (x, s0)-revisit corner never reports (Insert's convention)") {
    // (aa)*: accepting state IS the start state; the 2-cycle returns to it
    val r = BatchRpq.evaluate(Seq(E(1, 2, "a"), E(2, 1, "a")), Dfa.fromPattern("(a a)*"))
    assert(r == Set.empty, "reaching (x, s0) back must not report (x, x)")
  }

  test("labels outside the query alphabet are ignored") {
    val r = BatchRpq.evaluate(Seq(E(1, 2, "a"), E(2, 3, "zzz")), Dfa.fromPattern("a b"))
    assert(r == Set.empty)
  }

  test("vertex ids near ±2^62 do not collide in the visited set") {
    // with a (v, s) key of v·k + s, (2^62, s1) and (−2^62, s1) wrapped to the
    // same key and 7 → −2^62 → 9 was never expanded
    val big = 1L << 62
    val edges = Seq(E(7, big, "a"), E(7, -big, "a"), E(-big, 9, "a"))
    assert(BatchRpq.evaluate(edges, Dfa.fromPattern("a+")) ==
      Set((7L, big), (7L, -big), (7L, 9L), (-big, 9L)))
  }

  test("evaluateWindow filters on edge timestamps") {
    val g = new SnapshotGraph
    g.add(1, 2, "a", 10); g.add(2, 3, "b", 3)
    val dfa = Dfa.fromPattern("a b")
    assert(BatchRpq.evaluateWindow(g, 2, dfa) == Set((1L, 3L)))
    assert(BatchRpq.evaluateWindow(g, 5, dfa) == Set.empty)
  }

  test("on DAGs arbitrary and simple-path evaluation coincide") {
    val rnd = new Random(11)
    val edges = (1 to 60).map { _ =>
      val a = rnd.nextInt(9); val b = a + 1 + rnd.nextInt(9 - a.min(8))
      E(a.toLong, b.toLong, Seq("a", "b", "c")(rnd.nextInt(3)))
    }
    Seq("a b*", "(a | b | c)+", "a b c", "(a b)+").foreach { p =>
      val dfa = Dfa.fromPattern(p)
      assert(BatchRpq.evaluate(edges, dfa) == BruteForceSimple.evaluate(edges, dfa), p)
    }
  }

  test("brute force on cyclic graphs excludes non-simple witnesses") {
    // 1→2→3→1 cycle plus tail 3→4; query a+: (1,1) needs the cycle → excluded
    val edges = Seq(E(1, 2, "a"), E(2, 3, "a"), E(3, 1, "a"), E(3, 4, "a"))
    val simple = BruteForceSimple.evaluate(edges, Dfa.fromPattern("a+"))
    assert(!simple.contains((1L, 1L)))
    assert(simple.contains((1L, 4L)))
    val arb = BatchRpq.evaluate(edges, Dfa.fromPattern("a+"))
    assert(arb.contains((1L, 1L)))
    assert(simple.subsetOf(arb))
  }

  test("brute force handles parallel edges with different labels") {
    val edges = Seq(E(1, 2, "a"), E(1, 2, "b"), E(2, 3, "b"))
    val r = BruteForceSimple.evaluate(edges, Dfa.fromPattern("a b"))
    assert(r == Set((1L, 3L)))
  }

  test("PersistentBatchBaseline tracks the window like the incremental engine") {
    import repro.stream.{Sgt, WindowSpec}
    val dfa = Dfa.fromPattern("a b")
    val base = new PersistentBatchBaseline(dfa, WindowSpec(10, 3))
    assert(base.processTuple(Sgt(1, 1, 2, "a")) == Set.empty)
    assert(base.processTuple(Sgt(2, 2, 3, "b")) == Set((1L, 3L)))
    // ts=15: both edges fall out of the window
    assert(base.processTuple(Sgt(15, 7, 8, "a")) == Set.empty)
  }
}
