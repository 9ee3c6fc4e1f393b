package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa
import repro.batch.{BatchRpq, PersistentBatchBaseline}
import repro.data.StreamGen
import repro.stream.{Sgt, WindowSpec}

/** Randomized cross-checks of Algorithm RAPQ against the batch evaluator on
  * every window snapshot — the monotone result-stream semantics of
  * Definition 9.
  */
class RapqEngineSpec extends AnyFunSuite {

  private val patterns = Seq(
    "a*", "a b*", "a b* c*", "(a | b | c)*", "a b* c", "a* b*",
    "a b c*", "a? b*", "(a | b | c)+", "(a | b | c) b*", "a b c",
    "(a b)+",
  )

  private def randomStream(n: Int, nV: Int, labels: Seq[String], seed: Long): Seq[Sgt] = {
    val rnd = new Random(seed)
    (1 to n).map { i =>
      Sgt(i.toLong, rnd.nextInt(nV).toLong, rnd.nextInt(nV).toLong,
          labels(rnd.nextInt(labels.length)))
    }
  }

  for (p <- patterns) {
    test(s"[$p] emitted stream equals the union of snapshot results over time") {
      val dfa = Dfa.fromPattern(p)
      val w = WindowSpec(size = 35, slide = 7)
      val engine = new RapqEngine(dfa, w)
      val stream = randomStream(140, nV = 10, Seq("a", "b", "c"), seed = p.hashCode)
      var expectedUnion = Set.empty[(Long, Long)]
      stream.foreach { t =>
        engine.processTuple(t)
        val snapshotResult = BatchRpq.evaluateWindow(engine.graph, w.lowerBound(t.ts), dfa)
        expectedUnion ++= snapshotResult
        // completeness, eagerly: every current snapshot result already emitted
        assert(snapshotResult.subsetOf(engine.results.toSet),
          s"missing results at ts=${t.ts}: ${snapshotResult -- engine.results.toSet}")
      }
      // soundness: nothing emitted beyond what some snapshot justified
      assert(engine.results.toSet == expectedUnion)
    }
  }

  for (p <- Seq("a b*", "(a | b | c)+", "(a b)+")) {
    test(s"[$p] explicit-window view matches batch after forced expiry at checkpoints") {
      val dfa = Dfa.fromPattern(p)
      val w = WindowSpec(size = 28, slide = 9)
      val engine = new RapqEngine(dfa, w)
      val stream = randomStream(160, nV = 9, Seq("a", "b", "c"), seed = 31 + p.length)
      stream.zipWithIndex.foreach { case (t, i) =>
        engine.processTuple(t)
        if (i % 13 == 0) {
          engine.forceExpiry(t.ts)
          val expected = BatchRpq.evaluateWindow(engine.graph, w.lowerBound(t.ts), dfa)
          assert(engine.currentResults(t.ts) == expected, s"divergence at ts=${t.ts}")
        }
      }
    }
  }

  test("duplicate edges refresh freshness without breaking invariants") {
    val dfa = Dfa.fromPattern("a b")
    val w = WindowSpec(size = 10, slide = 10000)
    val e = new RapqEngine(dfa, w)
    e.processTuple(Sgt(1, 0, 1, "a"))
    e.processTuple(Sgt(2, 1, 2, "b"))
    assert(e.results.toSet == Set((0L, 2L)))
    // both edges re-arrive much later — result must be rediscoverable
    e.processTuple(Sgt(40, 0, 1, "a"))
    e.processTuple(Sgt(41, 1, 2, "b"))
    e.forceExpiry(45)
    assert(e.currentResults(45) == Set((0L, 2L)))
  }

  test("non-alphabet labels are discarded cheaply") {
    val dfa = Dfa.fromPattern("a b")
    val e = new RapqEngine(dfa, WindowSpec(100, 10000))
    (1 to 50).foreach(i => e.processTuple(Sgt(i.toLong, i.toLong, i + 1L, "zzz")))
    assert(e.numTrees == 0)
    assert(e.numNodes == 0)
    assert(e.graph.numEdges == 50) // still tracked in the window content
  }

  test("vertex ids whose node key would overflow are rejected by both engines") {
    // query `a` has k = 2 states, so keys v·2 + s fit a Long for v in [-2^62, 2^62 - 1];
    // unchecked, 2^62 and -2^62 share a key and (7, -2^62) silently goes missing
    val dfa = Dfa.fromPattern("a")
    val (lo, hi) = (-(1L << 62), (1L << 62) - 1)
    for (e <- Seq[DeltaForest](new RapqEngine(dfa, WindowSpec(100, 10000)),
                               new RspqEngine(dfa, WindowSpec(100, 10000)))) {
      e.processTuple(Sgt(1, 7, hi, "a"))
      e.processTuple(Sgt(2, 7, lo, "a"))
      assert(e.results.toSet == Set((7L, hi), (7L, lo)))
      intercept[IllegalArgumentException](e.processTuple(Sgt(3, 7, hi + 1, "a")))
      intercept[IllegalArgumentException](e.processTuple(Sgt(3, lo - 1, 7, "a")))
      intercept[IllegalArgumentException](e.deleteEdge(3, 7, hi + 1, "a"))
      assert(e.graph.numEdges == 2, "a rejected tuple leaves no trace")
      e.forceExpiry(3)
      assert(e.currentResults(3) == Set((7L, hi), (7L, lo)))
    }
  }

  test("a timestamp below the latest one is rejected by both engines and the baseline") {
    // at ts = 100 the window is (90, 100]: accepting (3→4) at ts = 50 would
    // report a path that lies outside it
    val dfa = Dfa.fromPattern("a")
    val w = WindowSpec(10, 1)
    for (e <- Seq[DeltaForest](new RapqEngine(dfa, w), new RspqEngine(dfa, w))) {
      e.processTuple(Sgt(100, 1, 2, "a"))
      intercept[IllegalArgumentException](e.processTuple(Sgt(50, 3, 4, "a")))
      assert(e.graph.numEdges == 1, "a rejected tuple leaves no trace")
      e.processTuple(Sgt(100, 5, 6, "a")) // equal timestamps stay legal
      assert(e.results.toSet == Set((1L, 2L), (5L, 6L)))
    }
    val base = new PersistentBatchBaseline(dfa, w)
    base.processTuple(Sgt(100, 1, 2, "a"))
    intercept[IllegalArgumentException](base.processTuple(Sgt(50, 3, 4, "a")))
    assert(base.processTuple(Sgt(100, 5, 6, "a")) == Set((1L, 2L), (5L, 6L)))
  }

  test("self-loops under arbitrary semantics can produce self-results") {
    val dfa = Dfa.fromPattern("a b")
    val e = new RapqEngine(dfa, WindowSpec(100, 10000))
    e.processTuple(Sgt(1, 0, 1, "a"))
    e.processTuple(Sgt(2, 1, 0, "b"))
    assert(e.results.toSet == Set((0L, 0L)))
  }

  test("index sizes on a realistic stream stay bounded by n·k") {
    val dfa = Dfa.fromPattern("(a2q | c2a | c2q)+")
    val w = WindowSpec(size = 400, slide = 100)
    val e = new RapqEngine(dfa, w, collectResults = false)
    StreamGen.soLike(nVertices = 60, nEdges = 1200).foreach(e.processTuple)
    assert(e.numTrees <= 60)
    assert(e.numNodes <= 60L * 60L * dfa.k)
    assert(e.emissionCount > 0)
  }

  test("emissionCount counts raw emissions, results deduplicates") {
    val dfa = Dfa.fromPattern("a+")
    val e = new RapqEngine(dfa, WindowSpec(1000, 10000))
    e.processTuple(Sgt(1, 0, 1, "a"))
    e.processTuple(Sgt(2, 1, 2, "a"))
    e.processTuple(Sgt(3, 2, 1, "a")) // cycle 1→2→1: re-reaches (1, ...) states
    assert(e.emissionCount >= e.results.size)
    assert(e.results.toSet ==
      Set((0L, 1L), (0L, 2L), (1L, 2L), (1L, 1L), (2L, 1L), (2L, 2L)))
  }
}
