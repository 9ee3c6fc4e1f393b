package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa
import repro.stream.{Sgt, WindowSpec}

/** Window expiry and reconnection behaviour of Algorithm ExpiryRAPQ
  * (paper §3.1, Example 3.2's reconnection in isolation).
  */
class RapqExpirySpec extends AnyFunSuite {

  private val f = "follows"
  private val m = "mentions"
  private val Seq(a, b, c, d, e5) = Seq(0L, 1L, 2L, 3L, 4L)

  private def engine(size: Long = 30, slide: Long = 10000): RapqEngine =
    new RapqEngine(Dfa.fromPattern("(follows mentions)+"), WindowSpec(size, slide))

  test("freshness improvements propagate eagerly down the tree (Lemma 1 inv. 1)") {
    val e = engine()
    // chain a→b→c→d→e built on stale edges, then the first two edges refresh:
    // the whole chain's freshness must be repaired immediately, not at expiry
    Seq(
      Sgt(1, a, b, f), Sgt(2, b, c, m), Sgt(18, c, d, f), Sgt(19, d, e5, m),
      Sgt(20, a, b, f), Sgt(21, b, c, m),
    ).foreach(e.processTuple)
    val snap = e.treeSnapshot(a)
    assert(snap((b, 1)) == 20)
    assert(snap((c, 2)) == 20)
    assert(snap((d, 1)) == 18, "bounded by the c→d edge timestamp")
    assert(snap((e5, 2)) == 18)
    // expiry at bound 4 finds nothing stale — the index is already fresh
    e.forceExpiry(34)
    assert(e.treeSnapshot(a) == snap)
    // (c, e5) comes from the tree rooted at c (edge c→d also leaves s0)
    assert(e.currentResults(34) == Set((a, c), (a, e5), (c, e5)))
  }

  test("an edge arriving under a stale-expired parent is recovered on refresh") {
    val e = engine(size = 20)
    e.processTuple(Sgt(1, a, b, f))   // (b,1).ts = 1
    e.processTuple(Sgt(30, b, c, m))  // parent stale-expired (bound 10): skipped
    assert(!e.results.contains((a, c)))
    e.processTuple(Sgt(31, a, b, f))  // refresh: propagation must find b→c
    assert(e.results.contains((a, c)), "eager propagation discovers the pair")
    assert(e.treeSnapshot(a)((c, 2)) == 30)
  }

  test("nodes with no valid incoming edge are permanently removed") {
    val e = engine()
    Seq(Sgt(1, a, b, f), Sgt(2, b, c, m), Sgt(20, a, d, f)).foreach(e.processTuple)
    assert(e.results.toSet == Set((a, c)))
    e.forceExpiry(40) // bound 10: edges 1, 2 are gone
    assert(e.treeSnapshot(a).keySet == Set((a, 0), (d, 1)))
    assert(e.currentResults(40) == Set.empty)
    // cumulative results are monotonic under implicit windows
    assert(e.results.toSet == Set((a, c)))
  }

  test("a fully expired tree is dropped from Δ") {
    val e = engine()
    Seq(Sgt(1, a, b, f), Sgt(2, b, c, m)).foreach(e.processTuple)
    assert(e.numTrees == 1)
    e.forceExpiry(50)
    assert(e.numTrees == 0)
    assert(e.numNodes == 0)
  }

  test("a dropped tree is re-created when fresh edges arrive") {
    val e = engine()
    Seq(Sgt(1, a, b, f), Sgt(2, b, c, m)).foreach(e.processTuple)
    e.forceExpiry(50)
    Seq(Sgt(60, a, b, f), Sgt(61, b, c, m)).foreach(e.processTuple)
    assert(e.numTrees == 1)
    assert(e.currentResults(61) == Set((a, c)))
  }

  test("lazy expiration: slide interval controls when expiry runs") {
    // the slide clock is shared, so RSPQ must count the same expiry runs
    val rspq = new RspqEngine(Dfa.fromPattern("(follows mentions)+"), WindowSpec(10, 5))
    for (e <- Seq[DeltaForest](engine(size = 10, slide = 5), rspq)) {
      e.processTuple(Sgt(1, a, b, f))
      e.processTuple(Sgt(2, b, c, m))
      assert(e.expiryRuns == 0)
      e.processTuple(Sgt(8, a, d, f)) // 8 - 1 >= 5 → expiry fires
      assert(e.expiryRuns == 1)
      e.processTuple(Sgt(9, d, c, m))
      assert(e.expiryRuns == 1) // within the same slide: no expiry
      e.processTuple(Sgt(14, d, e5, m))
      assert(e.expiryRuns == 2)
    }
  }

  test("expiry prunes the window graph itself") {
    val e = engine(size = 10, slide = 10000)
    e.processTuple(Sgt(1, a, b, f))
    e.processTuple(Sgt(20, c, d, f))
    e.forceExpiry(20)
    assert(e.graph.numEdges == 1)
    assert(e.graph.timestamp(a, b, f).isEmpty)
  }

  test("deletion-triggered reconnection re-emits the surviving result") {
    val e = engine()
    // two witnesses for (a, c): via b (stale) and via d (fresh, the tree path)
    Seq(Sgt(1, a, b, f), Sgt(2, b, c, m), Sgt(3, a, d, f), Sgt(4, d, c, m))
      .foreach(e.processTuple)
    assert(e.treeParents(a)((c, 2)) == ((d, 1)), "freshest witness is the tree path")
    val emissionsBefore = e.emissionCount
    // delete the fresh tree edge: ExpiryRAPQ reconnects (c,2) through b
    val invalidated = e.deleteEdge(5, d, c, m)
    assert(invalidated.isEmpty)
    assert(e.emissionCount > emissionsBefore, "reconnected accepting node re-emits")
    assert(e.treeParents(a)((c, 2)) == ((b, 1)))
    assert(e.currentResults(5) == Set((a, c)))
  }

  test("currentResults equals the batch evaluation after every forced expiry") {
    val dfa = Dfa.fromPattern("(follows mentions)+ follows?")
    val e = new RapqEngine(dfa, WindowSpec(25, 10000))
    val rnd = new scala.util.Random(5)
    val stream = (1 to 120).map { i =>
      Sgt(i.toLong, rnd.nextInt(8).toLong, rnd.nextInt(8).toLong,
          if (rnd.nextBoolean()) f else m)
    }
    stream.foreach { t =>
      e.processTuple(t)
      e.forceExpiry(t.ts)
      val expected = repro.batch.BatchRpq.evaluateWindow(e.graph, t.ts - 25, dfa)
      assert(e.currentResults(t.ts) == expected, s"divergence at ts=${t.ts}")
    }
  }
}
