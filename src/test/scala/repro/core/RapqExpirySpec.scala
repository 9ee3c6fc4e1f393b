package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa
import repro.batch.{BatchRpq, BruteForceSimple}
import repro.stream.{Op, Sgt, SlideClock, WindowSpec}

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

  test("a tree that never grows past its root is dropped at the next slide") {
    // under a*, δ(s0, a) = s0: the self-loop roots T_1 and reaches only (1, s0)
    for (e <- bothEngines("a*", WindowSpec(100, 10))) {
      e.processTuple(Sgt(1, 1, 1, "a"))
      assert((e.numTrees, e.numNodes) == ((1, 1L)))
      e.forceExpiry(1)
      assert((e.numTrees, e.numNodes) == ((0, 0L)))
    }
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

  test("a RAPQ slide creates no node, with and without deletions") {
    for (deleteRatio <- Seq(0.0, 0.15)) {
      val e = new RapqEngine(Dfa.fromPattern("(a | b | c)+"), WindowSpec(30, 5))
      val rnd = new scala.util.Random(47)
      val live = scala.collection.mutable.ArrayBuffer.empty[Sgt]
      def nodes = {
        val out = Set.newBuilder[DeltaForest.Node]
        e.trees.valuesIterator.foreach(_.foreachNode(out += _))
        out.result()
      }
      (1L to 1500L).foreach { ts =>
        val (before, numNodes, numTrees) = (nodes, e.numNodes, e.numTrees)
        val (expired, emitted) = (e.dueExpired, e.emissionCount)
        e.forceExpiry(ts)
        val clue = s"delete ratio $deleteRatio at $ts"
        assert(nodes.subsetOf(before), clue)
        assert(e.emissionCount == emitted, clue)
        // expired nodes, plus the root of each dropped tree
        assert(e.numNodes == numNodes - (e.dueExpired - expired) - (numTrees - e.numTrees), clue)
        e.processTuple(
          if (live.nonEmpty && rnd.nextDouble() < deleteRatio)
            live.remove(rnd.nextInt(live.size)).copy(ts = ts, op = Op.Delete)
          else {
            val t = Sgt(ts, rnd.nextInt(10).toLong, rnd.nextInt(10).toLong, Seq("a", "b", "c")(rnd.nextInt(3)))
            live += t
            t
          })
      }
      assert(e.dueExpired > 1000)
    }
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

  /** Both engines on one query and window. */
  private def bothEngines(pattern: String, w: WindowSpec): Seq[DeltaForest] = {
    val dfa = Dfa.fromPattern(pattern)
    Seq(new RapqEngine(dfa, w), new RspqEngine(dfa, w))
  }

  /** `currentResults(τ)` equals the engine's oracle on the stored window
    * edges, and the due index holds no empty bucket.
    */
  private def assertExact(e: DeltaForest, ts: Long, clue: String): Unit = {
    val minTs = e.window.lowerBound(ts)
    val edges = e.graph.edges.filter(_.ts > minTs).map(x => BatchRpq.E(x.src, x.dst, x.label)).toSeq
    val want = e match {
      case _: RspqEngine => BruteForceSimple.evaluate(edges, e.dfa)
      case _             => BatchRpq.evaluate(edges, e.dfa)
    }
    assert(e.currentResults(ts) == want, s"${e.getClass.getSimpleName} $clue")
    assert(e.due.numBuckets <= e.due.size, s"${e.getClass.getSimpleName} $clue: empty buckets")
  }

  test("a slide pops only the nodes that are due, whatever |Δ| is") {
    // a star 0 -a-> i built at ts = i fills Δ with 3,000 nodes, ten per
    // slide-sized bucket; then slides go on, each due for one bucket, while
    // every tenth tuple refreshes an edge whose node is four buckets from due
    for (e <- bothEngines("a+", WindowSpec(5000, 10))) {
      val name = e.getClass.getSimpleName
      val build = (1 to 3000).map(i => Sgt(i.toLong, 0, i.toLong, "a"))
      val expire = (5001 to 7000).map { i =>
        val ts = i.toLong
        if (i % 10 == 0) Sgt(ts, 0, ts - 4960, "a") else Sgt(ts, 1, 2, "other")
      }
      var slides = 0
      for (t <- build ++ expire) {
        val (runs, popped, expired, refiled) = (e.expiryRuns, e.duePopped, e.dueExpired, e.dueRefiled)
        e.processTuple(t)
        if (e.expiryRuns > runs) {
          slides += 1
          val p = e.duePopped - popped
          assert(p == (e.dueExpired - expired) + (e.dueRefiled - refiled), s"$name at ${t.ts}")
          if (t.ts <= 5000) assert(p == 0, s"$name at ${t.ts}: nothing is due yet")
          else {
            assert(p <= 20, s"$name at ${t.ts}: popped $p of ${e.numNodes}")
            assert(e.numNodes > 1000)
          }
        }
      }
      assert(slides > 400)
      assert(e.dueExpired >= 1500, name)
      if (e.isInstanceOf[RapqEngine]) assert(e.dueRefiled > 150, "refreshed nodes are filed again")
      e.forceExpiry(7000)
      assertExact(e, 7000, "after the stream")
    }
  }

  test("odd clocks: a 2^40 gap, a repeated forceExpiry and one that goes back") {
    for (e <- bothEngines("(a b)+ a?", WindowSpec(15, 1))) {
      val rnd = new scala.util.Random(41)
      val gap = 1L << 40
      val stream = (1L to 60L).map { i =>
        Sgt(if (i <= 30) i else gap + i, rnd.nextInt(6).toLong, rnd.nextInt(6).toLong,
            if (rnd.nextBoolean()) "a" else "b")
      }
      stream.foreach { t =>
        e.processTuple(t)
        e.forceExpiry(t.ts)
        assertExact(e, t.ts, s"at ${t.ts}")
        e.forceExpiry(t.ts)
        assertExact(e, t.ts, s"at ${t.ts}, again")
        e.forceExpiry(t.ts - 3)
        assertExact(e, t.ts - 3, s"at ${t.ts - 3}, after ${t.ts}")
      }
      assert(e.due.firstBucket > gap, "the gap popped every older bucket")
    }
  }

  test("expiry state stays within the window over 20 windows with deletions") {
    val w = WindowSpec(100, 10)
    for (e <- bothEngines("a b*", w)) {
      val name = e.getClass.getSimpleName
      val rnd = new scala.util.Random(43)
      val clock = new SlideClock(w.slide)
      val live = scala.collection.mutable.ArrayBuffer.empty[Sgt]
      (1L to 2000L).foreach { ts =>
        val t =
          if (ts % 7 == 0 && live.nonEmpty) live.remove(rnd.nextInt(live.size)).copy(ts = ts, op = Op.Delete)
          else {
            val t = Sgt(ts, rnd.nextInt(12).toLong, rnd.nextInt(12).toLong, if (rnd.nextBoolean()) "a" else "b")
            live += t
            t
          }
        val slide = clock.tick(ts)
        e.processTuple(t)
        if (slide) {
          live.filterInPlace(_.ts > w.lowerBound(ts))
          val filed = e.due.nodes.toSeq
          assert(filed.size == e.due.size, s"$name at $ts")
          assert(filed.distinct.size == filed.size, s"$name at $ts: a node is filed twice")
          assert(filed.count(_.tree != null) == e.numNodes - e.numTrees, s"$name at $ts: a node is not filed")
          assert(e.due.firstBucket >= Math.floorDiv(w.lowerBound(ts), w.slide), s"$name at $ts")
        }
      }
      e.forceExpiry(2000 + w.size)
      assert(e.numNodes == 0 && e.due.size == 0 && e.due.numBuckets == 0, name)
    }
  }
}
