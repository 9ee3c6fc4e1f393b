package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.{Containment, Dfa}
import repro.batch.{BatchRpq, BruteForceSimple}
import repro.data.{Queries, StreamGen}
import repro.stream.{Op, Sgt, WindowSpec}

/** Randomized cross-checks of Algorithm RSPQ against exhaustive simple-path
  * enumeration, on cyclic and acyclic graphs, conflict-free and conflicted
  * queries (paper §4.1, Theorem 4).
  */
class RspqEngineSpec extends AnyFunSuite {

  private val patterns = Seq(
    "a*",              // restricted: containment property, conflict-free
    "(a | b | c)*",    // restricted
    "a b c",           // fixed-size, conflict-free
    "a b*",            // tractable on most instances
    "a+",              // conflicts on cycles back to the root
    "(a | b)+",        // conflicts on cycles
    "(a b)+",          // the running example's shape
    "a b* c",
    "a? b*",
  )

  private def randomStream(n: Int, nV: Int, labels: Seq[String], seed: Long): Seq[Sgt] = {
    val rnd = new Random(seed)
    (1 to n).map { i =>
      Sgt(i.toLong, rnd.nextInt(nV).toLong, rnd.nextInt(nV).toLong,
          labels(rnd.nextInt(labels.length)))
    }
  }

  private def windowEdges(e: RspqEngine, minTs: Long): Seq[BatchRpq.E] =
    e.graph.edges.filter(_.ts > minTs).map(t => BatchRpq.E(t.src, t.dst, t.label)).toSeq

  for (p <- patterns) {
    test(s"[$p] emitted stream equals the union of simple-path snapshot results (β=1)") {
      // RSPQ's Extend has no freshness-refresh path (unlike RAPQ's Insert):
      // between slides a re-validated stale prefix is repaired only by
      // ExpiryRSPQ. Under eager expiration (β = 1, §2) per-arrival
      // completeness must hold exactly.
      val dfa = Dfa.fromPattern(p)
      val w = WindowSpec(size = 30, slide = 6)
      val engine = new RspqEngine(dfa, w, stepBudgetPerTuple = 2_000_000)
      val stream = randomStream(90, nV = 7, Seq("a", "b", "c"), seed = 7 * p.hashCode)
      var expectedUnion = Set.empty[(Long, Long)]
      stream.foreach { t =>
        engine.processTuple(t)
        engine.forceExpiry(t.ts)
        val snapshot = BruteForceSimple.evaluate(windowEdges(engine, w.lowerBound(t.ts)), dfa)
        expectedUnion ++= snapshot
        assert(snapshot.subsetOf(engine.results.toSet),
          s"[$p] missing at ts=${t.ts}: ${snapshot -- engine.results.toSet}")
      }
      assert(engine.results.toSet == expectedUnion, s"[$p] spurious results")
    }
  }

  for (p <- Seq("a b*", "(a b)+", "a b c")) {
    test(s"[$p] lazy expiration: emissions stay sound; completeness at slide boundaries") {
      val dfa = Dfa.fromPattern(p)
      val w = WindowSpec(size = 30, slide = 6)
      val engine = new RspqEngine(dfa, w, stepBudgetPerTuple = 2_000_000)
      val stream = randomStream(90, nV = 7, Seq("a", "b", "c"), seed = 3 * p.hashCode + 1)
      var expectedUnion = Set.empty[(Long, Long)]
      stream.foreach { t =>
        engine.processTuple(t)
        expectedUnion ++= BruteForceSimple.evaluate(windowEdges(engine, w.lowerBound(t.ts)), dfa)
        assert(engine.results.toSet.subsetOf(expectedUnion), s"[$p] spurious at ts=${t.ts}")
      }
      engine.forceExpiry(stream.last.ts)
      val finalSnapshot =
        BruteForceSimple.evaluate(windowEdges(engine, w.lowerBound(stream.last.ts)), dfa)
      assert(finalSnapshot.subsetOf(engine.results.toSet))
    }
  }

  for (p <- Seq("a b*", "(a b)+", "(a | b)+")) {
    test(s"[$p] explicit-window view matches brute force after forced expiry") {
      val dfa = Dfa.fromPattern(p)
      val w = WindowSpec(size = 22, slide = 5)
      val engine = new RspqEngine(dfa, w, stepBudgetPerTuple = 2_000_000)
      val stream = randomStream(110, nV = 6, Seq("a", "b"), seed = 13 + p.length)
      stream.zipWithIndex.foreach { case (t, i) =>
        engine.processTuple(t)
        if (i % 9 == 0) {
          engine.forceExpiry(t.ts)
          val expected = BruteForceSimple.evaluate(windowEdges(engine, w.lowerBound(t.ts)), dfa)
          assert(engine.currentResults(t.ts) == expected, s"[$p] divergence at ts=${t.ts}")
        }
      }
    }
  }

  test("self-loop under a+ yields no simple-path result (conflict at the root)") {
    val e = new RspqEngine(Dfa.fromPattern("a+"), WindowSpec(100, 1000))
    e.processTuple(Sgt(1, 0, 0, "a"))
    assert(e.results.isEmpty)
  }

  /** The state `word` takes the DFA to from its start. */
  private def state(dfa: Dfa, word: String*): Int = word.foldLeft(dfa.start)((s, l) => dfa.delta(s, l).get)

  // In both prefix-rule tests vertex 1 sits on the prefix path twice: (1, s1)
  // under root 0 by the a-edge, then (1, s2) under (1, s1) by the b-loop,
  // which Extend allows because [s1] ⊇ [s2].

  test("Extend checks containment against FIRST(p[v]), the occurrence closest to the root") {
    val dfa = Dfa.fromPattern("a (d | e | f | c (d | e | f) | b (d | c (d | e)))")
    val c = Containment(dfa)
    val (s1, s2, t) = (state(dfa, "a"), state(dfa, "a", "b"), state(dfa, "a", "b", "c"))
    assert(Set(s1, s2, t).size == 3 && c.superset(s1, s2) && c.superset(s1, t) && !c.superset(s2, t))
    val e = new RspqEngine(dfa, WindowSpec(100, 1000))
    Seq(Sgt(1, 0, 1, "a"), Sgt(2, 1, 1, "b"), Sgt(3, 1, 1, "c")).foreach(e.processTuple)
    // the c-loop's frame (1, t) under (1, s2) extends: FIRST(p[1]) = s1 and
    // [s1] ⊇ [t], although the nearer occurrence's [s2] ⊉ [t]
    assert(e.conflictCount == 0)
    assert(e.treeNodeCounts(0) == Map((0L, dfa.start) -> 1, (1L, s1) -> 1, (1L, s2) -> 1, (1L, t) -> 1,
                                      (1L, state(dfa, "a", "c")) -> 1))
  }

  test("Extend skips a frame whose state a later occurrence of its vertex holds") {
    val dfa = Dfa.fromPattern("a g* (b g* (d | h e) | d | h e)")
    val (s1, s2) = (state(dfa, "a"), state(dfa, "a", "b"))
    assert(s1 != s2 && Containment(dfa).superset(s1, s2) && state(dfa, "a", "b", "g") == s2)
    val e = new RspqEngine(dfa, WindowSpec(100, 1000), stepBudgetPerTuple = 10_000)
    // the h-edge back to root 0 conflicts under (1, s2), and Unmark re-opens
    // (1, s2)'s in-edges, among them the g-loop from (1, s2) itself: that
    // frame is past the marking check, and (1, s2) on its path skips it,
    // although FIRST(p[1]) = s1 would let it extend (and extend again below
    // itself without end, which the step budget turns into an exception)
    Seq(Sgt(1, 0, 1, "a"), Sgt(2, 1, 1, "b"), Sgt(3, 1, 1, "g"), Sgt(4, 1, 0, "h")).foreach(e.processTuple)
    assert(e.conflictCount > 0)
    e.trees(0).foreachNode { n =>
      val ancestors = Iterator.iterate(n.parent)(_.parent).takeWhile(_ != null)
      assert(!ancestors.exists(a => a.v == n.v && a.s == n.s), s"(${n.v}, ${n.s}) repeats on its path")
    }
    assert(e.treeNodeCounts(0) == Map((0L, dfa.start) -> 1, (1L, s1) -> 2, (1L, s2) -> 3))
  }

  test("two-cycle under a+ reports the cross pairs but no self pairs") {
    val e = new RspqEngine(Dfa.fromPattern("a+"), WindowSpec(100, 1000))
    e.processTuple(Sgt(1, 0, 1, "a"))
    e.processTuple(Sgt(2, 1, 0, "a"))
    assert(e.results.toSet == Set((0L, 1L), (1L, 0L)))
  }

  test("acyclic graphs are conflict-free for every pattern (Mendelzon–Wood)") {
    // a DAG stream: edges always go from lower to higher vertex id
    val rnd = new Random(5)
    val stream = (1 to 80).map { i =>
      val a = rnd.nextInt(9); val b = a + 1 + rnd.nextInt(9 - a.min(8))
      Sgt(i.toLong, a.toLong, b.toLong, Seq("a", "b", "c")(rnd.nextInt(3)))
    }
    patterns.foreach { p =>
      val dfa = Dfa.fromPattern(p)
      val e = new RspqEngine(dfa, WindowSpec(200, 1000), stepBudgetPerTuple = 2_000_000)
      stream.foreach(e.processTuple)
      assert(e.conflictCount == 0, s"[$p] unexpected conflict on a DAG")
      val expected = BruteForceSimple.evaluate(windowEdges(e, Long.MinValue), dfa)
      assert(e.results.toSet == expected, s"[$p] divergence on DAG")
    }
  }

  test("on DAGs simple-path and arbitrary results coincide") {
    val rnd = new Random(8)
    val stream = (1 to 60).map { i =>
      val a = rnd.nextInt(8); val b = a + 1 + rnd.nextInt(8 - a.min(7))
      Sgt(i.toLong, a.toLong, b.toLong, Seq("a", "b")(rnd.nextInt(2)))
    }
    Seq("a b*", "(a | b)+").foreach { p =>
      val dfa = Dfa.fromPattern(p)
      val rs = new RspqEngine(dfa, WindowSpec(200, 1000))
      val ra = new RapqEngine(dfa, WindowSpec(200, 1000))
      stream.foreach(rs.processTuple)
      stream.foreach(ra.processTuple)
      assert(rs.results.toSet == ra.results.toSet, s"[$p]")
    }
  }

  test("simple-path results are a subset of arbitrary results on any graph") {
    val stream = randomStream(70, nV = 6, Seq("a", "b"), seed = 21)
    Seq("a b*", "(a b)+").foreach { p =>
      val dfa = Dfa.fromPattern(p)
      val rs = new RspqEngine(dfa, WindowSpec(40, 9), stepBudgetPerTuple = 2_000_000)
      val ra = new RapqEngine(dfa, WindowSpec(40, 9))
      stream.foreach(rs.processTuple)
      stream.foreach(ra.processTuple)
      assert(rs.results.toSet.subsetOf(ra.results.toSet), s"[$p]")
    }
  }

  test("budget exhaustion raises RspqBudgetExceeded") {
    val e = new RspqEngine(Dfa.fromPattern("(a | b)+"), WindowSpec(10000, 100000),
                           stepBudgetPerTuple = 3)
    intercept[RspqBudgetExceeded] {
      (1 to 50).foreach { i =>
        e.processTuple(Sgt(i.toLong, (i % 5).toLong, ((i + 1) % 5).toLong, "a"))
      }
    }
  }

  test("a tuple after a budget failure is processed on its own") {
    // the 1 -> 2 arrival blows the budget with three of vertex 2's fan-out
    // extensions still pending; they must not leak into the next traversal
    val e = new RspqEngine(Dfa.fromPattern("a+"), WindowSpec(100, 1000), stepBudgetPerTuple = 3)
    (10 to 15).foreach(d => e.processTuple(Sgt(d.toLong, 2, d.toLong, "a")))
    intercept[RspqBudgetExceeded](e.processTuple(Sgt(20, 1, 2, "a")))
    val before = e.results.toSet
    e.processTuple(Sgt(21, 100, 101, "a"))
    assert(e.results.toSet -- before == Set((100L, 101L)))
    assert(e.currentResults(21).filter(_._1 == 100L) == Set((100L, 101L)))
  }

  test("a reconnection that blows the budget leaves later trees due at the next slide") {
    // tree 1 pops first: re-attaching (2, s1) through 1 -a-> 3 -b-> 2 pushes
    // vertex 2's six b-edges and blows the budget of 3 before tree 50 expires
    val e = new RspqEngine(Dfa.fromPattern("a b*"), WindowSpec(10, 1000), stepBudgetPerTuple = 3)
    e.processTuple(Sgt(1, 1, 2, "a"))
    e.processTuple(Sgt(2, 50, 51, "a"))
    (3 to 8).foreach(i => e.processTuple(Sgt(i.toLong, 2, i + 7L, "b")))
    e.processTuple(Sgt(11, 1, 3, "a"))
    e.processTuple(Sgt(12, 3, 2, "b"))
    intercept[RspqBudgetExceeded](e.forceExpiry(12))
    assert(e.treeNodeCounts(50).keySet == Set((50L, 0), (51L, 1)), "tree 50 is not expired yet")
    e.forceExpiry(13)
    assert(e.treeNodeCounts(50).isEmpty)
    assert(e.due.nodes.count(_.tree != null) == e.numNodes - e.numTrees, "every node is filed")
  }

  test("explicit deletions under simple path semantics match brute force") {
    val dfa = Dfa.fromPattern("(a b)+")
    val w = WindowSpec(60, 15)
    val e = new RspqEngine(dfa, w, stepBudgetPerTuple = 2_000_000)
    val rnd = new Random(33)
    val live = scala.collection.mutable.ArrayBuffer.empty[(Long, Long, String)]
    (1 to 120).foreach { i =>
      val ts = i.toLong
      if (live.nonEmpty && rnd.nextDouble() < 0.15) {
        val (s, d, l) = live.remove(rnd.nextInt(live.length))
        e.processTuple(Sgt(ts, s, d, l, Op.Delete))
      } else {
        val t = (rnd.nextInt(7).toLong, rnd.nextInt(7).toLong, Seq("a", "b")(rnd.nextInt(2)))
        live += t
        e.processTuple(Sgt(ts, t._1, t._2, t._3))
      }
      if (i % 12 == 0) {
        e.forceExpiry(ts)
        val expected = BruteForceSimple.evaluate(windowEdges(e, w.lowerBound(ts)), dfa)
        assert(e.currentResults(ts) == expected, s"divergence at ts=$ts")
      }
    }
  }

  test("markings shrink on conflicts and pairs can be re-marked after expiry") {
    val e = new RspqEngine(Dfa.fromPattern("(a b)+"), WindowSpec(15, 1000))
    Seq(
      Sgt(4, 1, 3, "b"), Sgt(12, 0, 2, "a"), Sgt(13, 0, 1, "a"),
      Sgt(14, 2, 3, "b"), Sgt(15, 3, 4, "a"), Sgt(18, 4, 1, "b"),
    ).foreach(e.processTuple)
    assert(e.conflictCount > 0)
    val markedAt18 = e.markedPairs(0)
    e.forceExpiry(30) // everything expires
    assert(e.numNodes == 0 || e.markedPairs(0).size <= markedAt18.size)
  }

  test("replaying a conflicted stream does the same work every time") {
    // Extend's frames and expiry's reconnection follow the order of each
    // pair's nodes, so that order must not depend on identity hash codes
    val q11 = Queries.so.find(_.name == "Q11").get
    val stream = StreamGen.soLike(nVertices = 600, nEdges = 3000, seed = 5)
    def replay(): Seq[(Long, Long)] = {
      val e = new RspqEngine(q11.dfa, WindowSpec(1500, 50), collectResults = false)
      stream.map { t => e.processTuple(t); (e.conflictCount, e.numNodes) }
    }
    val first = replay()
    assert(first.last._1 > 0, "the stream must raise conflicts")
    val diverged = first.zip(replay()).indexWhere { case (a, b) => a != b }
    assert(diverged == -1, s"(conflicts, nodes) differ between replays from tuple $diverged")
  }

  test("Extend, expiry and Delete do the same work at fixed checkpoints of fixed streams") {
    // (emissionCount, conflictCount, numNodes) after every `every` tuples.
    // Extend's emissions, conflicts and markings follow the order in which
    // each tree's frames are seeded and popped, so these sequences pin that
    // order down, not only the result set.
    def workAt(stream: Seq[Sgt], dfa: Dfa, w: WindowSpec, every: Int): Seq[String] = {
      val e = new RspqEngine(dfa, w, collectResults = false)
      stream.zipWithIndex.flatMap { case (t, i) =>
        e.processTuple(t)
        if ((i + 1) % every == 0) Some(s"${e.emissionCount} ${e.conflictCount} ${e.numNodes}") else None
      }
    }
    val q11 = Queries.so.find(_.name == "Q11").get
    // each deletion removes one of the 100 latest inserts, mostly still in the window
    val abStream = {
      val rnd = new Random(61)
      val recent = scala.collection.mutable.ArrayBuffer.empty[Sgt]
      (1 to 1500).map { i =>
        if (recent.nonEmpty && rnd.nextDouble() < 0.15) {
          val d = recent.remove(recent.length - 1 - rnd.nextInt(recent.length.min(100)))
          Sgt(i.toLong, d.src, d.dst, d.label, Op.Delete)
        } else {
          val t = Sgt(i.toLong, rnd.nextInt(30).toLong, rnd.nextInt(30).toLong, Seq("a", "b")(rnd.nextInt(2)))
          recent += t
          t
        }
      }
    }
    val cases = Seq(
      "so Q11" -> workAt(StreamGen.soLike(600, 6000, 7), q11.dfa, WindowSpec(1500, 50), 500),
      "(a b)+ with deletions" -> workAt(abStream, Dfa.fromPattern("(a b)+"), WindowSpec(120, 10), 150),
    )
    val expected = Seq(
      "1557 1549 3530;5678 7044 11411;11458 17471 23615;21721 29188 24983;32979 40840 26283;" +
      "43859 52560 26104;54671 63117 25722;67294 74547 27010;76040 86780 25653;86452 95534 26267;" +
      "96658 106258 23967;105960 117756 23548",
      "844 734 620;13405 13265 4379;25262 25335 3271;29862 28517 867;34394 32245 2422;" +
      "43589 39822 1756;65321 61327 8410;78398 76052 2608;84896 82764 3850;102378 98777 3841",
    )
    cases.zip(expected).foreach { case ((name, actual), want) =>
      val wanted = want.split(';').toSeq
      val diverged = actual.zip(wanted).indexWhere { case (a, b) => a != b }
      if (diverged >= 0)
        fail(s"[$name] checkpoint $diverged: got ${actual(diverged)}, want ${wanted(diverged)}")
      assert(actual.size == wanted.size, s"[$name] checkpoints")
    }
  }
}
