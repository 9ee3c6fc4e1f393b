package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa
import repro.batch.{BatchRpq, BruteForceSimple}
import repro.stream.{Op, Sgt, WindowSpec}

/** Explicit deletions via negative tuples (paper §3.2, Algorithm Delete). */
class RapqDeleteSpec extends AnyFunSuite {

  private def engine(p: String, size: Long = 1000): RapqEngine =
    new RapqEngine(Dfa.fromPattern(p), WindowSpec(size, 100000))

  /** Both engines, for conflict-free inputs where their answers coincide:
    * Delete runs through the forest they share.
    */
  private def engines(p: String): Seq[DeltaForest] =
    Seq(engine(p), new RspqEngine(Dfa.fromPattern(p), WindowSpec(1000, 100000)))

  test("deleting a tree edge invalidates results that depended on it") {
    for (e <- engines("a b")) {
      e.processTuple(Sgt(1, 0, 1, "a"))
      e.processTuple(Sgt(2, 1, 2, "b"))
      assert(e.currentResults(2) == Set((0L, 2L)))
      val invalidated = e.deleteEdge(3, 0, 1, "a")
      assert(invalidated == Set((0L, 2L)))
      assert(e.currentResults(3) == Set.empty)
    }
  }

  test("deleting a tree edge keeps results that survive via alternative paths") {
    val e = engine("a b")
    e.processTuple(Sgt(1, 0, 1, "a"))
    e.processTuple(Sgt(2, 1, 2, "b"))
    e.processTuple(Sgt(3, 3, 2, "b"))
    e.processTuple(Sgt(4, 0, 3, "a"))
    assert(e.currentResults(4) == Set((0L, 2L)))
    // delete the first hop of the original witness; 0→3→2 remains
    val invalidated = e.deleteEdge(5, 0, 1, "a")
    assert(invalidated.isEmpty)
    assert(e.currentResults(5) == Set((0L, 2L)))
  }

  test("deleting a non-tree edge only updates the window content") {
    val e = engine("a b")
    e.processTuple(Sgt(1, 0, 1, "a"))
    e.processTuple(Sgt(2, 0, 1, "a")) // refresh — same logical edge
    e.processTuple(Sgt(3, 5, 6, "a")) // unrelated edge, reachable tree but
    e.processTuple(Sgt(4, 9, 9, "b")) // label b never used as a tree edge here
    val nodes = e.numNodes
    e.deleteEdge(5, 9, 9, "b")
    assert(e.numNodes == nodes)
    assert(e.graph.timestamp(9, 9, "b").isEmpty)
  }

  test("deleting a non-existent edge is a no-op") {
    for (e <- engines("a b")) {
      e.processTuple(Sgt(1, 0, 1, "a"))
      assert(e.deleteEdge(2, 7, 8, "a").isEmpty)
      assert(e.numNodes == 2) // root + (1, s1)
    }
  }

  test("delete then re-insert restores the result") {
    val e = engine("a b")
    e.processTuple(Sgt(1, 0, 1, "a"))
    e.processTuple(Sgt(2, 1, 2, "b"))
    e.deleteEdge(3, 1, 2, "b")
    assert(e.currentResults(3) == Set.empty)
    e.processTuple(Sgt(4, 1, 2, "b"))
    assert(e.currentResults(4) == Set((0L, 2L)))
  }

  test("negative tuples flow through processTuple") {
    val e = engine("a+")
    e.processTuple(Sgt(1, 0, 1, "a"))
    e.processTuple(Sgt(2, 1, 2, "a"))
    e.processTuple(Sgt(3, 0, 1, "a", Op.Delete))
    assert(e.currentResults(3) == Set((1L, 2L)))
  }

  test("deletion inside a cycle keeps the rest of the cycle's results") {
    val e = engine("a+")
    e.processTuple(Sgt(1, 0, 1, "a"))
    e.processTuple(Sgt(2, 1, 2, "a"))
    e.processTuple(Sgt(3, 2, 0, "a"))
    e.deleteEdge(4, 2, 0, "a")
    val expected = BatchRpq.evaluateWindow(e.graph, e.window.lowerBound(4), e.dfa)
    assert(e.currentResults(4) == expected)
    assert(e.currentResults(4) == Set((0L, 1L), (0L, 2L), (1L, 2L)))
  }

  test("Delete re-pulls a marked pair that an earlier reconnection re-added at a lower ts") {
    // In T_2, deleting 3 -b-> 0 marks (0, s1) and its child (1, s1). Re-pulled
    // first, (0, s1) comes back through 2 -a-> 0 at 16 and re-adds (1, s1) at
    // 16. (1, s1) must still be re-pulled: the path 2 -a-> 4 -b-> 3 -b-> 1
    // gives it 17, which keeps it in the window at 28, when 1 -b-> 5 arrives.
    val e = new RapqEngine(Dfa.fromPattern("a b*"), WindowSpec(12, 4))
    Seq(Sgt(16, 2, 0, "a"), Sgt(17, 3, 1, "b"), Sgt(20, 0, 1, "b"), Sgt(23, 3, 0, "b"),
        Sgt(23, 4, 3, "b"), Sgt(26, 2, 4, "a"), Sgt(27, 3, 0, "b", Op.Delete)).foreach(e.processTuple)
    assert(e.treeSnapshot(2)((1L, 1)) == 17)
    e.processTuple(Sgt(28, 1, 5, "b"))
    assert(e.results.contains((2L, 5L)))
  }

  test("Delete disconnects a hit lying under a later hit once, keeping its ts") {
    // (b a c a)+ numbers its states 0 -b-> 1 -a-> 2 -c-> 3 -a-> 4 -b-> 1, so
    // label a has pairs (1, 2) and (3, 4). T_0 holds (3, s3) -a-> (4, s4)
    // -b-> (3, s1) -a-> (4, s2): deleting 3 -a-> 4 hits (4, s2) first and then
    // its ancestor (4, s4). (4, s2) must still come back through 0 -b-> 5
    // -a-> 4 at ts 1, so that 4 -c-> 6 -a-> 7 makes (0, 7) a result.
    val e = engine("(b a c a)+")
    Seq(Sgt(1, 0, 5, "b"), Sgt(2, 5, 4, "a"), Sgt(10, 0, 1, "b"), Sgt(11, 1, 2, "a"),
        Sgt(12, 2, 3, "c"), Sgt(13, 3, 4, "a"), Sgt(14, 4, 3, "b")).foreach(e.processTuple)
    assert(e.treeParents(0)((4L, 2)) == ((3L, 1)))
    e.processTuple(Sgt(15, 3, 4, "a", Op.Delete))
    assert(e.treeSnapshot(0)((4L, 2)) == 1)
    e.processTuple(Sgt(16, 4, 6, "c"))
    e.processTuple(Sgt(17, 6, 7, "a"))
    assert(e.results.contains((0L, 7L)))
    assert(e.currentResults(17) == BatchRpq.evaluateWindow(e.graph, e.window.lowerBound(17), e.dfa))
  }

  test("deleting a stored edge that already left the window changes no result") {
    // slide 1000 outlasts the stream, so no tuple prunes: a deleted edge whose
    // timestamp has left the window is still stored, and its nodes have
    // expired lazily. The twin engine that never deletes must agree after
    // every forced expiry.
    val w = WindowSpec(10, 1000)
    for (p <- Seq("a b*", "(a | b | c)+"); rapq <- Seq(true, false)) {
      val kind = if (rapq) "RAPQ" else "RSPQ"
      def make(): DeltaForest =
        if (rapq) new RapqEngine(Dfa.fromPattern(p), w) else new RspqEngine(Dfa.fromPattern(p), w)
      val (del, keep) = (make(), make())
      val rnd = new Random(59 + p.length)
      var touched = 0
      (1L to 120L).foreach { ts =>
        val t = Sgt(ts, rnd.nextInt(6).toLong, rnd.nextInt(6).toLong, Seq("a", "b", "c")(rnd.nextInt(3)))
        del.processTuple(t)
        keep.processTuple(t)
        if (ts % 4 == 0) del.graph.edges.find(_.ts <= w.lowerBound(ts)).foreach { x =>
          val nodes = del.numNodes
          del.deleteEdge(ts, x.src, x.dst, x.label)
          if (del.numNodes < nodes) touched += 1
        }
        if (ts % 8 == 0) {
          del.forceExpiry(ts)
          keep.forceExpiry(ts)
          assert(del.currentResults(ts) == keep.currentResults(ts), s"[$kind, $p] at ts=$ts")
        }
      }
      assert(touched > 0, s"[$kind, $p] no delete reached a lazily expired node")
    }
  }

  test("deleting an edge keeps the nodes that a surviving parallel edge supports") {
    // (a | b | c)+ takes every label from every state to the same state, so
    // 1 -a-> 3 at 8 and 1 -b-> 3 at 21 are parallel tree edges to (3, s1).
    // RSPQ's markings prune the later one, so T_1 and T_2 keep (3, s1) at 8,
    // through 1 -a-> 3. Deleting 1 -b-> 3 must not take that node for a hit:
    // RSPQ would rebuild only its marked pairs, not the unmarked ones below.
    val w = WindowSpec(30, 1000)
    for (rapq <- Seq(true, false)) {
      val dfa = Dfa.fromPattern("(a | b | c)+")
      val e: DeltaForest = if (rapq) new RapqEngine(dfa, w) else new RspqEngine(dfa, w)
      Seq(Sgt(8, 1, 3, "a"), Sgt(11, 3, 0, "b"), Sgt(13, 4, 2, "a"), Sgt(16, 0, 4, "c"),
          Sgt(19, 2, 1, "b"), Sgt(21, 1, 3, "b"), Sgt(22, 1, 3, "b", Op.Delete)).foreach(e.processTuple)
      e.forceExpiry(22)
      val edges = e.graph.edges.map(x => BatchRpq.E(x.src, x.dst, x.label)).toSeq
      val expected = if (rapq) BatchRpq.evaluate(edges, dfa) else BruteForceSimple.evaluate(edges, dfa)
      assert(e.currentResults(22) == expected, if (rapq) "RAPQ" else "RSPQ")
    }
  }

  // (pattern, vertices, tuples, deletion ratio). (b a c a)+ gives label a two
  // pairs with different targets, so one Delete can hit a node and its
  // ancestor; that needs a denser stream to show up.
  for ((p, vertices, tuples, deletes) <- Seq(("a b*", 6, 40, 0.2), ("(a | b | c)+", 6, 40, 0.2),
                                             ("a* b*", 6, 40, 0.2), ("(b a c a)+", 3, 80, 0.35)))
    test(s"[$p] without forceExpiry, currentResults matches batch after every tuple of streams with deletions") {
      val dfa = Dfa.fromPattern(p)
      val w = WindowSpec(size = 12, slide = 4)
      (0 until 500).foreach { seed =>
        val e = new RapqEngine(dfa, w)
        val rnd = new Random(seed)
        val live = scala.collection.mutable.ArrayBuffer.empty[(Long, Long, String)]
        var ts = 0L
        (1 to tuples).foreach { _ =>
          ts += rnd.nextInt(3)
          if (live.nonEmpty && rnd.nextDouble() < deletes) {
            val (s, d, l) = live.remove(rnd.nextInt(live.length))
            e.processTuple(Sgt(ts, s, d, l, Op.Delete))
          } else {
            val t = (rnd.nextInt(vertices).toLong, rnd.nextInt(vertices).toLong,
                     Seq("a", "b", "c")(rnd.nextInt(3)))
            live += t
            e.processTuple(Sgt(ts, t._1, t._2, t._3))
          }
          val expected = BatchRpq.evaluateWindow(e.graph, w.lowerBound(ts), dfa)
          assert(e.currentResults(ts) == expected, s"[$p] seed $seed: divergence at ts=$ts")
        }
      }
    }

  private val patterns = Seq("a b*", "(a | b | c)+", "(a b)+", "a b c")

  for (p <- patterns) {
    test(s"[$p] randomized insert/delete stream matches batch at every delete") {
      val dfa = Dfa.fromPattern(p)
      val w = WindowSpec(size = 40, slide = 11)
      val e = new RapqEngine(dfa, w)
      val rnd = new Random(97 + p.length)
      val live = scala.collection.mutable.ArrayBuffer.empty[(Long, Long, String)]
      (1 to 150).foreach { i =>
        val ts = i.toLong
        if (live.nonEmpty && rnd.nextDouble() < 0.15) {
          val (s, d, l) = live.remove(rnd.nextInt(live.length))
          e.processTuple(Sgt(ts, s, d, l, Op.Delete))
        } else {
          val t = (rnd.nextInt(9).toLong, rnd.nextInt(9).toLong,
                   Seq("a", "b", "c")(rnd.nextInt(3)))
          live += t
          e.processTuple(Sgt(ts, t._1, t._2, t._3))
        }
        if (i % 10 == 0) {
          e.forceExpiry(ts)
          val expected = BatchRpq.evaluateWindow(e.graph, w.lowerBound(ts), dfa)
          assert(e.currentResults(ts) == expected, s"[$p] divergence at ts=$ts")
        }
      }
    }
  }
}
