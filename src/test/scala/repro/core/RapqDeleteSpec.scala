package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa
import repro.batch.BatchRpq
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
