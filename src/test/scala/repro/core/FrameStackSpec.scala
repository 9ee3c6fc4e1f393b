package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa
import repro.batch.BatchRpq
import repro.stream.{Sgt, WindowSpec}

/** [[FrameStack]] on its own, and under a traversal that keeps far more
  * frames waiting than the stack's initial capacity.
  */
class FrameStackSpec extends AnyFunSuite {
  import DeltaForest.Node

  test("frames pop last in first out, and after reverse() first in first out") {
    val nodes = (0 until 300).map(i => new Node(i.toLong, 0, null, 0L))
    val st = new FrameStack
    def pushAll(): Unit = nodes.foreach(n => st.push(n, n.v * 7, n.v.toInt % 5, -n.v))
    def popAll(): Seq[Node] = Iterator.continually {
      val p = st.pop()
      assert(st.v == p.v * 7 && st.t == p.v.toInt % 5 && st.edgeTs == -p.v)
      p
    }.take(st.size).toVector
    pushAll()
    assert(st.size == nodes.size)
    assert(popAll() == nodes.reverse)
    assert(!st.nonEmpty)
    pushAll()
    st.reverse()
    assert(popAll() == nodes)
    pushAll()
    st.clear()
    assert(st.size == 0 && !st.nonEmpty)
  }

  test("a traversal thousands of frames deep matches the batch evaluator") {
    // a b*: a chain 1 -b-> 2 -b-> … -b-> 5000, where each chain vertex i has
    // a leaf i -b-> -i that arrived first. Each node pushes its leaf frame,
    // then its chain frame, which pops first, so the single arrival 0 -a-> 1
    // that closes the query leaves about 5,000 leaf frames waiting, and builds
    // one tree 5,000 nodes deep.
    val n = 5000
    val dfa = Dfa.fromPattern("a b*")
    val w = WindowSpec(100000, 100000)
    val edges = (1 until n).flatMap(i => Seq(Sgt(i.toLong, i.toLong, -i.toLong, "b"), Sgt(i.toLong, i.toLong, i + 1L, "b")))
    for (e <- Seq[DeltaForest](new RapqEngine(dfa, w), new RspqEngine(dfa, w))) {
      edges.foreach(e.processTuple)
      e.processTuple(Sgt(n.toLong, 0, 1, "a"))
      assert(e.numNodes == 2L * n)
      val expected = BatchRpq.evaluateWindow(e.graph, w.lowerBound(n.toLong), dfa)
      assert(expected.size == 2 * n - 1)
      assert(e.currentResults(n.toLong) == expected, e.getClass.getSimpleName)
    }
  }
}
