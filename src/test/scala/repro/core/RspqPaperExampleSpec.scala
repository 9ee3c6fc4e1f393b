package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa
import repro.stream.{Sgt, WindowSpec}

/** The paper's simple-path running example (§4, Examples 4.1/4.2, Figure 3):
  * `Q1 : (follows ∘ mentions)+` with the cycle ⟨x,y,u,v,y⟩ and the
  * alternative simple path ⟨x,z,u,v,y⟩.
  */
class RspqPaperExampleSpec extends AnyFunSuite {

  private val f = "follows"
  private val m = "mentions"
  private val Seq(x, y, z, u, v) = Seq(0L, 1L, 2L, 3L, 4L)

  private def freshEngine(): RspqEngine =
    new RspqEngine(Dfa.fromPattern("(follows mentions)+"), WindowSpec(15, 1000))

  // the subset of the running example's stream that the §4 narration uses
  private val stream = Seq(
    Sgt(4, y, u, m),
    Sgt(12, x, z, f),
    Sgt(13, x, y, f),
    Sgt(14, z, u, m),
    Sgt(15, u, v, f),
    Sgt(18, v, y, m),
  )

  test("suffix languages: [1] does not contain [2] (Example 4.1)") {
    val e = freshEngine()
    val s1 = e.dfa.delta(0, f).get
    val s2 = e.dfa.delta(s1, m).get
    assert(!e.containment.superset(s1, s2))
  }

  test("(u,2) is not duplicated at t=14 thanks to its marking (Example 4.2)") {
    val e = freshEngine()
    stream.take(4).foreach(e.processTuple) // through (z, u) at t=14
    assert(e.treeNodeCounts(x).getOrElse((u, 2), 0) == 1)
    assert(e.markedPairs(x).contains((u, 2)))
  }

  test("the conflict at t=18 is detected") {
    val e = freshEngine()
    stream.foreach(e.processTuple)
    assert(e.conflictCount > 0)
  }

  test("(x, y) is reported via the simple path ⟨x,z,u,v,y⟩ (Example 4.2)") {
    val e = freshEngine()
    stream.foreach(e.processTuple)
    assert(e.results.contains((x, y)))
  }

  test("without the z-detour the cycle alone yields no (x, y)") {
    val e = freshEngine()
    // drop the edges through z: only the cyclic path ⟨x,y,u,v,y⟩ remains
    Seq(Sgt(4, y, u, m), Sgt(13, x, y, f), Sgt(15, u, v, f), Sgt(18, v, y, m))
      .foreach(e.processTuple)
    assert(!e.results.contains((x, y)),
      "⟨x,y,u,v,y⟩ visits y twice — not a simple path")
  }

  test("after the conflict, (u,2) appears more than once in T_x (Figure 3)") {
    val e = freshEngine()
    stream.foreach(e.processTuple)
    assert(e.treeNodeCounts(x).getOrElse((u, 2), 0) >= 2)
  }

  test("unmarking removed the ancestors of the conflict predecessor") {
    val e = freshEngine()
    stream.foreach(e.processTuple)
    val marked = e.markedPairs(x)
    assert(!marked.contains((v, 1)))
    assert(!marked.contains((u, 2)))
    assert(!marked.contains((y, 1)))
  }

  test("arbitrary-semantics counterpart reports (x, y) through the cycle too") {
    val rapq = new RapqEngine(Dfa.fromPattern("(follows mentions)+"), WindowSpec(15, 1000))
    Seq(Sgt(4, y, u, m), Sgt(13, x, y, f), Sgt(15, u, v, f), Sgt(18, v, y, m))
      .foreach(rapq.processTuple)
    assert(rapq.results.contains((x, y)),
      "the non-simple path is a valid witness under arbitrary semantics")
  }

  test("RSPQ results agree with brute-force simple-path enumeration at t=18") {
    val e = freshEngine()
    stream.foreach(e.processTuple)
    val edges = e.graph.edges.filter(_.ts > 3)
      .map(t => repro.batch.BatchRpq.E(t.src, t.dst, t.label)).toSeq
    val expected = repro.batch.BruteForceSimple.evaluate(edges, e.dfa)
    // the window only ever grew during this stream, so the cumulative result
    // stream must equal the final snapshot's simple-path answers exactly
    assert(e.results.toSet == expected)
  }
}
