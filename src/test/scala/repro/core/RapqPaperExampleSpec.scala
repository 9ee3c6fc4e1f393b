package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa
import repro.stream.{Sgt, WindowSpec}

/** The paper's running example (Figures 1–2, Examples 3.1/3.2): query
  * `Q1 : (follows ∘ mentions)+` over the social-network stream, |W| = 15.
  *
  * The concrete sgt stream below is reconstructed from the narration; node
  * timestamps asserted here follow our semantics in which `Insert`
  * eagerly refreshes a pre-existing child's parent/timestamp and propagates
  * the improvement (see DESIGN.md §3 — the paper's Figure 2 walkthrough
  * keeps the stale ts=4 until expiry, but per-arrival completeness of
  * Lemma 1 requires the eager refresh; reconnection-after-deletion is
  * covered by [[RapqExpirySpec]]).
  */
class RapqPaperExampleSpec extends AnyFunSuite {

  private val f = "follows"
  private val m = "mentions"
  private val Seq(x, y, z, u, v, w) = Seq(0L, 1L, 2L, 3L, 4L, 5L)

  private def freshEngine(): RapqEngine = {
    val dfa = Dfa.fromPattern("(follows mentions)+")
    new RapqEngine(dfa, WindowSpec(size = 15, slide = 1000))
  }

  private val streamTo18 = Seq(
    Sgt(4, y, u, m),
    Sgt(12, x, z, f),
    Sgt(13, x, y, f),
    Sgt(14, z, u, m),
    Sgt(15, u, v, f),
    Sgt(16, y, w, m),
    Sgt(17, u, x, m),
    Sgt(18, v, y, m),
  )

  test("DFA of Q1 matches Figure 1(c)") {
    val dfa = freshEngine().dfa
    assert(dfa.k == 3)
    assert(dfa.finals == Set(dfa.delta(dfa.delta(0, f).get, m).get))
  }

  test("at t=18 the pair (x, y) has been reported — the paper's headline result") {
    val e = freshEngine()
    streamTo18.foreach(e.processTuple)
    assert(e.results.contains((x, y)))
  }

  test("at t=18 the spanning tree T_x contains the expected nodes") {
    val e = freshEngine()
    streamTo18.foreach(e.processTuple)
    val snap = e.treeSnapshot(x)
    assert(snap.keySet == Set((x, 0), (z, 1), (y, 1), (u, 2), (v, 1), (w, 2), (y, 2)))
  }

  test("at t=18 node timestamps are path-minima (with one-level refresh)") {
    val e = freshEngine()
    streamTo18.foreach(e.processTuple)
    val snap = e.treeSnapshot(x)
    assert(snap((z, 1)) == 12)
    assert(snap((y, 1)) == 13)
    // (u,2) created via the t=4 edge (ts 4), refreshed when (z, u) arrived at 14
    assert(snap((u, 2)) == 12)
    assert(snap((v, 1)) == 12)
    assert(snap((w, 2)) == 13)
    assert(snap((y, 2)) == 12)
  }

  test("at t=18 (u,2) was re-parented onto (z,1) by the fresher path") {
    val e = freshEngine()
    streamTo18.foreach(e.processTuple)
    val parents = e.treeParents(x)
    assert(parents((u, 2)) == ((z, 1)))
    assert(parents((v, 1)) == ((u, 2)))
    assert(parents((y, 2)) == ((v, 1)))
    assert(parents((y, 1)) == ((x, 0)))
  }

  test("invariant 2: every (v, s) appears at most once per tree (Lemma 1)") {
    val e = freshEngine()
    streamTo18.foreach(e.processTuple)
    // treeSnapshot is keyed by (v, s) — the engine's map structure enforces
    // the invariant; check multiple trees exist and are consistent
    assert(e.numTrees >= 2) // T_x and T_u at least
    assert(e.treeSnapshot(u).keySet.contains((u, 0)))
  }

  test("cumulative results at t=18") {
    val e = freshEngine()
    streamTo18.foreach(e.processTuple)
    assert(e.results.toSet == Set((x, u), (x, w), (x, y), (u, y)))
  }

  test("Example 3.2: edge (w,u) at t=19 adds (u,1) and (x,2) under (w,2) in T_x") {
    val e = freshEngine()
    (streamTo18 :+ Sgt(19, w, u, f)).foreach(e.processTuple)
    val parents = e.treeParents(x)
    assert(parents.get((u, 1)).contains((w, 2)))
    assert(parents.get((x, 2)).contains((u, 1)))
    // (x,2) is accepting: the self-result (x,x) is reported under arbitrary
    // path semantics (the witness path is a cycle through w)
    assert(e.results.contains((x, x)))
  }

  test("t=19: the expired t=4 edge no longer contributes traversals") {
    val e = freshEngine()
    (streamTo18 :+ Sgt(19, w, u, f)).foreach(e.processTuple)
    // T_w was created at t=19; its traversal reached y via the valid edges
    // but must NOT have extended through (y, mentions, u) whose ts=4 is
    // outside (4, 19]
    val snapW = e.treeSnapshot(w)
    assert(snapW.contains((y, 2)))
    assert(!snapW.contains((u, 2)) || e.treeParents(w).get((u, 2)).exists(_ != ((y, 1))))
    assert(e.results.contains((w, y)))
  }

  test("results after t=19 include the w-rooted pairs") {
    val e = freshEngine()
    (streamTo18 :+ Sgt(19, w, u, f)).foreach(e.processTuple)
    assert(Set((w, x), (w, u), (w, y)).subsetOf(e.results.toSet))
  }

  test("forceExpiry at t=19 keeps the refreshed index intact") {
    val e = freshEngine()
    (streamTo18 :+ Sgt(19, w, u, f)).foreach(e.processTuple)
    val before = e.treeSnapshot(x).keySet
    e.forceExpiry(19)
    assert(e.treeSnapshot(x).keySet == before)
    assert(e.graph.timestamp(y, u, m).isEmpty, "the ts=4 edge must be pruned")
  }

  test("tuples with labels outside the query alphabet never create index work") {
    val e = freshEngine()
    streamTo18.foreach(e.processTuple)
    val nodesBefore = e.numNodes
    e.processTuple(Sgt(19, x, y, "likes"))
    assert(e.numNodes == nodesBefore)
  }
}
