package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa
import repro.data.StreamGen
import repro.stream.{Sgt, WindowSpec}

/** The intrusive child lists of Δ's nodes stay in step with their parent
  * pointers, and the pair→nodes lists with the trees' keys into them,
  * through Insert's re-parenting, expiry and Delete.
  */
class ChildLinkSpec extends AnyFunSuite {
  import DeltaForest.Node

  private def liveNodes(e: DeltaForest): Vector[Node] = {
    val out = Vector.newBuilder[Node]
    e.trees.valuesIterator.foreach(_.foreachNode(out += _))
    out.result()
  }

  private def randomStream(n: Int, nV: Int, seed: Long): Vector[Sgt] = {
    val rnd = new Random(seed)
    val labels = Vector("a", "b", "c")
    val inserts = (1 to n).map { i =>
      Sgt(i.toLong, rnd.nextInt(nV).toLong, rnd.nextInt(nV).toLong, labels(rnd.nextInt(labels.length)))
    }.toVector
    StreamGen.withDeletions(inserts, 0.15, seed)
  }

  /** Each live node's child list holds exactly the live nodes whose parent
    * it is, once each, and no node sits in two live lists.
    */
  private def checkLinks(e: DeltaForest, at: String): Unit = {
    val live = liveNodes(e)
    val listedIn = scala.collection.mutable.HashMap.empty[Node, Node]
    live.foreach { n =>
      n.children.foreach { c =>
        assert(!listedIn.contains(c), s"$at: (${c.v}, ${c.s}) is listed under two nodes")
        listedIn(c) = n
      }
      val parented = live.filter(_.parent eq n)
      assert(n.children.toSet == parented.toSet && n.children.size == parented.size,
        s"$at: children of (${n.v}, ${n.s})")
    }
  }

  /** Each pair's list holds exactly the live nodes of that pair, once each,
    * with mutual `prevAtPair`/`nextAtPair` links. Each tree's nodes of the
    * pair are adjacent, starting at the one the tree keys; a RAPQ tree has
    * at most one. Each tree keys exactly the pairs it holds.
    */
  private def checkPairLinks(e: DeltaForest, at: String): Unit = {
    val k = e.dfa.k.toLong
    val live = liveNodes(e)
    e.trees.valuesIterator.foreach { tree =>
      val held = live.filter(_.tree eq tree)
      assert(tree.size == held.size, s"$at: tree ${tree.rootVertex} counts ${tree.size} nodes, walks ${held.size}")
      held.map(n => (n.v, n.s)).distinct.foreach { case (v, s) =>
        val n = tree.nodes.get(v, s)
        assert(n != null && (n.tree eq tree) && n.v == v && n.s == s,
          s"$at: tree ${tree.rootVertex} keys pair ($v, $s) wrongly")
      }
      assert(tree.nodes.size == held.map(n => (n.v, n.s)).distinct.size,
        s"$at: tree ${tree.rootVertex} does not key exactly the pairs it holds")
    }
    val listed = e.pairNodes.toVector.map { case (key, head) =>
      assert(head.prevAtPair == null, s"$at: the head of pair $key has a predecessor")
      val list = Iterator.iterate(head)(_.nextAtPair).takeWhile(_ != null).toVector
      list.sliding(2).foreach {
        case Seq(a, b) => assert(b.prevAtPair eq a, s"$at: pair $key links are not mutual")
        case _         =>
      }
      list.foreach { n =>
        assert(n.tree != null, s"$at: (${n.v}, ${n.s}) left its tree but is listed")
        assert(n.v * k + n.s == key, s"$at: (${n.v}, ${n.s}) is listed under pair $key")
      }
      // the list cut into runs of one tree each
      val runs = list.foldRight(List.empty[Vector[Node]]) {
        case (n, run :: rest) if run.head.tree eq n.tree => (n +: run) :: rest
        case (n, runs)                                   => Vector(n) :: runs
      }
      assert(runs.map(_.head.tree).distinct.size == runs.size, s"$at: a tree's nodes of pair $key are not adjacent")
      runs.foreach { run =>
        assert(run.head.tree.nodes.get(run.head.v, run.head.s) eq run.head,
          s"$at: pair $key's run in tree ${run.head.tree.rootVertex} does not start at the node it keys")
        if (e.isInstanceOf[RapqEngine])
          assert(run.size == 1, s"$at: a RAPQ tree holds ${run.size} nodes of pair $key")
      }
      list
    }
    val all = listed.flatten
    assert(all.size == all.toSet.size, s"$at: a node is listed twice")
    assert(all.toSet == live.toSet, s"$at: the pair lists do not hold exactly the live nodes")
  }

  private val patterns = Seq("a b*", "(a | b | c)+", "(a b)+")

  for (p <- patterns; (name, engine) <- Seq[(String, (Dfa, WindowSpec) => DeltaForest)](
         "RAPQ" -> ((d, w) => new RapqEngine(d, w)),
         "RSPQ" -> ((d, w) => new RspqEngine(d, w)))) {
    def checkAfterEveryTuple(check: (DeltaForest, String) => Unit): Unit = {
      val e = engine(Dfa.fromPattern(p), WindowSpec(size = 35, slide = 7))
      randomStream(300, nV = 8, seed = 11 + p.length).foreach { t =>
        e.processTuple(t)
        check(e, s"ts=${t.ts} ${t.op}")
      }
    }

    test(s"[$name, $p] child lists match parent pointers after every tuple")(checkAfterEveryTuple(checkLinks))

    test(s"[$name, $p] pair lists hold each pair's live nodes after every tuple")(
      checkAfterEveryTuple(checkPairLinks))
  }
}
