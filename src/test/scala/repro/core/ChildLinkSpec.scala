package repro.core

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa
import repro.data.StreamGen
import repro.stream.{Sgt, WindowSpec}

/** The intrusive child lists of Δ's nodes stay in step with their parent
  * pointers through Insert's re-parenting, expiry and Delete.
  */
class ChildLinkSpec extends AnyFunSuite {
  import DeltaForest.Node

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
    val live = e.trees.valuesIterator.flatMap(_.allNodes).toVector
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

  private val patterns = Seq("a b*", "(a | b | c)+", "(a b)+")

  for (p <- patterns; (name, engine) <- Seq[(String, (Dfa, WindowSpec) => DeltaForest)](
         "RAPQ" -> ((d, w) => new RapqEngine(d, w)),
         "RSPQ" -> ((d, w) => new RspqEngine(d, w))))
    test(s"[$name, $p] child lists match parent pointers after every tuple") {
      val e = engine(Dfa.fromPattern(p), WindowSpec(size = 35, slide = 7))
      randomStream(300, nV = 8, seed = 11 + p.length).foreach { t =>
        e.processTuple(t)
        checkLinks(e, s"ts=${t.ts} ${t.op}")
      }
    }
}
