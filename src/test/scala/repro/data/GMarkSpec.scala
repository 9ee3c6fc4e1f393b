package repro.data

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.automaton.Dfa

class GMarkSpec extends AnyFunSuite {

  test("workload is deterministic and has 100 queries") {
    val w1 = GMark.workload()
    val w2 = GMark.workload()
    assert(w1 == w2)
    assert(w1.size == 100)
  }

  test("query sizes land within [target, target+3]") {
    val rnd = new Random(1)
    (2 to 20).foreach { target =>
      (0 until 10).foreach { _ =>
        val q = GMark.randomQuery(target, rnd)
        assert(q.size >= target && q.size <= target + 3, s"target=$target got ${q.size}: $q")
      }
    }
  }

  test("workload sizes span the paper's 2–20 range") {
    val sizes = GMark.workload().map(_.size)
    assert(sizes.min <= 4)
    assert(sizes.max >= 18)
  }

  test("every generated query compiles to a DFA") {
    GMark.workload().foreach { r =>
      val dfa = Dfa.fromRegex(r)
      assert(dfa.k >= 1)
    }
  }

  test("DFA size does not explode with query size (paper Fig 7 finding)") {
    val stats = GMark.workload().map(r => (r.size, Dfa.fromRegex(r).k))
    // the paper observes no exponential growth in practice
    stats.foreach { case (qs, k) => assert(k <= 4 * qs, s"size $qs gave k=$k") }
  }

  test("queries only use schema labels") {
    GMark.workload().foreach { r =>
      assert(r.labels.subsetOf(GMark.labels.toSet))
    }
  }

  test("graph stream uses only the recursive-core labels") {
    val g = GMark.graph(50, 1000)
    assert(g.map(_.label).toSet.subsetOf(GMark.labels.toSet))
    assert(g.nonEmpty)
  }

  test("graph stream timestamps are non-decreasing") {
    val g = GMark.graph(50, 1000)
    assert(g.sliding(2).forall(p => p.head.ts <= p.last.ts))
  }
}
