package repro.data

import org.scalatest.funsuite.AnyFunSuite

import repro.stream.Op

class StreamGenSpec extends AnyFunSuite {

  test("soLike is deterministic in its seed") {
    assert(StreamGen.soLike(50, 200, seed = 1) == StreamGen.soLike(50, 200, seed = 1))
    assert(StreamGen.soLike(50, 200, seed = 1) != StreamGen.soLike(50, 200, seed = 2))
  }

  test("soLike uses exactly the three SO labels") {
    val labels = StreamGen.soLike(50, 500).map(_.label).toSet
    assert(labels == Set("a2q", "c2a", "c2q"))
  }

  test("soLike timestamps are strictly increasing, no self loops") {
    val s = StreamGen.soLike(40, 300)
    assert(s.map(_.ts) == (1L to 300L))
    assert(s.forall(t => t.src != t.dst))
    assert(s.forall(t => t.src < 40 && t.dst < 40))
  }

  test("soLike endpoints are skewed (zipf): top vertex appears often") {
    val s = StreamGen.soLike(100, 2000)
    val counts = s.flatMap(t => Seq(t.src, t.dst)).groupBy(identity).view.mapValues(_.size)
    val top = counts.values.max
    assert(top > 2 * (4000 / 100), "hub vertex should far exceed the uniform share")
  }

  test("ldbcLike produces the LDBC label mix") {
    val s = StreamGen.ldbcLike(50, 1000)
    val labels = s.map(_.label).toSet
    assert(Set("knows", "replyOf", "hasCreator", "likes").subsetOf(labels))
  }

  test("ldbcLike replyOf edges form an acyclic forest (later post → earlier post)") {
    val s = StreamGen.ldbcLike(50, 2000)
    s.filter(_.label == "replyOf").foreach(t => assert(t.src > t.dst))
  }

  test("ldbcLike separates person and post id ranges") {
    val s = StreamGen.ldbcLike(50, 1000)
    s.foreach { t =>
      t.label match {
        case "knows"      => assert(t.src < 50 && t.dst < 50)
        case "replyOf"    => assert(t.src >= 50 && t.dst >= 50)
        case "hasCreator" => assert(t.src >= 50 && t.dst < 50)
        case "likes"      => assert(t.src < 50 && t.dst >= 50)
        case _            => // filler interactions unconstrained
      }
    }
  }

  test("ldbcLike timestamps are non-decreasing") {
    val s = StreamGen.ldbcLike(50, 1000)
    assert(s.sliding(2).forall(p => p.head.ts <= p.last.ts))
  }

  test("yagoLike has a rich label set (~100 labels)") {
    val s = StreamGen.yagoLike(200, 20000)
    val labels = s.map(_.label).toSet
    assert(labels.size > 80)
    assert(Set("participatedIn", "happenedIn", "hasCapital").subsetOf(labels))
  }

  test("yagoLike hasCapital edges are acyclic (decreasing place ids)") {
    StreamGen.yagoLike(200, 5000).filter(_.label == "hasCapital")
      .foreach(t => assert(t.src > t.dst))
  }

  test("yagoLike core labels respect the type schema") {
    val n = 200
    val nPersons = n * 3 / 10; val nEvents = n * 3 / 10
    StreamGen.yagoLike(n, 5000).foreach { t =>
      t.label match {
        case "participatedIn" => assert(t.src < nPersons && t.dst >= nPersons
                                        && t.dst < nPersons + nEvents)
        case "happenedIn"     => assert(t.src >= nPersons && t.src < nPersons + nEvents
                                        && t.dst >= nPersons + nEvents)
        case "hasCapital"     => assert(t.src >= nPersons + nEvents)
        case _                =>
      }
    }
  }

  test("withDeletions only deletes previously inserted edges") {
    val base = StreamGen.soLike(30, 400)
    val s = StreamGen.withDeletions(base, ratio = 0.1)
    val seen = scala.collection.mutable.Set.empty[(Long, Long, String)]
    s.foreach { t =>
      if (t.op == Op.Insert) seen += ((t.src, t.dst, t.label))
      else assert(seen.contains((t.src, t.dst, t.label)), s"deleted unseen edge $t")
    }
  }

  test("withDeletions hits roughly the requested ratio") {
    val base = StreamGen.soLike(30, 2000)
    val s = StreamGen.withDeletions(base, ratio = 0.1)
    val dels = s.count(_.op == Op.Delete)
    assert(dels > 100 && dels < 300, s"got $dels deletions")
  }

  test("withDeletions keeps timestamps strictly increasing") {
    val s = StreamGen.withDeletions(StreamGen.soLike(30, 500), 0.05)
    assert(s.sliding(2).forall(p => p.head.ts < p.last.ts))
  }

  test("zipf sampler is heavily skewed toward rank 1") {
    val rnd = new scala.util.Random(3)
    val z = new StreamGen.Zipf(1000, 1.2, rnd)
    val draws = Seq.fill(10000)(z.next())
    val rank1 = draws.count(_ == 0)
    assert(rank1 > 500, s"rank-1 frequency $rank1 too low for alpha=1.2")
    assert(draws.max < 1000)
  }
}
