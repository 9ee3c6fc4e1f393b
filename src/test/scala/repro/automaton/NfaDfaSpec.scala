package repro.automaton

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class NfaDfaSpec extends AnyFunSuite {

  private def words(alphabet: Seq[String], maxLen: Int): Iterator[List[String]] = {
    def go(len: Int): Iterator[List[String]] =
      if (len == 0) Iterator(Nil)
      else go(len - 1).flatMap(w => alphabet.iterator.map(a => a :: w))
    (0 to maxLen).iterator.flatMap(go)
  }

  /** NFA, subset DFA and minimal DFA all agree with the reference matcher on
    * every word up to the given length.
    */
  private def checkPipeline(pattern: String, maxLen: Int = 5): Unit = {
    val r = Regex.parse(pattern)
    val alphabet = r.labels.toSeq.sorted
    val nfa = Nfa.fromRegex(r)
    val raw = Dfa.subset(nfa, r.labels)
    val min = Dfa.minimize(raw)
    words(alphabet, maxLen).foreach { w =>
      val expected = r.matches(w)
      assert(nfa.accepts(w) == expected, s"NFA disagrees on $w for $pattern")
      assert(raw.accepts(w) == expected, s"subset DFA disagrees on $w for $pattern")
      assert(min.accepts(w) == expected, s"minimal DFA disagrees on $w for $pattern")
    }
  }

  test("pipeline: single label") { checkPipeline("a") }
  test("pipeline: concatenation") { checkPipeline("a b") }
  test("pipeline: alternation") { checkPipeline("a | b") }
  test("pipeline: star") { checkPipeline("a*") }
  test("pipeline: plus") { checkPipeline("a+") }
  test("pipeline: optional") { checkPipeline("a?") }
  test("pipeline: Q1 (a*)") { checkPipeline("a*") }
  test("pipeline: Q2 (a b*)") { checkPipeline("a b*") }
  test("pipeline: Q3 (a b* c*)") { checkPipeline("a b* c*", maxLen = 4) }
  test("pipeline: Q4 ((a|b|c)*)") { checkPipeline("(a | b | c)*", maxLen = 4) }
  test("pipeline: Q5 (a b* c)") { checkPipeline("a b* c", maxLen = 4) }
  test("pipeline: Q6 (a* b*)") { checkPipeline("a* b*") }
  test("pipeline: Q7 (a b c*)") { checkPipeline("a b c*", maxLen = 4) }
  test("pipeline: Q8 (a? b*)") { checkPipeline("a? b*") }
  test("pipeline: Q9 ((a|b|c)+)") { checkPipeline("(a | b | c)+", maxLen = 4) }
  test("pipeline: Q10 ((a|b|c) b*)") { checkPipeline("(a | b | c) b*", maxLen = 4) }
  test("pipeline: Q11 (a b c)") { checkPipeline("a b c", maxLen = 4) }
  test("pipeline: paper's running example (follows mentions)+") {
    checkPipeline("(follows mentions)+", maxLen = 6)
  }
  test("pipeline: nested stars") { checkPipeline("(a* b)* a?") }
  test("pipeline: alternation of concatenations") { checkPipeline("a b | b a | a a") }

  // --- structural properties of the minimal DFA ---------------------------

  test("minimal DFA for a* has exactly 1 state") {
    assert(Dfa.fromPattern("a*").k == 1)
  }
  test("minimal DFA for (a|b|c)* has exactly 1 state") {
    assert(Dfa.fromPattern("(a | b | c)*").k == 1)
  }
  test("minimal DFA for a+ has exactly 2 states") {
    assert(Dfa.fromPattern("a+").k == 2)
  }
  test("minimal DFA for a b c (Q11, k=3) has 4 states") {
    assert(Dfa.fromPattern("a b c").k == 4)
  }
  test("minimal DFA for (follows mentions)+ matches Figure 1(c): 3 states") {
    val dfa = Dfa.fromPattern("(follows mentions)+")
    assert(dfa.k == 3)
    assert(dfa.start == 0)
    assert(dfa.finals.size == 1)
    // structure of Figure 1(c): 0 -follows-> 1 -mentions-> 2(F) -follows-> 1
    val f = dfa.finals.head
    assert(dfa.delta(0, "follows").isDefined)
    val s1 = dfa.delta(0, "follows").get
    assert(dfa.delta(s1, "mentions").contains(f))
    assert(dfa.delta(f, "follows").contains(s1))
    assert(dfa.delta(0, "mentions").isEmpty)
    assert(dfa.delta(s1, "follows").isEmpty)
  }
  test("start state is always 0 after trimming") {
    Seq("a", "a b*", "(a | b)+ c").foreach(p => assert(Dfa.fromPattern(p).start == 0))
  }
  test("dead states are trimmed: every state reaches a final state") {
    val dfa = Dfa.fromPattern("a b | a c")
    (0 until dfa.k).foreach { s =>
      // BFS from s must reach a final
      var frontier = Set(s); var seen = Set(s); var found = dfa.finals.contains(s)
      while (!found && frontier.nonEmpty) {
        frontier = frontier.flatMap(q => dfa.trans(q).values) -- seen
        seen ++= frontier
        found = frontier.exists(dfa.finals)
      }
      assert(found, s"state $s cannot reach a final state")
    }
  }
  test("byLabel inverts the transition map") {
    val dfa = Dfa.fromPattern("a b* a")
    val fromRows = dfa.transitionRows.groupBy(_._2).map { case (l, rows) =>
      l -> rows.map(r => (r._1, r._3)).toSet
    }
    assert(dfa.byLabel.map { case (l, ps) => l -> ps.toSet } == fromRows)
  }
  test("the label-id pair table agrees with byLabel, in byLabel's order") {
    GMarkPatterns.all.foreach { p =>
      val dfa = Dfa.fromPattern(p)
      for (l <- 0 until dfa.m) {
        val pairs = dfa.pairs(l).grouped(2).map { case Array(s, t) => (s, t) }.toList
        assert(pairs == dfa.byLabel.getOrElse(dfa.labels(l), Nil), s"$p: label ${dfa.labels(l)}")
      }
      assert(dfa.pairs(dfa.m).isEmpty && dfa.pairs(dfa.m + 7).isEmpty, s"$p: an id past the alphabet has pairs")
    }
  }
  test("the flat transition table and final-state array agree with delta and finals") {
    GMarkPatterns.all.foreach { p =>
      val dfa = Dfa.fromPattern(p)
      assert(dfa.labels == dfa.alphabet.toSeq.sorted && dfa.m == dfa.alphabet.size, p)
      for (s <- 0 until dfa.k) {
        assert(dfa.isFinal(s) == dfa.finals.contains(s), p)
        for (l <- 0 until dfa.m) assert(dfa.step(s, l) == dfa.delta(s, dfa.labels(l)).getOrElse(-1), p)
        assert(dfa.step(s, dfa.m) == -1, s"$p: an id past the alphabet has no transition")
      }
    }
  }
  test("acceptsEmpty iff regex is nullable") {
    Seq("a*", "a?", "a+ b?", "a b*", "(a b)*").foreach { p =>
      assert(Dfa.fromPattern(p).acceptsEmpty == Regex.parse(p).nullable, p)
    }
  }
  test("minimization is idempotent in state count") {
    GMarkPatterns.all.foreach { p =>
      val once = Dfa.fromPattern(p)
      assert(Dfa.minimize(once).k == once.k, p)
    }
  }
  test("minimized DFA is never larger than the subset DFA") {
    GMarkPatterns.all.foreach { p =>
      val r = Regex.parse(p)
      val raw = Dfa.subset(Nfa.fromRegex(r), r.labels)
      assert(Dfa.minimize(raw).k <= raw.k, p)
    }
  }

  // --- randomized equivalence against the reference interpreter -----------

  private val genRegex: Gen[Regex] = {
    val labels = Seq("a", "b", "c")
    def gen(depth: Int): Gen[Regex] =
      if (depth == 0) Gen.oneOf(labels).map(Regex.Sym)
      else Gen.frequency(
        3 -> Gen.oneOf(labels).map(Regex.Sym(_): Regex),
        2 -> Gen.zip(gen(depth - 1), gen(depth - 1)).map { case (a, b) => Regex.Concat(a, b) },
        2 -> Gen.zip(gen(depth - 1), gen(depth - 1)).map { case (a, b) => Regex.Alt(a, b) },
        1 -> gen(depth - 1).map(Regex.Star(_): Regex),
        1 -> gen(depth - 1).map(Regex.Plus(_): Regex),
        1 -> gen(depth - 1).map(Regex.Opt(_): Regex),
      )
    gen(3)
  }

  test("property: minimal DFA agrees with the reference matcher on random regexes") {
    val genWord = Gen.listOfN(4, Gen.oneOf("a", "b", "c"))
    val genWords = Gen.listOfN(30, genWord)
    (0 until 60).foreach { i =>
      val r  = genRegex.pureApply(Gen.Parameters.default, Seed(i.toLong))
      val ws = genWords.pureApply(Gen.Parameters.default, Seed(1000L + i))
      val dfa = Dfa.fromRegex(r)
      ws.foreach(w => assert(dfa.accepts(w) == r.matches(w), s"word $w, regex $r"))
    }
  }
}

/** A handful of structurally varied patterns reused across automaton tests. */
object GMarkPatterns {
  val all: Seq[String] = Seq(
    "a", "a b", "a | b", "a*", "a+", "a?", "a b*", "a b* c*", "(a | b | c)*",
    "a b* c", "a* b*", "a b c*", "a? b*", "(a | b | c)+", "(a | b | c) b*",
    "a b c", "(a b)+", "(a b)* c", "(a | b)+ (c | a)*", "a+ b+ c+",
  )
}
