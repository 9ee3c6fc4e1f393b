package repro.automaton

import org.scalatest.funsuite.AnyFunSuite

class ContainmentSpec extends AnyFunSuite {

  test("single-state DFA (a*) trivially has the containment property") {
    val c = Containment(Dfa.fromPattern("a*"))
    assert(c.hasContainmentProperty)
    assert(c.superset(0, 0))
  }

  test("a+ : [s0] = a+ does not contain [s1] = a*") {
    val dfa = Dfa.fromPattern("a+")
    val c = Containment(dfa)
    val s1 = dfa.delta(0, "a").get
    assert(!c.superset(0, s1), "[s0] must not contain ε ∈ [s1]")
    assert(c.superset(s1, 0), "[s1] = a* contains [s0] = a+")
    assert(c.superset(s1, s1))
    assert(!c.hasContainmentProperty)
  }

  test("(a|b|c)+ lacks the containment property for the same reason") {
    val c = Containment(Dfa.fromPattern("(a | b | c)+"))
    assert(!c.hasContainmentProperty)
  }

  test("Q11 (a b c): strictly shrinking suffix languages along the chain") {
    val dfa = Dfa.fromPattern("a b c")
    val c = Containment(dfa)
    val s1 = dfa.delta(0, "a").get
    val s2 = dfa.delta(s1, "b").get
    val s3 = dfa.delta(s2, "c").get
    // [0]={abc} ⊉ [s1]={bc} etc. — chains do NOT have the property,
    // but each state's language contains itself
    assert(!c.superset(0, s1))
    assert(!c.superset(s1, s2))
    assert(c.superset(s3, s3))
    // reflexivity everywhere
    (0 until dfa.k).foreach(s => assert(c.superset(s, s)))
  }

  test("(follows mentions)+ — the running example: [1] ⊉ [2] (Example 4.1)") {
    val dfa = Dfa.fromPattern("(follows mentions)+")
    val c = Containment(dfa)
    val s1 = dfa.delta(0, "follows").get
    val s2 = dfa.delta(s1, "mentions").get
    assert(dfa.isFinal(s2))
    // [1] = mentions (follows mentions)*, [2] = (follows mentions)* — ε ∈ [2] only
    assert(!c.superset(s1, s2))
    assert(!c.superset(s2, s1))
    assert(!c.hasContainmentProperty)
  }

  test("a b* : [s0] = a b* ⊉ [s1] = b*, but s1 self-loop is contained") {
    val dfa = Dfa.fromPattern("a b*")
    val c = Containment(dfa)
    val s1 = dfa.delta(0, "a").get
    assert(!c.superset(0, s1))
    assert(c.superset(s1, s1)) // the b-loop stays within [s1]
  }

  test("restricted expressions of Table 4 are conflict-free on any graph: Q1, Q4") {
    assert(Containment(Dfa.fromPattern("a*")).hasContainmentProperty)
    assert(Containment(Dfa.fromPattern("(a | b | c)*")).hasContainmentProperty)
  }

  test("matrix is consistent with explicit suffix-language sampling") {
    // cross-check superset() against word enumeration up to length 4
    val patterns = Seq("a b*", "(a b)+", "a* b*", "(a | b) a*")
    patterns.foreach { p =>
      val dfa = Dfa.fromPattern(p)
      val c = Containment(dfa)
      val alphabet = dfa.alphabet.toSeq.sorted
      def wordsUpTo(len: Int): Seq[List[String]] = {
        def go(l: Int): Seq[List[String]] =
          if (l == 0) Seq(Nil) else go(l - 1).flatMap(w => alphabet.map(_ :: w))
        (0 to len).flatMap(go)
      }
      def acceptsFrom(s: Int, w: List[String]): Boolean = {
        var cur = s
        for (a <- w) dfa.delta(cur, a) match {
          case Some(t) => cur = t
          case None    => return false
        }
        dfa.isFinal(cur)
      }
      for (s <- 0 until dfa.k; t <- 0 until dfa.k) {
        val sampledSubset = wordsUpTo(4).forall(w => !acceptsFrom(t, w) || acceptsFrom(s, w))
        if (c.superset(s, t)) assert(sampledSubset, s"$p: claimed [$s] ⊇ [$t] but sample disagrees")
        else assert(!wordsUpTo(6).forall(w => !acceptsFrom(t, w) || acceptsFrom(s, w)),
          s"$p: claimed [$s] ⊉ [$t] but no short counterexample found")
      }
    }
  }
}
