package repro.automaton

import org.scalatest.funsuite.AnyFunSuite

import Regex._

class RegexParserSpec extends AnyFunSuite {

  test("single label") { assert(parse("a") == Sym("a")) }
  test("multi-char label") { assert(parse("follows") == Sym("follows")) }
  test("label with digits and underscore") { assert(parse("a2q_x") == Sym("a2q_x")) }

  test("concatenation by juxtaposition") {
    assert(parse("a b") == Concat(Sym("a"), Sym("b")))
  }
  test("concatenation by dot") {
    assert(parse("a.b") == Concat(Sym("a"), Sym("b")))
  }
  test("three-way concatenation is left associative") {
    assert(parse("a b c") == Concat(Concat(Sym("a"), Sym("b")), Sym("c")))
  }

  test("alternation") { assert(parse("a | b") == Alt(Sym("a"), Sym("b"))) }
  test("alternation binds looser than concatenation") {
    assert(parse("a b | c") == Alt(Concat(Sym("a"), Sym("b")), Sym("c")))
  }

  test("star") { assert(parse("a*") == Star(Sym("a"))) }
  test("plus") { assert(parse("a+") == Plus(Sym("a"))) }
  test("optional") { assert(parse("a?") == Opt(Sym("a"))) }
  test("postfix binds tighter than concatenation") {
    assert(parse("a b*") == Concat(Sym("a"), Star(Sym("b"))))
  }
  test("stacked postfix operators") {
    assert(parse("a*?") == Opt(Star(Sym("a"))))
  }

  test("parenthesized group with star — the paper's Q1") {
    assert(parse("(follows mentions)+") ==
      Plus(Concat(Sym("follows"), Sym("mentions"))))
  }
  test("Table 2 Q4 shape") {
    assert(parse("(a | b | c)*") == Star(Alt(Alt(Sym("a"), Sym("b")), Sym("c"))))
  }

  test("malformed: dangling operator") {
    intercept[IllegalArgumentException](parse("a |"))
  }
  test("malformed: unclosed paren") {
    intercept[IllegalArgumentException](parse("(a b"))
  }
  test("malformed: leading star") {
    intercept[IllegalArgumentException](parse("*a"))
  }
  test("malformed: empty input") {
    intercept[IllegalArgumentException](parse(""))
  }

  test("toString round-trips through parse") {
    val patterns = Seq("a b*", "(a | b | c)+", "a? b*", "a b c", "(a b)+ c*")
    patterns.foreach { p =>
      val r = parse(p)
      assert(parse(r.toString) == r, s"round-trip failed for $p -> $r")
    }
  }

  test("labels() collects every mentioned label") {
    assert(parse("(a | b) c* a").labels == Set("a", "b", "c"))
  }

  test("nullable: star and optional are, plus of non-nullable is not") {
    assert(parse("a*").nullable)
    assert(parse("a?").nullable)
    assert(!parse("a+").nullable)
    assert(!parse("a b*").nullable)
    assert(parse("a* b*").nullable)
  }

  test("size counts labels plus star/plus occurrences (paper §5.1.2)") {
    assert(parse("a").size == 1)
    assert(parse("a b*").size == 3)
    assert(parse("(a | b | c)*").size == 4)
    assert(parse("a b* c*").size == 5)
    assert(parse("a? b*").size == 3) // '?' does not count
  }

  test("reference matcher: concatenation") {
    val r = parse("a b")
    assert(r.matches(Seq("a", "b")))
    assert(!r.matches(Seq("a")))
    assert(!r.matches(Seq("b", "a")))
  }
  test("reference matcher: star accepts zero and many") {
    val r = parse("a*")
    assert(r.matches(Nil))
    assert(r.matches(Seq("a", "a", "a")))
    assert(!r.matches(Seq("b")))
  }
  test("reference matcher: plus rejects empty") {
    val r = parse("(a b)+")
    assert(!r.matches(Nil))
    assert(r.matches(Seq("a", "b")))
    assert(r.matches(Seq("a", "b", "a", "b")))
    assert(!r.matches(Seq("a", "b", "a")))
  }
  test("reference matcher: nested nullable star terminates") {
    val r = parse("(a* b*)*")
    assert(r.matches(Nil))
    assert(r.matches(Seq("a", "b", "a")))
  }
}
