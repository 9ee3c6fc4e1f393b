package repro.data

import repro.automaton.{Dfa, Regex}

/** The real-world RPQ workload of the paper's evaluation.
  *
  * Table 2: the most common 11 query templates from the Wikidata query logs
  * [19] (10 recursive + the most common non-recursive one, Q11). Variable
  * arity queries (Q4, Q9, Q10, Q11) use k = 3 labels, as the paper does.
  *
  * Table 3 (with the SO/LDBC rows un-swapped — see DESIGN.md §3): the label
  * variables `(a, b, c)` instantiated per graph.
  */
object Queries {

  /** One instantiated query: its Table 2 name, pattern and compiled DFA. */
  final case class Q(name: String, pattern: String) {
    lazy val regex: Regex = Regex.parse(pattern)
    lazy val dfa: Dfa = Dfa.fromRegex(regex)
    override def toString: String = s"$name: $pattern"
  }

  /** Table 2 templates over labels `a`, `b`, `c` (the alternation arity-k
    * queries use exactly these three, k = 3).
    */
  def templates(a: String, b: String, c: String): Seq[Q] = Seq(
    Q("Q1", s"$a*"),
    Q("Q2", s"$a $b*"),
    Q("Q3", s"$a $b* $c*"),
    Q("Q4", s"($a | $b | $c)*"),
    Q("Q5", s"$a $b* $c"),
    Q("Q6", s"$a* $b*"),
    Q("Q7", s"$a $b $c*"),
    Q("Q8", s"$a? $b*"),
    Q("Q9", s"($a | $b | $c)+"),
    Q("Q10", s"($a | $b | $c) $b*"),
    Q("Q11", s"$a $b $c"),
  )

  /** Table 3 label variables per graph (corrected row assignment). */
  val soLabels: (String, String, String)   = ("a2q", "c2a", "c2q")
  val ldbcLabels: (String, String, String) = ("likes", "replyOf", "hasCreator")
  val yagoLabels: (String, String, String) = ("participatedIn", "happenedIn", "hasCapital")

  /** All 11 queries on the Stackoverflow-like graph (3 labels cover all edges). */
  def so: Seq[Q] = templates(soLabels._1, soLabels._2, soLabels._3)

  /** LDBC queries: the paper skips the arity-k alternation queries Q4, Q9 and
    * Q10 on LDBC, whose streaming graphs have only two recursive relations
    * (§5.1.2). (Q5 is kept: Table 4 reports it for LDBC.)
    */
  def ldbc: Seq[Q] =
    templates(ldbcLabels._1, ldbcLabels._2, ldbcLabels._3)
      .filterNot(q => Set("Q4", "Q9", "Q10").contains(q.name))

  /** All 11 queries on the Yago2s-like graph (rich schema). */
  def yago: Seq[Q] = templates(yagoLabels._1, yagoLabels._2, yagoLabels._3)

  /** Queries per dataset name: `so`, `ldbc` or `yago`. */
  def forDataset(name: String): Seq[Q] = name match {
    case "so"   => so
    case "ldbc" => ldbc
    case "yago" => yago
    case other  => throw new IllegalArgumentException(s"unknown dataset: $other")
  }
}
