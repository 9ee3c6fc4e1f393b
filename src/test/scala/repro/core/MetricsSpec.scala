package repro.core

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  test("empty recorder reports zeros") {
    val m = new Metrics
    assert(m.count == 0)
    assert(m.meanMicros == 0.0)
    assert(m.p99Micros == 0.0)
    assert(m.throughputPerSec == 0.0)
  }

  test("mean over a known sample") {
    val m = new Metrics
    Seq(1000L, 2000L, 3000L).foreach(m.record)
    assert(m.count == 3)
    assert(math.abs(m.meanMicros - 2.0) < 1e-9)
  }

  test("p99 picks the right order statistic") {
    val m = new Metrics
    (1 to 100).foreach(i => m.record(i * 1000L))
    assert(m.p99Micros == 99.0)
    assert(m.percentileMicros(0.5) == 50.0)
    assert(m.percentileMicros(1.0) == 100.0)
  }

  test("percentile on a tiny sample clamps to the extremes") {
    val m = new Metrics
    m.record(5000L)
    assert(m.p99Micros == 5.0)
  }

  test("recording is insertion-order independent for percentiles") {
    val m1 = new Metrics; val m2 = new Metrics
    Seq(5L, 1L, 3L).map(_ * 1000).foreach(m1.record)
    Seq(1L, 3L, 5L).map(_ * 1000).foreach(m2.record)
    assert(m1.p99Micros == m2.p99Micros)
  }

  test("throughput is the inverse of mean latency (closed system, §5.1.1)") {
    val m = new Metrics
    (1 to 10).foreach(_ => m.record(1_000_000L)) // 1 ms per tuple
    assert(math.abs(m.throughputPerSec - 1000.0) < 1e-6)
  }

  test("buffer grows past the initial capacity") {
    val m = new Metrics(initialCapacity = 4)
    (1 to 100).foreach(i => m.record(i.toLong))
    assert(m.count == 100)
  }
}
