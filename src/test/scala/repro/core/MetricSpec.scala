package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Datasets
import scala.util.Random

class MetricSpec extends AnyFunSuite {
  import MetricSpec._

  test("euclidean: zero iff identical") {
    val a = Array(1.0, 2.0, 3.0)
    assert(EuclideanMetric.dist(a, a) == 0.0)
    assert(EuclideanMetric.dist(a, Array(1.0, 2.0, 3.1)) > 0)
  }

  test("euclidean: known value") {
    assert(math.abs(EuclideanMetric.dist(Array(0.0, 0.0), Array(3.0, 4.0)) - 5.0) < 1e-12)
  }

  test("euclidean: symmetry on random vectors") {
    val rnd = new Random(1)
    for (_ <- 0 until 200) {
      val d = 1 + rnd.nextInt(16)
      val a = Array.fill(d)(rnd.nextGaussian() * 10)
      val b = Array.fill(d)(rnd.nextGaussian() * 10)
      assert(EuclideanMetric.dist(a, b) == EuclideanMetric.dist(b, a))
    }
  }

  test("euclidean: triangle inequality on random triples") {
    val rnd = new Random(2)
    for (_ <- 0 until 500) {
      val d = 1 + rnd.nextInt(8)
      val Seq(a, b, c) = Seq.fill(3)(Array.fill(d)(rnd.nextGaussian() * 5))
      assert(EuclideanMetric.dist(a, c) <=
        EuclideanMetric.dist(a, b) + EuclideanMetric.dist(b, c) + 1e-9)
    }
  }

  test("euclidean: dimension mismatch rejected") {
    intercept[IllegalArgumentException] {
      EuclideanMetric.dist(Array(1.0), Array(1.0, 2.0))
    }
  }

  test("euclidean: a NaN coordinate fails exact, approximate and streaming DBSCAN") {
    val pts = TestUtil.blobs(60, 2, 2, seed = 3)
    pts(17)(1) = Double.NaN
    intercept[IllegalArgumentException](ExactDBSCAN.run(pts, EuclideanMetric, 1.0, 5))
    intercept[IllegalArgumentException](ApproxDBSCAN.run(pts, EuclideanMetric, 1.0, 5, 0.5))
    intercept[IllegalArgumentException](StreamingDBSCAN.runBatch(pts, EuclideanMetric, 1.0, 5, 0.5))
  }

  test("edit distance: known values") {
    assert(EditDistanceMetric.dist("kitten", "sitting") == 3.0)
    assert(EditDistanceMetric.dist("flaw", "lawn") == 2.0)
    assert(EditDistanceMetric.dist("", "abc") == 3.0)
    assert(EditDistanceMetric.dist("abc", "") == 3.0)
    assert(EditDistanceMetric.dist("abc", "abc") == 0.0)
    assert(EditDistanceMetric.dist("a", "b") == 1.0)
  }

  test("edit distance: symmetry on random strings") {
    val rnd = new Random(3)
    def s(): String = Iterator.fill(rnd.nextInt(12))(('a' + rnd.nextInt(4)).toChar).mkString
    for (_ <- 0 until 300) {
      val (a, b) = (s(), s())
      assert(EditDistanceMetric.dist(a, b) == EditDistanceMetric.dist(b, a))
    }
  }

  test("edit distance: triangle inequality on random triples") {
    val rnd = new Random(4)
    def s(): String = Iterator.fill(rnd.nextInt(10))(('a' + rnd.nextInt(3)).toChar).mkString
    for (_ <- 0 until 500) {
      val (a, b, c) = (s(), s(), s())
      assert(EditDistanceMetric.dist(a, c) <=
        EditDistanceMetric.dist(a, b) + EditDistanceMetric.dist(b, c))
    }
  }

  test("edit distance: bounded by max length, at least length difference") {
    val rnd = new Random(5)
    def s(): String = Iterator.fill(rnd.nextInt(15))(('a' + rnd.nextInt(5)).toChar).mkString
    for (_ <- 0 until 300) {
      val (a, b) = (s(), s())
      val d = EditDistanceMetric.dist(a, b)
      assert(d <= math.max(a.length, b.length))
      assert(d >= math.abs(a.length - b.length))
    }
  }

  test("edit distance: dist equals the full table; distWithin is exact within the bound, above it beyond") {
    val rnd = new Random(7)
    for (t <- 0 until 20000) {
      val sigma = 1 + rnd.nextInt(4)
      val (a, b) = (randomString(rnd, 25, sigma), randomString(rnd, 25, sigma))
      val bound = t % 5 match {
        case 0 => rnd.nextInt(30).toDouble      // integer
        case 1 => rnd.nextInt(30) + 0.5         // half-integer
        case 2 => rnd.nextDouble() * 30         // any fraction
        case 3 => 0.0
        case _ => Double.PositiveInfinity
      }
      val want = levenshtein(a, b)
      assert(EditDistanceMetric.dist(a, b) == want, s"'$a' vs '$b'")
      val got  = EditDistanceMetric.distWithin(a, b, bound)
      if (want <= bound) assert(got == want, s"'$a' vs '$b' within $bound: got $got, want $want")
      else assert(got > bound, s"'$a' vs '$b' within $bound: got $got, true distance $want")
    }
  }

  test("euclidean: distWithin is the default, the exact distance for every bound") {
    val rnd = new Random(8)
    for (_ <- 0 until 500) {
      val d = 1 + rnd.nextInt(8)
      val (a, b) = (Array.fill(d)(rnd.nextGaussian() * 5), Array.fill(d)(rnd.nextGaussian() * 5))
      for (bound <- Seq(0.0, rnd.nextDouble() * 10, Double.PositiveInfinity))
        assert(EuclideanMetric.distWithin(a, b, bound) == EuclideanMetric.dist(a, b))
    }
  }

  test("edit distance: bounded calls leave the net and the exact, approximate and streaming labels unchanged") {
    val oracle = new DistOnly(EditDistanceMetric)
    for ((seed, eps, minPts, rho) <- Seq((61L, 4.0, 4, 0.5), (62L, 6.0, 8, 1.0), (63L, 3.0, 3, 2.0), (64L, 7.5, 10, 0.5));
         metric <- Seq(EditDistanceMetric, new Overshoot(EditDistanceMetric))) {
      val pts  = Datasets.text("t", 160, k = 4, seed = seed).points
      val what = s"seed $seed, ε $eps, MinPts $minPts, ρ $rho, $metric"
      val (g, want) = (Gonzalez.run(pts, metric, rho * eps / 2), Gonzalez.run(pts, oracle, rho * eps / 2))
      assert(g.centerIdx == want.centerIdx && (g.assignment sameElements want.assignment) &&
        (g.distToCenter sameElements want.distToCenter), s"net differs ($what)")
      assert(ExactDBSCAN.run(pts, metric, eps, minPts).result.labels sameElements
        ExactDBSCAN.run(pts, oracle, eps, minPts).result.labels, s"exact labels differ ($what)")
      assert(ApproxDBSCAN.run(pts, metric, eps, minPts, rho).result.labels sameElements
        ApproxDBSCAN.run(pts, oracle, eps, minPts, rho).result.labels, s"approx labels differ ($what)")
      assert(StreamingDBSCAN.runBatch(pts, metric, eps, minPts, rho, chunkSize = 37)._1 sameElements
        StreamingDBSCAN.runBatch(pts, oracle, eps, minPts, rho, chunkSize = 37)._1,
        s"streaming labels differ ($what)")
    }
  }
}

object MetricSpec {

  /** `m` with only `dist`: `distWithin` falls back to the full evaluation. */
  final class DistOnly[T](m: Metric[T]) extends Metric[T] {
    override def dist(a: T, b: T): Double = m.dist(a, b)
  }

  /** `m` at the far edge of the `distWithin` contract: past the bound it
    * returns +∞, so a caller that relies on more than "above the bound"
    * decides differently.
    */
  final class Overshoot[T](m: Metric[T]) extends Metric[T] {
    override def dist(a: T, b: T): Double = m.dist(a, b)
    override def distWithin(a: T, b: T, bound: Double): Double = {
      val d = m.distWithin(a, b, bound)
      if (d <= bound) d else Double.PositiveInfinity
    }
    override def toString: String = s"Overshoot($m)"
  }

  /** A string of length 0 to `maxLen` over the first `sigma` letters. */
  def randomString(rnd: Random, maxLen: Int, sigma: Int): String =
    Iterator.fill(rnd.nextInt(maxLen + 1))(('a' + rnd.nextInt(sigma)).toChar).mkString

  /** The full (|a|+1)×(|b|+1) Levenshtein table: the oracle for the banded one. */
  def levenshtein(a: String, b: String): Double = {
    val d = Array.tabulate(a.length + 1, b.length + 1)((i, j) => if (i == 0) j else if (j == 0) i else 0)
    for (i <- 1 to a.length; j <- 1 to b.length)
      d(i)(j) = math.min(d(i - 1)(j - 1) + (if (a(i - 1) == b(j - 1)) 0 else 1),
        math.min(d(i - 1)(j), d(i)(j - 1)) + 1)
    d(a.length)(b.length).toDouble
  }
}
