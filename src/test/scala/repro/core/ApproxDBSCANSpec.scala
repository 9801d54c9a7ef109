package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.NaiveDBSCAN
import repro.data.Datasets
import scala.util.Random

/** Algorithm 2 is verified against the sandwich theorem (Definition 2 /
  * Gan–Tao): exact(ε) refines it on core points, and it refines
  * exact((1+ρ)ε). Plus the size/structure claims of Lemmas 8–9.
  */
class ApproxDBSCANSpec extends AnyFunSuite {
  import TestUtil._

  private def check(points: IndexedSeq[Vec], eps: Double, minPts: Int, rho: Double): Unit = {
    val out = ApproxDBSCAN.run(points, EuclideanMetric, eps, minPts, rho)
    assertSandwich(points, EuclideanMetric, eps, minPts, rho, out.result.labels)
  }

  test("sandwich holds on gaussian blobs across rho") {
    val pts = blobs(300, 2, 3, seed = 71)
    for (rho <- Seq(0.1, 0.5, 1.0, 2.0)) check(pts, eps = 1.0, minPts = 5, rho)
  }

  test("sandwich holds with outliers") {
    val pts = blobs(350, 2, 4, outliers = 25, seed = 72)
    for (rho <- Seq(0.25, 0.5)) check(pts, eps = 1.0, minPts = 5, rho)
  }

  test("sandwich holds on random configurations") {
    val rnd = new Random(73)
    for (trial <- 0 until 10) {
      val pts = blobs(120 + rnd.nextInt(180), 1 + rnd.nextInt(3), 1 + rnd.nextInt(4),
                      std = 0.3 + rnd.nextDouble() * 0.7, outliers = rnd.nextInt(15),
                      seed = 700 + trial)
      check(pts, eps = 0.6 + rnd.nextDouble(), minPts = 3 + rnd.nextInt(8),
            rho = Seq(0.2, 0.5, 1.0)(rnd.nextInt(3)))
    }
  }

  test("sandwich holds on moons") {
    val ds = Datasets.moons(500, seed = 74)
    check(ds.points, eps = 0.15, minPts = 5, rho = 0.5)
  }

  test("sandwich holds on text data under edit distance") {
    val ds  = Datasets.text("t", 200, k = 4, seed = 75)
    val out = ApproxDBSCAN.run(ds.points, EditDistanceMetric, 9.0, 5, 0.5)
    assertSandwich(ds.points, EditDistanceMetric, 9.0, 5, 0.5, out.result.labels)
  }

  test("well-separated blobs: approx equals exact clustering exactly") {
    // separation ≫ (1+ρ)ε ⇒ the sandwich pinches: approx = exact.
    val pts   = blobs(300, 2, 3, std = 0.3, sep = 50.0, seed = 76)
    val exact = NaiveDBSCAN.run(pts, EuclideanMetric, 1.0, 5)
    val out   = ApproxDBSCAN.run(pts, EuclideanMetric, 1.0, 5, 0.5)
    val cores = pts.indices.filter(exact.types(_) == PointType.Core)
    val map   = scala.collection.mutable.HashMap.empty[Int, Int]
    val rmap  = scala.collection.mutable.HashMap.empty[Int, Int]
    cores.foreach { i =>
      val (g, w) = (out.result.labels(i), exact.labels(i))
      assert(map.getOrElseUpdate(g, w) == w)
      assert(rmap.getOrElseUpdate(w, g) == g)
    }
  }

  test("Lemma 9: summary is much smaller than n and bounded by the ball count") {
    val pts = blobs(1000, 2, 3, std = 0.3, outliers = 10, seed = 77)
    val out = ApproxDBSCAN.run(pts, EuclideanMetric, 1.0, 10, 0.5)
    assert(out.summarySize < pts.length / 2, s"summary ${out.summarySize} not small")
    assert(out.summarySize > 0)
  }

  test("every summary point is a true core point (never a false positive)") {
    val pts = blobs(300, 2, 3, outliers = 20, seed = 78)
    val eps = 1.0; val mp = 5
    val exact = NaiveDBSCAN.run(pts, EuclideanMetric, eps, mp)
    val out   = ApproxDBSCAN.run(pts, EuclideanMetric, eps, mp, 0.5)
    // points typed Core in the approx output are exactly the summary members
    val summaryCores = pts.indices.filter(out.result.types(_) == PointType.Core)
    assert(summaryCores.length == out.summarySize)
    summaryCores.foreach { i =>
      assert(exact.types(i) == PointType.Core, s"summary point $i is not a real core point")
    }
  }

  test("cluster count is sandwiched between exact((1+ρ)ε) and exact(ε)") {
    val pts = blobs(400, 2, 5, std = 0.4, sep = 6.0, outliers = 10, seed = 79)
    val eps = 0.8; val mp = 5; val rho = 0.5
    def clustersOnCores(r: DBSCANResult): Int =
      pts.indices.filter(r.types(_) == PointType.Core).map(r.labels).distinct.length
    val e1 = NaiveDBSCAN.run(pts, EuclideanMetric, eps, mp)
    val e2 = NaiveDBSCAN.run(pts, EuclideanMetric, (1 + rho) * eps, mp)
    val ap = ApproxDBSCAN.run(pts, EuclideanMetric, eps, mp, rho)
    // cores of e1, as labeled by each solution
    val cores = pts.indices.filter(e1.types(_) == PointType.Core)
    val nExact1 = cores.map(e1.labels).distinct.length
    val nApprox = cores.map(ap.result.labels).distinct.length
    val nExact2 = cores.map(e2.labels).distinct.length
    assert(nExact2 <= nApprox && nApprox <= nExact1,
      s"cluster counts not sandwiched: $nExact2 ≤ $nApprox ≤ $nExact1")
  }

  test("timings and counters are populated") {
    val pts = blobs(200, 2, 2, seed = 80)
    val out = ApproxDBSCAN.run(pts, EuclideanMetric, 1.0, 5, 0.5)
    assert(out.timings.gonzalezNs > 0)
    assert(out.numCenters > 0)
    assert(out.summarySize > 0)
  }

  test("precomputed Gonzalez run is honored (parameter tuning, Remark 6)") {
    val pts  = blobs(250, 2, 3, seed = 81)
    val rho  = 0.5; val eps = 1.0
    val g    = Gonzalez.run(pts, EuclideanMetric, rho * eps / 2)
    val a    = ApproxDBSCAN.run(pts, EuclideanMetric, eps, 5, rho)
    val b    = ApproxDBSCAN.run(pts, EuclideanMetric, eps, 5, rho, precomputed = Some((g, 0L)))
    assert(a.result.labels.sameElements(b.result.labels))
  }

  test("rho = 3 is rejected (Lemma 8 needs rho ≤ 2)") {
    val pts = blobs(50, 2, 1, seed = 82)
    val e   = intercept[IllegalArgumentException](ApproxDBSCAN.run(pts, EuclideanMetric, 1.0, 5, 3.0))
    assert(e.getMessage.contains("Lemma 8"))
  }

  test("a precomputed net that a center cap stopped early is rejected") {
    val pts    = blobs(250, 2, 3, seed = 83)
    val rho    = 0.5; val eps = 1.0
    val capped = Gonzalez.run(pts, EuclideanMetric, rho * eps / 2, maxCenters = 3)
    assert(capped.coveringRadius > rho * eps / 2)
    val e = intercept[IllegalArgumentException](
      ApproxDBSCAN.run(pts, EuclideanMetric, eps, 5, rho, precomputed = Some((capped, 0L))))
    assert(e.getMessage.contains("maxCenters"))
  }
}
