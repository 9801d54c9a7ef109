package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.NaiveDBSCAN
import repro.data.Datasets
import scala.util.Random

/** ExactDBSCAN must reproduce the original DBSCAN's solution (up to cluster
  * relabeling and the definitionally-ambiguous border assignment) on every
  * configuration we throw at it.
  */
class ExactDBSCANSpec extends AnyFunSuite {
  import TestUtil._

  private def check(points: IndexedSeq[Vec], eps: Double, minPts: Int): Unit = {
    val want = NaiveDBSCAN.run(points, EuclideanMetric, eps, minPts)
    val got  = ExactDBSCAN.run(points, EuclideanMetric, eps, minPts).result
    assertSameDBSCAN(points, EuclideanMetric, eps, got, want)
  }

  test("matches original DBSCAN on gaussian blobs") {
    check(blobs(300, 2, 3, seed = 51), eps = 1.0, minPts = 5)
    check(blobs(300, 2, 3, seed = 51), eps = 0.5, minPts = 5)
    check(blobs(300, 2, 3, seed = 51), eps = 2.0, minPts = 10)
  }

  test("matches original DBSCAN with planted outliers") {
    check(blobs(400, 2, 4, outliers = 30, seed = 52), eps = 1.0, minPts = 5)
    check(blobs(400, 3, 4, outliers = 30, seed = 53), eps = 1.5, minPts = 8)
  }

  test("matches original DBSCAN on uniform data (no structure)") {
    for (eps <- Seq(0.3, 0.7, 1.5))
      check(uniform(250, 2, seed = 54), eps, minPts = 4)
  }

  test("matches original DBSCAN across random configurations") {
    val rnd = new Random(55)
    for (trial <- 0 until 12) {
      val d    = 1 + rnd.nextInt(4)
      val pts  = blobs(150 + rnd.nextInt(150), d, 1 + rnd.nextInt(4),
                       std = 0.3 + rnd.nextDouble(), outliers = rnd.nextInt(20),
                       seed = 500 + trial)
      val eps  = 0.5 + rnd.nextDouble() * 2
      val mp   = 2 + rnd.nextInt(9)
      check(pts, eps, mp)
    }
  }

  test("matches original DBSCAN on the moons dataset") {
    val ds = Datasets.moons(600, seed = 56)
    val want = NaiveDBSCAN.run(ds.points, EuclideanMetric, 0.15, 5)
    val got  = ExactDBSCAN.run(ds.points, EuclideanMetric, 0.15, 5).result
    assertSameDBSCAN(ds.points, EuclideanMetric, 0.15, got, want)
  }

  test("matches original DBSCAN on text data under edit distance") {
    val ds = Datasets.text("t", 250, k = 4, seed = 57)
    val eps = 9.0
    val want = NaiveDBSCAN.run(ds.points, EditDistanceMetric, eps, 5)
    val got  = ExactDBSCAN.run(ds.points, EditDistanceMetric, eps, 5).result
    assertSameDBSCAN(ds.points, EditDistanceMetric, eps, got, want)
  }

  test("Remark 5: any rBar ≤ ε/2 yields the same solution") {
    val pts  = blobs(300, 2, 3, outliers = 15, seed = 58)
    val want = NaiveDBSCAN.run(pts, EuclideanMetric, 1.0, 5)
    for (rBar <- Seq(0.5, 0.25, 0.1)) {
      val got = ExactDBSCAN.run(pts, EuclideanMetric, 1.0, 5, rBarOpt = Some(rBar)).result
      assertSameDBSCAN(pts, EuclideanMetric, 1.0, got, want)
    }
  }

  test("Remark 5: a precomputed Gonzalez run can be reused when ε grows") {
    val pts  = blobs(300, 2, 3, seed = 59)
    val eps0 = 0.8
    val g    = Gonzalez.run(pts, EuclideanMetric, eps0 / 2)
    for (eps <- Seq(0.8, 1.2, 2.0); mp <- Seq(5, 10)) {
      val want = NaiveDBSCAN.run(pts, EuclideanMetric, eps, mp)
      val got  = ExactDBSCAN.run(pts, EuclideanMetric, eps, mp,
        rBarOpt = Some(eps0 / 2), precomputed = Some((g, 0L))).result
      assertSameDBSCAN(pts, EuclideanMetric, eps, got, want)
    }
  }

  test("Remark 5: a reused ε/2 net of a CLUTO-like input matches original DBSCAN at larger ε") {
    // Its per-ball cover trees once filed points under too-low nodes, so a
    // BCP query missed a merge and split a cluster at every setting below.
    val pts = Datasets.cluto(1500, seed = 1).points
    val g   = Gonzalez.run(pts, EuclideanMetric, 0.4)
    for ((eps, mp) <- Seq((1.0, 5), (1.0, 10), (1.6, 5))) {
      val want = NaiveDBSCAN.run(pts, EuclideanMetric, eps, mp)
      val got  = ExactDBSCAN.run(pts, EuclideanMetric, eps, mp,
        rBarOpt = Some(0.4), precomputed = Some((g, 0L))).result
      withClue(s"(ε′ $eps, MinPts $mp): ")(assertSameDBSCAN(pts, EuclideanMetric, eps, got, want))
    }
  }

  test("rBar > ε/2 is rejected") {
    val pts = blobs(50, 2, 1, seed = 60)
    intercept[IllegalArgumentException] {
      ExactDBSCAN.run(pts, EuclideanMetric, 1.0, 5, rBarOpt = Some(0.8))
    }
  }

  test("all core when eps is huge; all outliers when eps is tiny") {
    val pts = blobs(100, 2, 2, seed = 61)
    val big = ExactDBSCAN.run(pts, EuclideanMetric, 1e6, 5).result
    assert(big.types.forall(_ == PointType.Core))
    assert(big.numClusters == 1)
    val tiny = ExactDBSCAN.run(pts, EuclideanMetric, 1e-9, 5).result
    assert(tiny.types.forall(_ == PointType.Outlier))
  }

  test("minPts = 1 marks every point core") {
    val pts = uniform(80, 2, seed = 62)
    val r   = ExactDBSCAN.run(pts, EuclideanMetric, 0.5, 1).result
    assert(r.types.forall(_ == PointType.Core))
  }

  test("duplicate points are clustered together") {
    val pts = IndexedSeq.fill(20)(Array(1.0, 1.0)) ++ IndexedSeq.fill(20)(Array(9.0, 9.0))
    val r   = ExactDBSCAN.run(pts, EuclideanMetric, 0.5, 5).result
    assert(r.numClusters == 2)
    assert(r.types.forall(_ == PointType.Core))
    assert(r.labels.take(20).distinct.length == 1)
    assert(r.labels.drop(20).distinct.length == 1)
  }

  test("timings are populated and positive") {
    val pts = blobs(200, 2, 2, seed = 63)
    val out = ExactDBSCAN.run(pts, EuclideanMetric, 1.0, 5)
    assert(out.timings.gonzalezNs > 0)
    assert(out.timings.totalNs >= out.timings.gonzalezNs)
    assert(out.numCenters > 0)
  }

  test("a precomputed net that a center cap stopped early is rejected") {
    val pts    = blobs(250, 2, 3, seed = 62)
    val capped = Gonzalez.run(pts, EuclideanMetric, 0.5, maxCenters = 3)
    assert(capped.coveringRadius > 0.5)
    val e = intercept[IllegalArgumentException](
      ExactDBSCAN.run(pts, EuclideanMetric, 1.0, 5, precomputed = Some((capped, 0L))))
    assert(e.getMessage.contains("maxCenters"))
  }
}
