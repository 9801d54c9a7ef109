package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.NaiveDBSCAN
import repro.data.Datasets
import scala.util.Random

/** Algorithm 3 must produce a valid ρ-approximate DBSCAN solution (the same
  * sandwich guarantee as Algorithm 2) with memory O((Δ/ρε)^D + z).
  */
class StreamingDBSCANSpec extends AnyFunSuite {
  import TestUtil._

  test("sandwich holds on gaussian blobs across rho and chunk sizes") {
    val pts = blobs(300, 2, 3, seed = 91)
    for (rho <- Seq(0.25, 0.5, 1.0); chunk <- Seq(1, 17, 1000)) {
      val (labels, _) = StreamingDBSCAN.runBatch(pts, EuclideanMetric, 1.0, 5, rho, chunk)
      assertSandwich(pts, EuclideanMetric, 1.0, 5, rho, labels)
    }
  }

  test("sandwich holds with outliers") {
    val pts = blobs(350, 2, 4, outliers = 25, seed = 92)
    val (labels, _) = StreamingDBSCAN.runBatch(pts, EuclideanMetric, 1.0, 5, 0.5)
    assertSandwich(pts, EuclideanMetric, 1.0, 5, 0.5, labels)
  }

  test("sandwich holds on random configurations and stream orders") {
    val rnd = new Random(93)
    for (trial <- 0 until 8) {
      val base = blobs(150 + rnd.nextInt(150), 2, 1 + rnd.nextInt(3),
                       outliers = rnd.nextInt(15), seed = 900 + trial)
      val pts  = rnd.shuffle(base)
      val eps  = 0.6 + rnd.nextDouble()
      val mp   = 3 + rnd.nextInt(8)
      val rho  = Seq(0.25, 0.5, 1.0)(rnd.nextInt(3))
      val (labels, _) = StreamingDBSCAN.runBatch(pts, EuclideanMetric, eps, mp, rho)
      assertSandwich(pts, EuclideanMetric, eps, mp, rho, labels)
    }
  }

  test("sandwich holds on moons") {
    val ds = Datasets.moons(500, seed = 94)
    val (labels, _) = StreamingDBSCAN.runBatch(ds.points, EuclideanMetric, 0.15, 5, 0.5)
    assertSandwich(ds.points, EuclideanMetric, 0.15, 5, 0.5, labels)
  }

  test("sandwich holds on text data") {
    val ds = Datasets.text("t", 200, k = 4, seed = 95)
    val (labels, _) = StreamingDBSCAN.runBatch(ds.points, EditDistanceMetric, 9.0, 5, 0.5)
    assertSandwich(ds.points, EditDistanceMetric, 9.0, 5, 0.5, labels)
  }

  test("well-separated blobs: recovers the exact clustering") {
    val pts   = blobs(300, 2, 3, std = 0.3, sep = 50.0, seed = 96)
    val exact = NaiveDBSCAN.run(pts, EuclideanMetric, 1.0, 5)
    val (labels, _) = StreamingDBSCAN.runBatch(pts, EuclideanMetric, 1.0, 5, 0.5)
    val cores = pts.indices.filter(exact.types(_) == PointType.Core)
    val map = scala.collection.mutable.HashMap.empty[Int, Int]
    val rmap = scala.collection.mutable.HashMap.empty[Int, Int]
    cores.foreach { i =>
      assert(map.getOrElseUpdate(labels(i), exact.labels(i)) == exact.labels(i))
      assert(rmap.getOrElseUpdate(exact.labels(i), labels(i)) == labels(i))
    }
  }

  test("memory bound: each non-core ball buffers < MinPts points; footprint ≪ n") {
    val pts = blobs(2000, 2, 3, std = 0.3, outliers = 20, seed = 97)
    val s   = new StreamingDBSCAN[Vec](EuclideanMetric, 1.0, 10, 0.5)
    pts.grouped(256).foreach(s.observePass1)
    s.finishPass1()
    assert(s.memoryFootprint < pts.length / 2,
      s"|E|+|M| = ${s.memoryFootprint} is not ≪ n = ${pts.length}")
    assert(s.numBalls > 0)
  }

  test("memory footprint shrinks as rho grows (Figure 6 shape)") {
    val pts = blobs(1500, 2, 3, std = 0.4, seed = 98)
    val foot = Seq(0.5, 1.0, 2.0).map { rho =>
      val (_, s) = StreamingDBSCAN.runBatch(pts, EuclideanMetric, 1.0, 10, rho)
      s.memoryFootprint
    }
    assert(foot == foot.sortBy(-_), s"footprints should be non-increasing in rho: $foot")
  }

  test("label stream equals in-memory labels regardless of chunking") {
    val pts = blobs(400, 2, 3, outliers = 10, seed = 99)
    val (l1, _) = StreamingDBSCAN.runBatch(pts, EuclideanMetric, 1.0, 5, 0.5, chunkSize = 1)
    val (l2, _) = StreamingDBSCAN.runBatch(pts, EuclideanMetric, 1.0, 5, 0.5, chunkSize = 4096)
    assert(l1.sameElements(l2), "chunking must not change the result")
  }

  test("pass 3: a point pass 1 never saw, in no ball, still searches all of S*") {
    // Two dense clumps, far apart; r̄ = 0.25, (1+ρ/2)ε = 1.25.
    val pts = IndexedSeq(0.0, 0.0, 0.0, 0.1, 0.1, 10.0, 10.0, 10.0, 10.1, 10.1).map(x => Array(x))
    val (labels, s) = StreamingDBSCAN.runBatch(pts, EuclideanMetric, 1.0, 3, 0.5)
    assert(labels.distinct.length == 2 && labels.forall(_ >= 0))
    // 10.9 lies 0.9 from the second clump's center, outside every ball.
    val stray = s.labelPass3(Seq(Array(10.9), Array(-0.9), Array(50.0))).toSeq
    assert(stray == Seq(labels(5), labels(0), DBSCANResult.Noise))
  }

  test("pass ordering is enforced") {
    val s = new StreamingDBSCAN[Vec](EuclideanMetric, 1.0, 5, 0.5)
    intercept[IllegalArgumentException](s.observePass2(Seq(Array(0.0))))
    intercept[IllegalArgumentException](s.labelPass3(Seq(Array(0.0))).toList)
    intercept[IllegalArgumentException](s.summarySize)
  }

  test("minPts=1: everything within reach is clustered") {
    val pts = blobs(100, 2, 1, std = 0.2, seed = 100)
    val (labels, _) = StreamingDBSCAN.runBatch(pts, EuclideanMetric, 1.0, 1, 0.5)
    assert(labels.forall(_ >= 0))
  }

  test("rho = 3 is rejected (Lemma 8 needs rho ≤ 2)") {
    val e = intercept[IllegalArgumentException](new StreamingDBSCAN[Vec](EuclideanMetric, 1.0, 5, 3.0))
    assert(e.getMessage.contains("Lemma 8"))
  }
}
