package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.NaiveDBSCAN
import scala.util.Random

/** Per-configuration registered tests: ExactDBSCAN ≡ original DBSCAN and the
  * ρ-approx variants satisfy the sandwich, across a grid of randomized
  * configurations (dimension, cluster count, spread, outliers, parameters).
  * One ScalaTest test per configuration so failures pinpoint the instance.
  */
class RandomizedEquivalenceSpec extends AnyFunSuite {
  import TestUtil._

  private val rnd = new Random(20240816L)

  for (trial <- 0 until 18) {
    val d    = 1 + rnd.nextInt(4)
    val k    = 1 + rnd.nextInt(4)
    val n    = 120 + rnd.nextInt(180)
    val std  = 0.3 + rnd.nextDouble() * 0.8
    val out  = rnd.nextInt(18)
    val eps  = 0.5 + rnd.nextDouble() * 1.5
    val mp   = 2 + rnd.nextInt(9)
    val seed = 3000 + trial

    test(f"exact ≡ naive DBSCAN [trial $trial%02d: n=$n d=$d k=$k std=$std%.2f z=$out eps=$eps%.2f minPts=$mp]") {
      val pts  = blobs(n, d, k, std = std, outliers = out, seed = seed)
      val want = NaiveDBSCAN.run(pts, EuclideanMetric, eps, mp)
      val got  = ExactDBSCAN.run(pts, EuclideanMetric, eps, mp).result
      assertSameDBSCAN(pts, EuclideanMetric, eps, got, want)
    }
  }

  for (trial <- 0 until 12) {
    val d    = 1 + rnd.nextInt(3)
    val k    = 1 + rnd.nextInt(4)
    val n    = 120 + rnd.nextInt(150)
    val out  = rnd.nextInt(15)
    val eps  = 0.6 + rnd.nextDouble()
    val mp   = 3 + rnd.nextInt(8)
    val rho  = Seq(0.2, 0.5, 1.0, 2.0)(rnd.nextInt(4))
    val seed = 4000 + trial

    test(f"approx sandwich [trial $trial%02d: n=$n d=$d k=$k z=$out eps=$eps%.2f minPts=$mp rho=$rho]") {
      val pts = blobs(n, d, k, outliers = out, seed = seed)
      val res = ApproxDBSCAN.run(pts, EuclideanMetric, eps, mp, rho)
      assertSandwich(pts, EuclideanMetric, eps, mp, rho, res.result.labels)
    }

    test(f"streaming sandwich [trial $trial%02d: n=$n d=$d k=$k z=$out eps=$eps%.2f minPts=$mp rho=$rho]") {
      val pts = blobs(n, d, k, outliers = out, seed = seed + 500)
      val (labels, _) = StreamingDBSCAN.runBatch(pts, EuclideanMetric, eps, mp, rho,
        chunkSize = 1 + rnd.nextInt(200))
      assertSandwich(pts, EuclideanMetric, eps, mp, rho, labels)
    }
  }

  for (trial <- 0 until 8) {
    val n    = 100 + rnd.nextInt(150)
    val eps  = 0.5 + rnd.nextDouble()
    val mp   = 3 + rnd.nextInt(6)
    val seed = 5000 + trial

    test(f"exact ≡ naive on uniform (structure-free) data [trial $trial%02d: n=$n eps=$eps%.2f minPts=$mp]") {
      val pts  = uniform(n, 2, seed = seed)
      val want = NaiveDBSCAN.run(pts, EuclideanMetric, eps, mp)
      val got  = ExactDBSCAN.run(pts, EuclideanMetric, eps, mp).result
      assertSameDBSCAN(pts, EuclideanMetric, eps, got, want)
    }
  }

  test("exact ≡ naive on 3000 tiny instances (n 20–80, d 1–2, MinPts 1–5)") {
    val rnd = new Random(77)
    for (t <- 0 until 3000) {
      val n   = 20 + rnd.nextInt(61)
      val d   = 1 + rnd.nextInt(2)
      val mp  = 1 + rnd.nextInt(5)
      val pts = IndexedSeq.fill(n)(Array.fill(d)(rnd.nextDouble() * 10))
      val eps = 0.3 + rnd.nextDouble() * 2.7
      val want = NaiveDBSCAN.run(pts, EuclideanMetric, eps, mp)
      val got  = ExactDBSCAN.run(pts, EuclideanMetric, eps, mp).result
      withClue(f"instance $t (n=$n, d=$d, eps=$eps%.3f, minPts=$mp): ") {
        assertSameDBSCAN(pts, EuclideanMetric, eps, got, want)
      }
    }
  }
}
