package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.NaiveDBSCAN
import scala.util.Random

/** Inputs full of equal distances, where a rounding slip in a "within ε"
  * decision would show: short strings over 2–3 letters under edit distance
  * with integer ε, and integer grids with duplicates. Each instance checks
  * Exact ≡ Naive on a net that kept its center pairs, the approximate and
  * streaming sandwiches, and an exact re-tune at 1.5ε on the same ε/2 net,
  * whose A_e threshold lies above the kept one (the evaluating fallback).
  */
class TieFuzzSpec extends AnyFunSuite {
  import TestUtil._

  private def checkAll[T: scala.reflect.ClassTag](points: IndexedSeq[T], metric: Metric[T], eps: Double,
                                                  minPts: Int, rho: Double, rnd: Random): Unit = {
    val net = Gonzalez.run(points, metric, eps / 2, keepWithin = 2 * eps)
    val exact = ExactDBSCAN.run(points, metric, eps, minPts, precomputed = Some((net, 0L))).result
    assertSameDBSCAN(points, metric, eps, exact, NaiveDBSCAN.run(points, metric, eps, minPts))
    val retuned = ExactDBSCAN.run(points, metric, 1.5 * eps, minPts, rBarOpt = Some(eps / 2),
      precomputed = Some((net, 0L))).result
    assertSameDBSCAN(points, metric, 1.5 * eps, retuned, NaiveDBSCAN.run(points, metric, 1.5 * eps, minPts))
    assertSandwich(points, metric, eps, minPts, rho, ApproxDBSCAN.run(points, metric, eps, minPts, rho).result.labels)
    val (streamed, _) = StreamingDBSCAN.runBatch(points, metric, eps, minPts, rho, chunkSize = 1 + rnd.nextInt(20))
    assertSandwich(points, metric, eps, minPts, rho, streamed)
  }

  test("500 edit-distance instances over 2–3 letters, integer ε") {
    val rnd = new Random(1301)
    for (t <- 0 until 500) {
      val n     = 10 + rnd.nextInt(40)
      val sigma = 2 + rnd.nextInt(2)
      val strs  = IndexedSeq.fill(n)(Iterator.fill(rnd.nextInt(9))(('a' + rnd.nextInt(sigma)).toChar).mkString)
      val eps   = (1 + rnd.nextInt(4)).toDouble
      val mp    = 1 + rnd.nextInt(5)
      val rho   = Seq(0.25, 0.5, 1.0, 2.0)(rnd.nextInt(4))
      withClue(s"instance $t (n=$n, σ=$sigma, ε=$eps, MinPts=$mp, ρ=$rho): ") {
        checkAll(strs, EditDistanceMetric, eps, mp, rho, rnd)
      }
    }
  }

  test("500 integer-grid instances with duplicates, ε ∈ {1, 1.5, √2, 2}") {
    val rnd = new Random(1302)
    for (t <- 0 until 500) {
      val d    = 1 + rnd.nextInt(3)
      val side = 3 + rnd.nextInt(6)
      val n    = 10 + rnd.nextInt(60)
      val pts: IndexedSeq[Vec] = IndexedSeq.fill(n)(Array.fill(d)(rnd.nextInt(side).toDouble))
      val eps  = Seq(1.0, 1.5, math.sqrt(2), 2.0)(rnd.nextInt(4))
      val mp   = 1 + rnd.nextInt(5)
      val rho  = Seq(0.25, 0.5, 1.0, 2.0)(rnd.nextInt(4))
      withClue(f"instance $t (n=$n, d=$d, side=$side, ε=$eps%.4f, MinPts=$mp, ρ=$rho): ") {
        checkAll(pts, EuclideanMetric, eps, mp, rho, rnd)
      }
    }
  }
}
