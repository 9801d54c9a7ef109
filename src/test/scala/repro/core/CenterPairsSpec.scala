package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Datasets
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The A_e sets read from the center pairs `Gonzalez.run` keeps, against the
  * loop that evaluates every pair of centers, at thresholds below, at and
  * above the kept one, and on nets built without pairs.
  */
class CenterPairsSpec extends AnyFunSuite {
  import CenterPairsSpec._
  import TestUtil._

  /** A net kept at `keep` equals the net without pairs in all four fields,
    * its pairs are exact, and `neighborSets` equals the evaluating loop at
    * each threshold.
    */
  private def check[T](points: IndexedSeq[T], metric: Metric[T], rBar: Double, keep: Double,
                       what: String): Unit = {
    val plain = Gonzalez.run(points, metric, rBar)
    val kept  = Gonzalez.run(points, metric, rBar, keepWithin = keep)
    assert(plain.pairs.isEmpty, s"$what: a net without keepWithin kept pairs")
    assert(kept.centerIdx == plain.centerIdx, s"$what: centers differ")
    assert(kept.assignment.sameElements(plain.assignment), s"$what: assignment differs")
    assert(kept.distToCenter.sameElements(plain.distToCenter), s"$what: distToCenter differs")
    kept.coverSets.indices.foreach { e =>
      assert(kept.coverSets(e).sameElements(plain.coverSets(e)), s"$what: cover set $e differs")
    }
    val pairs = kept.pairs.get
    val cs    = kept.centerIdx.map(points)
    assert(pairs.within == keep)
    cs.indices.foreach { e =>
      assert(pairs.nbr(e).sameElements(pairs.nbr(e).sorted), s"$what: pairs of $e not ascending")
      pairs.nbr(e).indices.foreach { j =>
        val d = metric.dist(cs(e), cs(pairs.nbr(e)(j)))
        assert(pairs.dist(e)(j) == d && d <= keep, s"$what: kept distance $e–${pairs.nbr(e)(j)} wrong")
      }
    }
    for (thr <- Seq(keep / 2, keep * 0.9, keep, keep * 1.25, keep * 2)) {
      val want = evaluated(points, metric, kept, thr)
      for (net <- Seq(kept, plain)) {
        val got = Gonzalez.neighborSets(points, metric, net, thr)
        assert(got.length == want.length, s"$what: |A| differs")
        got.indices.foreach { e =>
          assert(got(e).sameElements(want(e)),
            s"$what, threshold $thr, ${if (net eq kept) "kept" else "no"} pairs: A($e) differs")
        }
      }
    }
  }

  test("stored A_e equals the evaluating loop on 120 random Euclidean inputs") {
    val rnd = new Random(1101)
    for (t <- 0 until 120) {
      val n = if (t % 30 == 0) 1 else 1 + rnd.nextInt(150)
      val d = 1 + rnd.nextInt(3)
      val pts: IndexedSeq[Vec] = t % 4 match {
        case 0 => IndexedSeq.fill(n)(Array.fill(d)(rnd.nextInt(6).toDouble)) // integer grid
        case 1 => // duplicates drawn from a small pool
          val pool = Array.fill(1 + rnd.nextInt(10))(Array.fill(d)(rnd.nextInt(5).toDouble))
          IndexedSeq.fill(n)(pool(rnd.nextInt(pool.length)).clone())
        case 2 => blobs(n, d, 1 + rnd.nextInt(4), seed = rnd.nextLong())
        case _ => uniform(n, d, seed = rnd.nextLong())
      }
      val rBar = Seq(0.5, 1.0, 1.5)(rnd.nextInt(3))
      val eps  = Seq(1.0, 2.0, math.sqrt(2))(rnd.nextInt(3))
      val keep = if (rnd.nextBoolean()) 2 * rBar + eps else 4 * rBar + eps
      check(pts, EuclideanMetric, rBar, keep, s"instance $t (n=$n, d=$d, r̄=$rBar, keep=$keep)")
    }
  }

  test("stored A_e equals the evaluating loop on Datasets.text under edit distance") {
    for (seed <- 1 to 4; (eps, rho) <- Seq((7.0, 1.0), (8.0, 0.5))) {
      val pts  = Datasets.text("t", 160, k = 4, seed = 1100 + seed).points
      val rBar = rho * eps / 2
      check(pts, EditDistanceMetric, rBar, 4 * rBar + eps, s"text seed $seed ε=$eps ρ=$rho")
      check(pts, EditDistanceMetric, eps / 2, 2 * (eps / 2) + eps, s"text seed $seed ε/2 net")
    }
  }

  test("n = 1: one center, its own neighbor at distance 0") {
    val g = Gonzalez.run(IndexedSeq(Array(1.0, 2.0)), EuclideanMetric, 1.0, keepWithin = 3.0)
    val p = g.pairs.get
    assert(p.nbr.map(_.toSeq) == Seq(Seq(0)))
    assert(p.dist.map(_.toSeq) == Seq(Seq(0.0)))
    assert(Gonzalez.neighborSets(IndexedSeq(Array(1.0, 2.0)), EuclideanMetric, g, 1.0).map(_.toSeq) == Seq(Seq(0)))
  }

  test("filtering above the kept threshold is refused") {
    val pts = blobs(60, 2, 2, seed = 1102)
    val p   = Gonzalez.run(pts, EuclideanMetric, 0.5, keepWithin = 2.0).pairs.get
    intercept[IllegalArgumentException](p.filter(2.5))
  }
}

object CenterPairsSpec {

  /** A_e by evaluating every pair of centers within `threshold`. The test
    * oracle for the A_e read from stored pairs.
    */
  def evaluated[T](points: IndexedSeq[T], metric: Metric[T], res: GonzalezResult,
                   threshold: Double): IndexedSeq[Array[Int]] = {
    val k   = res.numCenters
    val cs  = res.centerIdx.map(points)
    val out = Array.fill(k)(ArrayBuffer.empty[Int])
    var i = 0
    while (i < k) {
      out(i) += i
      var j = i + 1
      while (j < k) {
        if (metric.distWithin(cs(i), cs(j), threshold) <= threshold) { out(i) += j; out(j) += i }
        j += 1
      }
      i += 1
    }
    out.map(_.toArray.sorted).toIndexedSeq
  }
}
