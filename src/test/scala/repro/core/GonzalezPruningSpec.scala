package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The pruned `Gonzalez.run` against the plain farthest-first scan it
  * replaces: the same centers, assignment, distances and cover sets on random
  * inputs full of ties, and fewer distance evaluations.
  */
class GonzalezPruningSpec extends AnyFunSuite {
  import GonzalezPruningSpec._
  import TestUtil._

  private def assertSameNet[T](points: IndexedSeq[T], metric: Metric[T], rBar: Double,
                               seedIdx: Int, maxCenters: Int, what: String): Unit = {
    val want = fullScan(points, metric, rBar, seedIdx, maxCenters)
    val got  = Gonzalez.run(points, metric, rBar, seedIdx, maxCenters)
    assert(got.centerIdx == want.centerIdx, s"$what: centers differ")
    assert(got.assignment.sameElements(want.assignment), s"$what: assignment differs")
    assert(got.distToCenter.sameElements(want.distToCenter), s"$what: distToCenter differs")
    assert(got.coverSets.length == want.coverSets.length, s"$what: cover set count differs")
    got.coverSets.indices.foreach { e =>
      assert(got.coverSets(e).sameElements(want.coverSets(e)), s"$what: cover set $e differs")
    }
  }

  test("same net as the full scan on 320 random Euclidean inputs") {
    val rnd = new Random(501)
    for (t <- 0 until 320) {
      val n = if (t % 40 == 0) 1 else 1 + rnd.nextInt(160)
      val d = 1 + rnd.nextInt(4)
      val pts: IndexedSeq[Vec] = t % 4 match {
        case 0 => // integer grid: many equal distances
          IndexedSeq.fill(n)(Array.fill(d)(rnd.nextInt(7).toDouble))
        case 1 => // duplicates drawn from a small pool
          val pool = Array.fill(1 + rnd.nextInt(12))(Array.fill(d)(rnd.nextGaussian() * 5))
          IndexedSeq.fill(n)(pool(rnd.nextInt(pool.length)).clone())
        case 2 => blobs(n, d, 1 + rnd.nextInt(5), seed = rnd.nextLong())
        case _ => uniform(n, d, seed = rnd.nextLong())
      }
      val rBar    = Seq(0.5, 1.0, 1.5, 2.0, 3.0, 6.0)(rnd.nextInt(6))
      val seedIdx = if (rnd.nextBoolean()) 0 else rnd.nextInt(n)
      val cap     = if (rnd.nextInt(4) == 0) 1 + rnd.nextInt(10) else Int.MaxValue
      assertSameNet(pts, EuclideanMetric, rBar, seedIdx, cap, s"instance $t (n=$n, d=$d, r̄=$rBar)")
    }
  }

  test("same net as the full scan on 220 random edit-distance inputs") {
    val rnd = new Random(502)
    for (t <- 0 until 220) {
      val n     = 1 + rnd.nextInt(80)
      val sigma = 2 + rnd.nextInt(3)
      val strs = IndexedSeq.fill(n)(
        Iterator.fill(rnd.nextInt(9))(('a' + rnd.nextInt(sigma)).toChar).mkString)
      val rBar    = Seq(0.5, 1.0, 1.5, 2.0, 3.0)(rnd.nextInt(5))
      val seedIdx = if (rnd.nextBoolean()) 0 else rnd.nextInt(n)
      val cap     = if (rnd.nextInt(4) == 0) 1 + rnd.nextInt(10) else Int.MaxValue
      assertSameNet(strs, EditDistanceMetric, rBar, seedIdx, cap, s"instance $t (n=$n, r̄=$rBar)")
    }
  }

  test("the first center costs n distance calls, a clustered net under half of n·|E|") {
    val pts   = blobs(2000, 3, 5, seed = 503)
    val first = new CountingMetric(EuclideanMetric)
    Gonzalez.run(pts, first, rBar = 0.5, maxCenters = 1)
    assert(first.calls == pts.length)

    val all = new CountingMetric(EuclideanMetric)
    val g   = Gonzalez.run(pts, all, rBar = 0.5)
    val full = pts.length.toLong * g.numCenters
    assert(g.numCenters > 20, s"too few centers (${g.numCenters}) to show pruning")
    assert(all.calls < full / 2, s"${all.calls} calls, the full scan makes $full")
  }
}

object GonzalezPruningSpec {

  final class CountingMetric[T](m: Metric[T]) extends Metric[T] {
    var calls = 0L
    override def dist(a: T, b: T): Double = { calls += 1; m.dist(a, b) }
  }

  /** Algorithm 1 as a plain scan: every new center is compared with all n
    * points. The test oracle for the pruned `Gonzalez.run`.
    */
  def fullScan[T](points: IndexedSeq[T], metric: Metric[T], rBar: Double,
                  seedIdx: Int, maxCenters: Int): GonzalezResult = {
    val n          = points.length
    val assignment = new Array[Int](n)
    val dists      = Array.fill(n)(Double.PositiveInfinity)
    val centers    = ArrayBuffer.empty[Int]
    var next = seedIdx
    var dmax = Double.PositiveInfinity
    while (dmax > rBar && centers.length < maxCenters) {
      val e = centers.length
      val c = points(next)
      centers += next
      var i       = 0
      var newMax  = 0.0
      var newNext = -1
      while (i < n) {
        val d = metric.dist(points(i), c)
        if (d < dists(i)) { dists(i) = d; assignment(i) = e }
        if (dists(i) > newMax) { newMax = dists(i); newNext = i }
        i += 1
      }
      dmax = newMax
      next = newNext
    }
    val sets = Array.fill(centers.length)(ArrayBuffer.empty[Int])
    var i    = 0
    while (i < n) { sets(assignment(i)) += i; i += 1 }
    GonzalezResult(centers.toIndexedSeq, assignment, dists, sets.map(_.toArray).toIndexedSeq)
  }
}
