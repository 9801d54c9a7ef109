package repro.core

import repro.baselines.NaiveDBSCAN
import scala.util.Random

/** Shared helpers for the correctness suites: small deterministic datasets
  * and the equivalence / sandwich checks from DESIGN.md §5.
  */
object TestUtil {

  type Vec = Array[Double]

  /** Gaussian blobs + uniform outliers, deterministic. */
  def blobs(n: Int, d: Int, k: Int, std: Double = 0.5, sep: Double = 10.0,
            outliers: Int = 0, seed: Long = 1): IndexedSeq[Vec] = {
    val rnd     = new Random(seed)
    val centers = Array.fill(k, d)(rnd.nextGaussian() * sep)
    val pts = IndexedSeq.tabulate(n - outliers) { i =>
      val c = i % k
      Array.tabulate(d)(j => centers(c)(j) + rnd.nextGaussian() * std)
    }
    val out = IndexedSeq.fill(outliers)(Array.fill(d)(rnd.nextDouble() * 6 * sep - 3 * sep))
    pts ++ out
  }

  /** Counts every distance call, bounded or not, and forwards it. */
  final class CallCountingMetric[T](m: Metric[T]) extends Metric[T] {
    var calls = 0L
    override def dist(a: T, b: T): Double = { calls += 1; m.dist(a, b) }
    override def distWithin(a: T, b: T, bound: Double): Double = { calls += 1; m.distWithin(a, b, bound) }
  }

  def uniform(n: Int, d: Int, lo: Double = 0, hi: Double = 10, seed: Long = 2): IndexedSeq[Vec] = {
    val rnd = new Random(seed)
    IndexedSeq.fill(n)(Array.fill(d)(lo + rnd.nextDouble() * (hi - lo)))
  }

  /** Structural equality of two DBSCAN solutions up to cluster relabeling:
    * same core sets, same outlier sets, bijective cluster correspondence on
    * core points, and each border point assigned to a cluster that contains
    * a core point within ε of it.
    */
  def assertSameDBSCAN[T](points: IndexedSeq[T], metric: Metric[T], eps: Double,
                          got: DBSCANResult, want: DBSCANResult): Unit = {
    val n = points.length
    require(got.n == n && want.n == n)
    for (i <- 0 until n) {
      assert((got.types(i) == PointType.Core) == (want.types(i) == PointType.Core),
        s"core disagreement at $i: got=${got.types(i)} want=${want.types(i)}")
      assert((got.types(i) == PointType.Outlier) == (want.types(i) == PointType.Outlier),
        s"outlier disagreement at $i: got=${got.types(i)} want=${want.types(i)}")
    }
    // Bijective label mapping on core points.
    val fwd = scala.collection.mutable.HashMap.empty[Int, Int]
    val bwd = scala.collection.mutable.HashMap.empty[Int, Int]
    for (i <- 0 until n if got.types(i) == PointType.Core) {
      val g = got.labels(i); val w = want.labels(i)
      assert(fwd.getOrElseUpdate(g, w) == w, s"core partition mismatch at $i (coarser in got)")
      assert(bwd.getOrElseUpdate(w, g) == g, s"core partition mismatch at $i (finer in got)")
    }
    // Border validity: got's border label must be witnessed by a core point ≤ ε.
    for (i <- 0 until n if got.types(i) == PointType.Border) {
      val ok = (0 until n).exists { j =>
        got.types(j) == PointType.Core && got.labels(j) == got.labels(i) &&
          metric.dist(points(i), points(j)) <= eps
      }
      assert(ok, s"border $i has no witnessing core point within eps in its cluster")
    }
  }

  /** Gan–Tao sandwich check for a ρ-approximate labeling `approx`:
    * on exact-core points, exact(ε) refines approx, and approx refines
    * exact((1+ρ)ε). Also: every exact-core point must be clustered (≥ 0).
    */
  def assertSandwich[T](points: IndexedSeq[T], metric: Metric[T], eps: Double,
                        minPts: Int, rho: Double, approx: Array[Int]): Unit = {
    val e1 = NaiveDBSCAN.run(points, metric, eps, minPts)
    val e2 = NaiveDBSCAN.run(points, metric, (1 + rho) * eps, minPts)
    val cores = points.indices.filter(e1.types(_) == PointType.Core)
    cores.foreach { i =>
      assert(approx(i) >= 0, s"exact-core point $i is noise in the approx solution")
    }
    // exact(ε) refines approx: same e1 cluster ⇒ same approx cluster.
    val repFor1 = scala.collection.mutable.HashMap.empty[Int, Int]
    cores.foreach { i =>
      val c = e1.labels(i)
      repFor1.get(c) match {
        case Some(j) => assert(approx(i) == approx(j),
          s"points $i,$j share exact(ε) cluster $c but approx says ${approx(i)} vs ${approx(j)}")
        case None => repFor1(c) = i
      }
    }
    // approx refines exact((1+ρ)ε): same approx cluster ⇒ same e2 cluster.
    val repForA = scala.collection.mutable.HashMap.empty[Int, Int]
    cores.foreach { i =>
      val c = approx(i)
      repForA.get(c) match {
        case Some(j) => assert(e2.labels(i) == e2.labels(j),
          s"points $i,$j share approx cluster $c but exact((1+ρ)ε) says ${e2.labels(i)} vs ${e2.labels(j)}")
        case None => repForA(c) = i
      }
    }
  }
}
