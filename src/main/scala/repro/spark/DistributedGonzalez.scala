package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.core.Metric
import scala.reflect.ClassTag

/** Distributed radius-guided Gonzalez (Algorithm 1) over an RDD.
  *
  * Two modes:
  *
  *  - [[run]] — the faithful iterative algorithm: each round finds the point
  *    farthest from the current center set with a `reduce`, broadcasts the
  *    new center, and refreshes every point's (minDist, centerIdx) state with
  *    a `map`. Lineage is truncated with `localCheckpoint` every few rounds
  *    so |E| iterations do not build an |E|-deep DAG. Ties for the farthest
  *    point go to the lowest id, whatever the partitioning, so with ids equal
  *    to input positions the centers are exactly the sequential algorithm's.
  *    The run fails if `maxCenters` centers do not cover the data at r̄.
  *
  *  - [[runPartitioned]] — the one-round MapReduce net construction
  *    (Ceccarello et al. [9]): each partition builds a local r̄/2-net by
  *    first-fit (`mapPartitions`), the union of the local nets (summary-sized)
  *    is collected and re-netted sequentially at r̄/2. Every point is within
  *    r̄/2 of its local net point, which is within r̄/2 of a final center, so
  *    the r̄-covering guarantee is preserved; packing relaxes from r̄ to r̄/2,
  *    a constant-factor hit to the Lemma 1/3 bounds.
  *
  * State per point: (payload, minDist to E, index of closest center).
  */
object DistributedGonzalez {

  final case class Assigned[T](point: T, id: Long, center: Int, dist: Double)

  final case class Result[T](
      centers: IndexedSeq[T],
      assigned: RDD[Assigned[T]]
  )

  def run[T: ClassTag](
      data: RDD[(Long, T)],
      metric: Metric[T],
      rBar: Double,
      maxCenters: Int = 100000,
      checkpointEvery: Int = 16
  ): Result[T] = {
    require(rBar > 0)
    val sc    = data.sparkContext
    val first = data.first()._2
    var state: RDD[Assigned[T]] = data
      .map { case (id, p) => Assigned(p, id, 0, metric.dist(p, first)) }
      .persist(StorageLevel.MEMORY_AND_DISK)
    val centers = scala.collection.mutable.ArrayBuffer[T](first)

    def farthest(): Assigned[T] =
      state.reduce((a, b) => if (a.dist > b.dist || (a.dist == b.dist && a.id < b.id)) a else b)

    var continue = true
    var rounds   = 0
    while (continue && centers.length < maxCenters) {
      val far = farthest()
      if (far.dist <= rBar) continue = false
      else {
        val newIdx = centers.length
        centers += far.point
        val bc  = sc.broadcast(far.point)
        val old = state
        state = state.map { a =>
          val d = metric.distWithin(a.point, bc.value, a.dist)
          if (d < a.dist) Assigned(a.point, a.id, newIdx, d) else a
        }.persist(StorageLevel.MEMORY_AND_DISK)
        rounds += 1
        if (rounds % checkpointEvery == 0) state.localCheckpoint()
        state.count() // materialize before dropping the parent
        old.unpersist(blocking = false)
      }
    }
    // A net the cap stopped early is not an r̄-cover, and every guarantee
    // built on it would fail silently.
    if (continue) {
      val left = farthest().dist
      require(left <= rBar, s"maxCenters = $maxCenters reached with a point at distance $left " +
        s"from the net, not covered at r̄ = $rBar")
    }
    Result(centers.toIndexedSeq, state)
  }

  def runPartitioned[T: ClassTag](
      data: RDD[(Long, T)],
      metric: Metric[T],
      rBar: Double
  ): Result[T] = {
    require(rBar > 0)
    val half = rBar / 2.0
    // Round 1: local r̄/2-nets, one per partition (first-fit — the same
    // incremental rule as Algorithm 3 pass 1).
    val localNets: Array[T] = data
      .mapPartitions { it =>
        val net = scala.collection.mutable.ArrayBuffer.empty[T]
        it.foreach { case (_, p) =>
          if (!net.exists(c => metric.distWithin(p, c, half) <= half)) net += p
        }
        net.iterator
      }
      .collect()
    // Round 2: sequential re-net of the (small) union at r̄/2.
    val centers = scala.collection.mutable.ArrayBuffer.empty[T]
    localNets.foreach { p =>
      if (!centers.exists(c => metric.distWithin(p, c, half) <= half)) centers += p
    }
    val bc = data.sparkContext.broadcast(centers.toIndexedSeq)
    val assigned = data.map { case (id, p) =>
      var best = Double.PositiveInfinity
      var bi   = 0
      val cs   = bc.value
      var i    = 0
      while (i < cs.length) {
        val d = metric.distWithin(p, cs(i), best)
        if (d < best) { best = d; bi = i }
        i += 1
      }
      Assigned(p, id, bi, best)
    }
    Result(centers.toIndexedSeq, assigned)
  }
}
