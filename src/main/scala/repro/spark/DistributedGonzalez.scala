package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.core.Metric
import scala.reflect.ClassTag

/** Distributed radius-guided Gonzalez (Algorithm 1) over an RDD.
  *
  * The faithful iterative algorithm: each round finds the point farthest from
  * the current center set with a `reduce`, broadcasts the new center, and
  * refreshes every point's (minDist, centerIdx) state with a `map`. Lineage
  * is truncated with `localCheckpoint` every few rounds so |E| iterations do
  * not build an |E|-deep DAG. Ties for the farthest point go to the lowest
  * id, whatever the partitioning, so with ids equal to input positions the
  * centers are exactly the sequential algorithm's. The run fails if
  * `maxCenters` centers do not cover the data at r̄.
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
}
