package repro.spark

import repro.SparkSpec
import repro.core.{EuclideanMetric, TestUtil}

class DistributedGonzalezSpec extends SparkSpec {
  import TestUtil._

  private def toRdd(pts: IndexedSeq[Vec], partitions: Int = 4) =
    spark.sparkContext.parallelize(pts.zipWithIndex.map { case (p, i) => (i.toLong, p) }, partitions)

  test("iterative mode: covering, packing, nearest-assignment") {
    val pts  = blobs(500, 2, 3, outliers = 15, seed = 201)
    val rBar = 1.0
    val res  = DistributedGonzalez.run(toRdd(pts), EuclideanMetric, rBar)
    val centers = res.centers
    // packing
    for (i <- centers.indices; j <- i + 1 until centers.length)
      assert(EuclideanMetric.dist(centers(i), centers(j)) > rBar)
    // covering + nearest assignment
    val assigned = res.assigned.collect()
    assert(assigned.length == pts.length)
    assigned.foreach { a =>
      assert(a.dist <= rBar + 1e-9, s"covering violated for ${a.id}")
      val best = centers.map(EuclideanMetric.dist(a.point, _)).min
      assert(math.abs(best - a.dist) < 1e-9, "assignment is not to the nearest center")
      assert(math.abs(EuclideanMetric.dist(a.point, centers(a.center)) - a.dist) < 1e-9)
    }
  }

  test("iterative mode matches the sequential center count on the same data") {
    val pts  = blobs(300, 2, 3, seed = 202)
    val rBar = 0.8
    val seq  = repro.core.Gonzalez.run(pts, EuclideanMetric, rBar)
    val dist = DistributedGonzalez.run(toRdd(pts), EuclideanMetric, rBar)
    // Centers may differ by argmax tie-breaks, but both are r̄-nets of the
    // same space, so the sizes match up to the packing/covering slack.
    assert(math.abs(seq.numCenters - dist.centers.length) <= math.max(2, seq.numCenters / 5),
      s"sequential ${seq.numCenters} vs distributed ${dist.centers.length}")
  }

  test("iterative mode breaks distance ties by lowest id, whatever the partitioning") {
    // An integer grid with duplicates: nearly every farthest point is tied.
    val rnd  = new scala.util.Random(205)
    val pts  = IndexedSeq.fill(300)(Array(rnd.nextInt(12).toDouble, rnd.nextInt(12).toDouble))
    val rBar = 1.5
    val two  = DistributedGonzalez.run(toRdd(pts, 2), EuclideanMetric, rBar).centers
    val five = DistributedGonzalez.run(toRdd(pts, 5), EuclideanMetric, rBar).centers
    val seq  = repro.core.Gonzalez.run(pts, EuclideanMetric, rBar).centerIdx.map(pts)
    assert(two.map(_.toSeq) == five.map(_.toSeq), "centers depend on the partition count")
    assert(two.map(_.toSeq) == seq.map(_.toSeq), "centers differ from the sequential net")
  }

  test("iterative mode survives many rounds (lineage truncation)") {
    val pts = uniform(400, 2, seed = 203)
    val res = DistributedGonzalez.run(toRdd(pts), EuclideanMetric, rBar = 0.4,
      checkpointEvery = 4)
    assert(res.centers.length > 20)
    assert(res.assigned.count() == 400)
  }

  test("iterative mode fails loudly when maxCenters stops it before the net covers") {
    val pts = uniform(200, 2, seed = 206)
    val err = intercept[IllegalArgumentException] {
      DistributedGonzalez.run(toRdd(pts), EuclideanMetric, rBar = 0.5, maxCenters = 3)
    }
    assert(err.getMessage.contains("maxCenters = 3"), err.getMessage)
    // A cap the net does not reach raises nothing.
    val net = DistributedGonzalez.run(toRdd(pts), EuclideanMetric, rBar = 4.0, maxCenters = 50)
    assert(net.centers.length < 50)
  }

  test("works under edit distance on an RDD of strings") {
    val rnd  = new scala.util.Random(205)
    val strs = IndexedSeq.fill(120)(
      Iterator.fill(6 + rnd.nextInt(6))(('a' + rnd.nextInt(4)).toChar).mkString)
    val rdd = spark.sparkContext.parallelize(strs.zipWithIndex.map { case (s, i) => (i.toLong, s) }, 3)
    val res = DistributedGonzalez.run(rdd, repro.core.EditDistanceMetric, rBar = 3.0)
    res.assigned.collect().foreach(a => assert(a.dist <= 3.0))
  }
}
