package perfbench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.core._
import repro.spark.{DistributedApproxDBSCAN, DistributedGonzalez, StructuredStreamingDBSCAN}
import scala.collection.mutable
import scala.util.Random
import Op.Check

/** Every value recorded for each metric in a run, reported as the median. */
final class Recorder {
  private val values = mutable.LinkedHashMap.empty[String, (mutable.ArrayBuffer[Double], String)]
  def add(name: String, unit: String, v: Double): Unit =
    values.getOrElseUpdate(name, (mutable.ArrayBuffer.empty[Double], unit))._1 += v
  def medians: Seq[(String, Double, String)] =
    values.toSeq.map { case (k, (vs, u)) => (k, Clock.median(vs.toSeq), u) }
}

/** Times a named phase of an operation. The untraced run uses [[Phase.none]]. */
trait Phase { def apply[A](name: String)(body: => A): A }

object Phase {
  val none: Phase = new Phase { def apply[A](name: String)(body: => A): A = body }

  /** Records `<name>_s` and, when `calls` is given, `<name>_dist`. */
  def traced(rec: Recorder, calls: Option[CountingMetric[_]]): Phase = new Phase {
    def apply[A](name: String)(body: => A): A = {
      val before  = calls.fold(0L)(_.calls.value)
      val (r, t)  = Clock.time(body)
      rec.add(s"${name}_s", "s", t)
      calls.foreach(c => rec.add(s"${name}_dist", "calls", (c.calls.value - before).toDouble))
      r
    }
  }
}

object Op {
  /** Checks an operation's outputs after the clock stops: the first
    * violation of each output that has one.
    */
  type Check = () => Seq[String]
}

/** One operation of a round. `prepare` runs untimed and returns the timed
  * body, whose result is the check of its `outputs` outputs; each output
  * counts as one attempted operation.
  */
final case class Op(name: String, prepare: () => () => Op.Check, outputs: Int = 1)

/** What one streaming run leaves behind. */
final case class StreamOut(labels: Array[Int], peak: Int, withinBound: Boolean, balls: Int, mPts: Int, summary: Int)

/** The operations of one workload on a started SparkSession, with the
  * reference results they are checked against.
  */
final class Bench[T](w: Workload[T], spark: SparkSession, rdd: RDD[(Long, Inputs.Vec)], threads: Int) {
  import w.mem.tag
  private val m  = w.mem
  private val p  = m.params
  private val sp = w.spark.params
  private val sc = spark.sparkContext

  private val (memRefs, tRef) = Clock.time(Reference.compute(m.points, m.refDist, p.levels, threads))
  System.err.println(f"perfbench: reference $tRef%.2f s")
  private val Seq(lo, hi) = memRefs
  // The Spark state is built only when a Spark operation runs (traced run).
  private lazy val Seq(sLo, sHi) =
    if (w.shared) memRefs
    else Reference.compute(w.spark.points, Reference.euclid, sp.levels, threads)

  private val retuneRefs = Reference.compute(m.retunePoints, m.refDist, m.retune, threads)
  /** The ε/2 net the re-tuning sweep reuses (built once, untimed). */
  private val net        = Gonzalez.run(m.retunePoints, m.metric, p.eps / 2)
  private val chunks = m.points.grouped(m.chunk).toIndexedSeq
  private lazy val rows = w.spark.points.indices.map(i => (i.toLong, w.spark.points(i)))
  private lazy val archive: DataFrame = { import spark.implicits._; rows.toDF("id", "features") }
  private var queries = 0

  private def exactCheck(ref: LevelRef, r: DBSCANResult): Option[String] =
    Reference.checkExact(ref, r.types.map(_ == PointType.Core), r.types.map(_ == PointType.Outlier), r.labels)

  // ---- the operations ------------------------------------------------------

  def exact(metric: Metric[T]): Check = {
    val r = ExactDBSCAN.run(m.points, metric, p.eps, p.minPts).result
    () => exactCheck(lo, r).toSeq
  }

  def approx(metric: Metric[T]): Check = {
    val r = ApproxDBSCAN.run(m.points, metric, p.eps, p.minPts, p.rho).result
    () => Reference.checkSandwich(lo, hi, r.labels).toSeq
  }

  /** The re-tuning sweep (Remark 5): every setting through `ExactDBSCAN`
    * on the one ε/2 net of the sweep's input.
    */
  def retune(metric: Metric[T]): Seq[DBSCANResult] =
    m.retune.map { l =>
      ExactDBSCAN.run(m.retunePoints, metric, l.eps, l.minPts, rBarOpt = Some(p.eps / 2),
        precomputed = Some((net, 0L))).result
    }

  /** Each setting of the sweep is checked as an exact result of its own. */
  def retuneChecked(metric: Metric[T]): Check = {
    val rs = retune(metric)
    () => rs.zip(retuneRefs).flatMap { case (r, ref) =>
      exactCheck(ref, r).map(e => s"(ε′ ${ref.level.eps}, MinPts ${ref.level.minPts}): $e")
    }
  }

  /** All three passes of Algorithm 3 over the chunks, tracking |E|+|M|
    * between pass-1 chunks.
    */
  def streamRun(metric: Metric[T], phase: Phase): StreamOut = {
    val s      = new StreamingDBSCAN[T](metric, p.eps, p.minPts, p.rho)
    var peak   = 0
    var within = true
    phase("stream.pass1") {
      chunks.foreach { c =>
        s.observePass1(c)
        val f = s.memoryFootprint
        peak = math.max(peak, f)
        if (f.toLong > p.minPts.toLong * s.numBalls) within = false
      }
      s.finishPass1()
    }
    val mPts = s.memoryFootprint - s.numBalls
    phase("stream.pass2")(chunks.foreach(s.observePass2))
    phase("stream.merge")(s.mergeSummary())
    val labels = phase("stream.pass3")(chunks.iterator.flatMap(c => s.labelPass3(c)).toArray)
    StreamOut(labels, peak, within, s.numBalls, mPts, s.summarySize)
  }

  val streamPeaks = mutable.ArrayBuffer.empty[Int]

  def stream(metric: Metric[T]): Check = {
    val out = streamRun(metric, Phase.none)
    streamPeaks += out.peak
    () =>
      if (!out.withinBound) Seq("streaming footprint |E|+|M| exceeded MinPts·|E|")
      else Reference.checkSandwich(lo, hi, out.labels).toSeq
  }

  private def sparkCheck(rows: Array[(Long, Int)]): Seq[String] =
    Reference.labelsById(w.spark.points.length, rows).fold(Seq(_), Reference.checkSandwich(sLo, sHi, _).toSeq)

  def sparkApprox(metric: Metric[Inputs.Vec]): (Check, Int) = {
    val out  = DistributedApproxDBSCAN.run(spark, rdd, metric, sp.eps, sp.minPts, sp.rho)
    val rows = out.labeled.collect().map(r => (r.getLong(0), r.getInt(1)))
    (() => sparkCheck(rows), out.summarySize)
  }

  /** Untimed: a MemoryStream loaded with the batches. Timed: pass 1 over the
    * stream, then passes 2–3 over the archive and the label collect.
    */
  def sparkStream(phase: Phase, memPts: Int => Unit): () => Check = {
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    import spark.implicits._
    val stream = MemoryStream[(Long, Array[Double])]
    rows.grouped(math.max(1, rows.length / w.spark.batches)).foreach(b => stream.addData(b))
    queries += 1
    val name = s"perfbench_pass1_$queries"
    () => {
      val driver = new StructuredStreamingDBSCAN(spark, sp.eps, sp.minPts, sp.rho)
      phase("sstream.pass1")(driver.runPass1(stream.toDS(), name))
      memPts(driver.engine.memoryFootprint)
      val out = phase("sstream.finish")(driver.finish(archive).collect().map(r => (r.getLong(0), r.getInt(1))))
      () => sparkCheck(out)
    }
  }

  /** The in-memory operations, in round order, with plain metrics. */
  val memOps: Seq[Op] = Seq(
    Op("exact", () => () => exact(m.metric)),
    Op("approx", () => () => approx(m.metric)),
    Op("stream", () => () => stream(m.metric)),
    Op("retune", () => () => retuneChecked(m.metric), outputs = m.retune.length),
  )

  /** The Spark operations. Only the traced run has them in its rounds: their
    * wall times follow the machine's load too closely for an end-to-end
    * bound (see README.md).
    */
  val sparkOps: Seq[Op] = Seq(
    Op("spark_approx", () => () => sparkApprox(EuclideanMetric)._1),
    Op("spark_stream", () => sparkStream(Phase.none, _ => ())),
  )

  /** Run every op its number of repetitions, record `<op>_s` for each, and
    * return (attempted, failures, seconds of one call of each op), the last
    * from each op's median in this round.
    */
  def round(rec: Recorder, ops: Seq[Op]): (Int, Seq[String], Double) = {
    val errs      = mutable.ArrayBuffer.empty[String]
    var attempted = 0
    val times     = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    // Repeated operations interleave, so each one's samples spread over the round.
    val reps = ops.map(op => w.reps.getOrElse(op.name, 1))
    for (r <- 0 until reps.max; (op, k) <- ops.zip(reps) if r < k) {
      val body       = op.prepare()
      val (check, t) = Clock.time(body())
      rec.add(s"${op.name}_s", "s", t)
      times.getOrElseUpdate(op.name, mutable.ArrayBuffer.empty) += t
      attempted += op.outputs
      check().foreach(e => errs += s"${op.name}: $e")
    }
    System.err.println("perfbench: round medians " +
      times.map { case (k, ts) => f"$k=${Clock.median(ts.toSeq)}%.4f" }.mkString(" "))
    (attempted, errs.toSeq, times.values.map(ts => Clock.median(ts.toSeq)).sum)
  }

  // ---- traced run ------------------------------------------------------------

  /** Each operation once more, with counting metrics and the job listener;
    * returns the wall seconds they took, for the tracing overhead.
    */
  def countedRound(rec: Recorder, jobs: JobCounter): Double = {
    val cm = CountingMetric.local(m.metric)
    val (_, tMem) = Clock.time {
      exact(cm); approx(cm); streamRun(cm, Phase.none); retune(cm)
    }
    val acc = sc.longAccumulator("perfbench.dist")
    jobs.take()
    val ((_, summary), tApprox) = Clock.time(sparkApprox(new CountingMetric(EuclideanMetric, acc)))
    rec.add("spark.approx_s", "s", tApprox)
    val (nJobs, nTasks, taskS) = jobs.take()
    rec.add("spark.jobs", "jobs", nJobs.toDouble)
    rec.add("spark.tasks", "tasks", nTasks.toDouble)
    rec.add("spark.task_s", "s", taskS)
    rec.add("spark.dist", "calls", acc.value.toDouble)
    rec.add("spark.summary_pts", "pts", summary.toDouble)
    val body = sparkStream(Phase.traced(rec, None), mp => rec.add("sstream.mem_pts", "pts", mp.toDouble))
    val (_, tStream) = Clock.time(body())
    rec.add("sstream.jobs", "jobs", jobs.take()._1.toDouble)
    tMem + tApprox + tStream
  }

  private val distSample: Array[(T, T)] = {
    val rnd = new Random(7)
    val n   = m.points.length
    Array.fill(1000)((m.points(rnd.nextInt(n)), m.points(rnd.nextInt(n))))
  }

  /** Nanoseconds per direct `Metric.dist` call over a fixed sample of pairs. */
  private def distNs(): Double = {
    var calls = 0L
    var sink  = 0.0
    val t0    = System.nanoTime()
    while (System.nanoTime() - t0 < 200000000L) {
      var i = 0
      while (i < distSample.length) { sink += m.metric.dist(distSample(i)._1, distSample(i)._2); i += 1 }
      calls += distSample.length
    }
    val ns = (System.nanoTime() - t0).toDouble / calls
    if (sink < 0) ns + 1 else ns
  }

  // Cover tree over the even-indexed points, queried with the odd ones.
  private val treeIds = m.points.indices.filter(_ % 2 == 0)
  private val queryIds = m.points.indices.filter(_ % 2 == 1).take(2000)
  /** True nearest-neighbour distance of each query, by brute force. */
  private lazy val trueNN: Array[Double] =
    queryIds.map(q => treeIds.iterator.map(i => m.refDist(m.points(q), m.points(i))).min).toArray

  /** Separately timed calls into each public layer function. */
  def layers(rec: Recorder, jobs: JobCounter): Unit = {
    rec.add("metric.dist_ns", "ns", distNs())
    val cm = CountingMetric.local(m.metric)
    def counted[A](timeName: Option[String], distName: String)(body: => A): A = {
      val before = cm.calls.value
      val (r, t) = Clock.time(body)
      timeName.foreach(rec.add(_, "s", t))
      rec.add(distName, "calls", (cm.calls.value - before).toDouble)
      r
    }
    val rA = p.rho * p.eps / 2
    val gE = counted(Some("gonzalez.exact_s"), "gonzalez.exact_dist")(Gonzalez.run(m.points, cm, p.eps / 2))
    val gA = counted(Some("gonzalez.approx_s"), "gonzalez.approx_dist")(Gonzalez.run(m.points, cm, rA))
    rec.add("gonzalez.exact_centers", "centers", gE.numCenters.toDouble)
    rec.add("gonzalez.approx_centers", "centers", gA.numCenters.toDouble)
    val aE = counted(Some("neighbors.exact_s"), "neighbors.exact_dist")(Gonzalez.neighborSets(m.points, cm, gE, 2 * (p.eps / 2) + p.eps))
    val aA = counted(Some("neighbors.approx_s"), "neighbors.approx_dist")(Gonzalez.neighborSets(m.points, cm, gA, 4 * rA + p.eps))
    rec.add("neighbors.exact_mean", "centers", aE.map(_.length).sum.toDouble / aE.length)
    rec.add("neighbors.approx_mean", "centers", aA.map(_.length).sum.toDouble / aA.length)

    counted(Some("exact.after_net_s"), "exact.after_net_dist")(
      ExactDBSCAN.run(m.points, cm, p.eps, p.minPts, precomputed = Some((gE, 0L))))
    counted(None, "retune.dist")(retune(cm))

    val tree = counted(Some("covertree.build_s"), "covertree.build_dist")(CoverTree.build(m.points, treeIds, cm))
    val before = cm.calls.value
    val (got, tq) = Clock.time(queryIds.map(q => tree.nearestWithin(m.points(q), p.eps)._2).toArray)
    rec.add("covertree.query_us", "us", tq * 1e6 / queryIds.length)
    rec.add("covertree.query_dist", "calls", (cm.calls.value - before).toDouble)
    val wrong = got.indices.count { i =>
      if (trueNN(i) <= p.eps) math.abs(got(i) - trueNN(i)) > 1e-9 * math.max(1.0, trueNN(i)) else got(i) <= p.eps
    }
    rec.add("covertree.nn_wrong", "queries", wrong.toDouble)

    val ap = counted(Some("approx.after_net_s"), "approx.after_net_dist")(
      ApproxDBSCAN.run(m.points, cm, p.eps, p.minPts, p.rho, precomputed = Some((gA, 0L))))
    rec.add("approx.summary_pts", "pts", ap.summarySize.toDouble)

    val so = streamRun(cm, Phase.traced(rec, Some(cm)))
    rec.add("stream.balls", "centers", so.balls.toDouble)
    rec.add("stream.m_pts", "pts", so.mPts.toDouble)
    rec.add("stream.summary_pts", "pts", so.summary.toDouble)

    jobs.take()
    val (dnet, tNet) = Clock.time(DistributedGonzalez.run(rdd, EuclideanMetric, sp.rho * sp.eps / 2))
    rec.add("spark.net_s", "s", tNet)
    rec.add("spark.net_jobs", "jobs", jobs.take()._1.toDouble)
    rec.add("spark.net_centers", "centers", dnet.centers.length.toDouble)
    dnet.assigned.unpersist(blocking = true)
  }
}
