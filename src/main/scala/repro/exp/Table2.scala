package repro.exp

import repro.core.ExactDBSCAN

/** Table 2 — the runtime proportion taken by the radius-guided Gonzalez
  * pre-processing (Algorithm 1) inside our exact DBSCAN. The paper reports
  * ≥ 60% (often ≥ 90%) across datasets, which is the argument for Remark 5:
  * parameter tuning can skip Algorithm 1 entirely.
  */
object Table2 {

  final case class Row(name: String, gonzalezMs: Double, totalMs: Double, proportion: Double)

  def workloads(scale: Double): Seq[Workload] = Seq(
    Workloads.moons(scale, n = 10000),
    Workloads.cancer(scale),
    Workloads.uspsLike(scale, n = 4000),
    Workloads.biodeg(scale),
    Workloads.mnistLike(scale, n = 4000),
    Workloads.fashionLike(scale, n = 4000),
    Workloads.arrhythmia(scale),
    Workloads.cifarLike(scale, n = 4000),
    Workloads.colaText(scale),
    Workloads.agnewsText(scale),
    Workloads.mrpcText(scale)
  )

  /** Untimed calls before the timed ones: for [[WarmupNs]] of run time, at
    * most [[WarmupCalls]] calls. The JIT settles after a stretch of run time,
    * not a call count: Cancer (569 points) takes 25 ms a call for its first
    * 13 calls and 9 ms from the 14th on, Moons (10 000 points) settles only
    * around its 30th call, a second in.
    */
  private val WarmupNs    = 1500000000L
  private val WarmupCalls = 200
  private val TimedCalls  = 3

  def run(scale: Double = 1.0): Seq[Row] =
    workloads(scale).map {
      case v: VecWorkload  => measure(v.name)(ExactDBSCAN.run(v.ds.points, v.ds.metric, v.eps, v.minPts))
      case t: TextWorkload => measure(t.name)(ExactDBSCAN.run(t.ds.points, t.ds.metric, t.eps, t.minPts))
    }

  /** The row of the timed call with the median total, after the warm-up. */
  private def measure(name: String)(call: => ExactDBSCAN.Output): Row = {
    val until = System.nanoTime() + WarmupNs
    var i     = 0
    while (i < WarmupCalls && System.nanoTime() < until) { call; i += 1 }
    val timed = Seq.fill(TimedCalls)(call.timings).sortBy(_.totalNs)
    val t     = timed(TimedCalls / 2)
    Row(name, t.gonzalezNs / 1e6, t.totalNs / 1e6, t.gonzalezFraction)
  }

  def render(rows: Seq[Row]): String =
    TableFormat.render(
      "Table 2: runtime proportion of radius-guided Gonzalez in exact DBSCAN",
      Seq("Dataset", "Radius-guided Gonzalez (ms)", "Total time (ms)", "Proportion"),
      rows.map(r => Seq(r.name, f"${r.gonzalezMs}%.1f", f"${r.totalMs}%.1f", f"${r.proportion * 100}%.0f%%"))
    )
}
