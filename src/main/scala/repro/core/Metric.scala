package repro.core

/** A distance function over payload type `T`.
  *
  * Implementations must satisfy the metric axioms (identity, symmetry,
  * triangle inequality) — every complexity bound in the paper leans on the
  * triangle inequality, and `MetricSpec` property-tests it on samples.
  *
  * *Bounded evaluation.* Every distance the algorithms compute is compared
  * with a bound known before the call (ε, (1+ρ)ε, r̄, 2·rad(e), a point's
  * current center distance, a cover-tree pruning radius). [[distWithin]]
  * lets a metric stop as soon as the answer is known to exceed that bound:
  * it returns the exact distance when the distance is ≤ `bound`, and
  * otherwise any value > `bound`. A caller that only tests `d ≤ bound`,
  * `d < bound` or `d > bound` (or keeps d as a new best only when it is
  * below the bound) therefore decides exactly as it would on [[dist]].
  */
trait Metric[T] extends Serializable {
  def dist(a: T, b: T): Double

  /** dist(a, b) when it is ≤ `bound`, otherwise any value > `bound`. */
  def distWithin(a: T, b: T, bound: Double): Double = dist(a, b)
}

/** Plain Euclidean distance on dense vectors (t_dis = O(d)); a NaN
  * coordinate fails the call.
  */
object EuclideanMetric extends Metric[Array[Double]] {
  override def dist(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dimension mismatch: ${a.length} vs ${b.length}")
    var s  = 0.0
    var i  = 0
    val n  = a.length
    while (i < n) { val d = a(i) - b(i); s += d * d; i += 1 }
    // A NaN would fail every ≤ test and turn its point into a silent outlier.
    require(!s.isNaN, "NaN coordinate")
    math.sqrt(s)
  }
}

/** Levenshtein edit distance — the paper's metric for the text datasets
  * (COLA, AG News, MRPC, MNLI).
  *
  * One dynamic program serves both entry points: [[dist]] is [[distWithin]]
  * with an infinite bound. The common prefix and suffix are stripped first
  * (they never change the distance). With k = ⌊bound⌋ and the remaining
  * lengths m ≤ n, an alignment of cost ≤ k passes cell (i, j) only if
  * |j − i| + |(n − m) − (j − i)| ≤ k, so each row fills only that diagonal
  * band (Ukkonen, *Algorithms for approximate string matching*, 1985):
  * O(k·m) cells instead of m·n. The run returns k + 1 as soon as n − m > k
  * or a whole row of the band exceeds k. Without a bound, k = n (no edit
  * distance exceeds the longer length), which still skips the table's two
  * far corners.
  */
object EditDistanceMetric extends Metric[String] {

  override def dist(a: String, b: String): Double = distWithin(a, b, Double.PositiveInfinity)

  override def distWithin(a: String, b: String, bound: Double): Double = {
    val s = if (a.length <= b.length) a else b
    val t = if (s eq a) b else a
    var start = 0
    var sEnd  = s.length
    var tEnd  = t.length
    while (start < sEnd && s.charAt(start) == t.charAt(start)) start += 1
    while (sEnd > start && s.charAt(sEnd - 1) == t.charAt(tEnd - 1)) { sEnd -= 1; tEnd -= 1 }
    val m    = sEnd - start // rows: the shorter remainder
    val n    = tEnd - start // columns: the longer remainder
    val diff = n - m
    // A NaN or ≥ n bound bounds nothing (d ≤ n always); below 0 every
    // answer is "more than the bound".
    val k = if (!(bound < n)) n else if (bound < 0) -1 else math.floor(bound).toInt
    if (diff > k) return k + 1.0
    if (m == 0) return n.toDouble
    // Row i fills columns j with −h ≤ j − i ≤ diff + h; cells outside the
    // band count as k + 1 ("more than k"), which is all they can add.
    val h    = (k - diff) / 2
    val out  = k + 1
    val row  = new Array[Int](n + 1) // row(j) = D(i − 1, j) before row i
    var j    = 0
    val hi0  = math.min(n, diff + h)
    while (j <= hi0) { row(j) = j; j += 1 }
    var i = 1
    while (i <= m) {
      val ci  = s.charAt(start + i - 1)
      val lo  = i - h
      val top = i + diff + h
      val hi  = if (top < n) top else n
      if (top <= n) row(top) = out // D(i − 1, top) lies outside row i − 1's band
      var diag   = 0
      var left   = 0
      var rowMin = 0
      if (lo <= 0) { diag = row(0); row(0) = i; left = i; rowMin = i; j = 1 }
      else { diag = row(lo - 1); left = out; rowMin = out; j = lo }
      while (j <= hi) {
        val up = row(j)
        var v  = if (ci == t.charAt(start + j - 1)) diag else diag + 1
        if (up + 1 < v) v = up + 1
        if (left + 1 < v) v = left + 1
        diag = up
        row(j) = v
        left = v
        if (v < rowMin) rowMin = v
        j += 1
      }
      if (rowMin > k) return out.toDouble
      i += 1
    }
    val d = row(n)
    if (d > k) out.toDouble else d.toDouble
  }
}
