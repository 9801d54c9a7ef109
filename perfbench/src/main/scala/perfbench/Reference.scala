package perfbench

import java.util.concurrent.{Executors, TimeUnit}
import scala.collection.mutable
import scala.reflect.ClassTag

/** Brute-force DBSCAN, written independently of `repro`: it shares no code
  * with the program under test, so a fault there cannot hide itself here.
  *
  * One [[Level]] is one (ε, MinPts) setting. [[Reference.compute]] evaluates
  * the distance of every pair once per pass and tests it against all the
  * thresholds of a workload at the same time.
  */
final case class Level(eps: Double, minPts: Int)

/** A distance function; a trait rather than a `Function2` so the result is
  * not boxed in the quadratic loops.
  */
trait Dist[T] { def apply(a: T, b: T): Double }

/** Exact DBSCAN at one level.
  *
  * @param core  core flag per point
  * @param comp  cluster id (0-based) of each core point, -1 elsewhere
  * @param reach for each non-core point, the ids of the clusters that have a
  *              core point within ε of it (empty for an outlier)
  */
final class LevelRef(val level: Level, val core: Array[Boolean], val comp: Array[Int],
                     val reach: Array[Array[Int]]) {
  def isOutlier(i: Int): Boolean = !core(i) && reach(i).isEmpty
}

object Reference {

  /** Independent distance functions. */
  val euclid: Dist[Array[Double]] = (a, b) => {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  val levenshtein: Dist[String] = (a, b) => {
    val m    = b.length
    var prev = Array.range(0, m + 1)
    var cur  = new Array[Int](m + 1)
    var i    = 1
    while (i <= a.length) {
      cur(0) = i
      val ca = a.charAt(i - 1)
      var j  = 1
      while (j <= m) {
        val sub = prev(j - 1) + (if (ca == b.charAt(j - 1)) 0 else 1)
        cur(j) = math.min(sub, math.min(prev(j), cur(j - 1)) + 1)
        j += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    prev(m).toDouble
  }

  /** Run `body(t)` for t in 0 until threads on a fixed pool and wait. */
  private def parallel(threads: Int)(body: Int => Unit): Unit = {
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val fs = (0 until threads).map(t => pool.submit(new Runnable { def run(): Unit = body(t) }))
      fs.foreach(_.get())
    } finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
  }

  private final class UF(n: Int) {
    val parent: Array[Int] = Array.range(0, n)
    def find(x: Int): Int = {
      var a = x
      while (parent(a) != a) { parent(a) = parent(parent(a)); a = parent(a) }
      a
    }
    def union(a: Int, b: Int): Unit = { val ra = find(a); val rb = find(b); if (ra != rb) parent(ra) = rb }
  }

  /** Number of pivots for the triangle-inequality filter. */
  private val Pivots = 3

  /** Visits the pairs (i < j) of a pass. */
  private trait PairVisitor {
    def wants(i: Int): Boolean
    def visit(t: Int, i: Int, j: Int, d: Double): Unit
  }

  /** Exact DBSCAN at every level, in three passes over the pairs: neighbour
    * counts, then unions of core pairs, then the clusters each non-core
    * point can reach.
    *
    * Pairs farther apart than the largest threshold are skipped only when
    * the triangle inequality proves it: points are sorted by their distance
    * to a first pivot, so a row's scan stops where that distance alone
    * exceeds the threshold, and more pivots reject pairs the same way.
    * Every other pair has its distance evaluated once per pass, and the
    * rows are striped over `threads` workers.
    */
  def compute[T: ClassTag](input: IndexedSeq[T], dist: Dist[T], levels: Seq[Level],
                           threads: Int): IndexedSeq[LevelRef] = {
    val n    = input.length
    val L    = levels.length
    val epss = levels.map(_.eps).toArray
    val maxE = epss.max
    // Pivot distances carry rounding error; reject a pair only beyond this.
    val lim  = maxE + 1e-9 * (1 + maxE)

    // Pivots: sample points whose distances to the rest of the sample vary
    // most (points inside clusters, not far-off outliers), kept apart.
    val sample = (0 until n by math.max(1, n / 64)).toArray
    val spread = sample.map { c =>
      val ds = sample.map(s => dist(input(c), input(s)))
      val mu = ds.sum / ds.length
      ds.map(d => (d - mu) * (d - mu)).sum
    }
    val pivots = mutable.ArrayBuffer.empty[Int]
    for (c <- sample.indices.sortBy(-spread(_)).map(sample) if pivots.length < Pivots)
      if (pivots.forall(p => dist(input(p), input(c)) > 2 * lim)) pivots += c
    for (c <- sample if pivots.length < Pivots && !pivots.contains(c)) pivots += c
    val piv    = pivots.toArray.map(input)
    val pd0    = Array.tabulate(n)(i => dist(piv(0), input(i)))
    val order  = (0 until n).sortBy(pd0).toArray
    val points = order.map(input)
    val key    = order.map(pd0)
    val pd     = piv.drop(1).map(p => points.map(dist(p, _)))
    def mayMeet(i: Int, j: Int): Boolean = {
      var p = 0
      while (p < pd.length && math.abs(pd(p)(i) - pd(p)(j)) <= lim) p += 1
      p == pd.length
    }

    def pass(v: PairVisitor): Unit = parallel(threads) { t =>
      var i = t
      while (i < n) {
        if (v.wants(i)) {
          val pi = points(i)
          var j  = i + 1
          while (j < n && key(j) - key(i) <= lim) {
            if (v.wants(j) && mayMeet(i, j)) {
              val d = dist(pi, points(j))
              if (d <= maxE) v.visit(t, i, j, d)
            }
            j += 1
          }
        }
        i += threads
      }
    }

    // Pass 1: |B(p, ε) ∩ X| per level, p itself included.
    val counts = Array.fill(threads, L, n)(0)
    pass(new PairVisitor {
      def wants(i: Int): Boolean = true
      def visit(t: Int, i: Int, j: Int, d: Double): Unit = {
        val c = counts(t)
        var l = 0
        while (l < L) { if (d <= epss(l)) { c(l)(i) += 1; c(l)(j) += 1 }; l += 1 }
      }
    })
    val core    = Array.tabulate(L, n)((l, i) => 1 + (0 until threads).map(counts(_)(l)(i)).sum >= levels(l).minPts)
    val anyCore = Array.tabulate(n)(i => (0 until L).exists(core(_)(i)))

    // Pass 2: connect core pairs within ε, one union-find per worker and level.
    val ufs = Array.fill(threads, L)(new UF(n))
    pass(new PairVisitor {
      def wants(i: Int): Boolean = anyCore(i)
      def visit(t: Int, i: Int, j: Int, d: Double): Unit = {
        var l = 0
        while (l < L) {
          if (d <= epss(l) && core(l)(i) && core(l)(j)) ufs(t)(l).union(i, j)
          l += 1
        }
      }
    })
    val comp = Array.tabulate(L) { l =>
      val uf = new UF(n)
      for (t <- 0 until threads; i <- 0 until n) uf.union(i, ufs(t)(l).find(i))
      val ids = mutable.HashMap.empty[Int, Int]
      Array.tabulate(n)(i => if (core(l)(i)) ids.getOrElseUpdate(uf.find(i), ids.size) else -1)
    }

    // Pass 3: clusters within reach of each non-core point.
    val nonCore = (0 until n).filter(i => (0 until L).exists(l => !core(l)(i))).toArray
    val reach   = Array.fill(L, n)(Array.emptyIntArray)
    parallel(threads) { t =>
      var k = t
      while (k < nonCore.length) {
        val i    = nonCore(k)
        val sets = Array.fill(L)(mutable.SortedSet.empty[Int])
        var j    = i
        while (j > 0 && key(i) - key(j - 1) <= lim) j -= 1
        while (j < n && key(j) - key(i) <= lim) {
          if (j != i && anyCore(j) && mayMeet(i, j)) {
            val d = dist(points(i), points(j))
            var l = 0
            while (l < L) {
              if (d <= epss(l) && !core(l)(i) && core(l)(j)) sets(l) += comp(l)(j)
              l += 1
            }
          }
          j += 1
        }
        var l = 0
        while (l < L) { reach(l)(i) = sets(l).toArray; l += 1 }
        k += threads
      }
    }

    // Back from pivot order to input order.
    levels.indices.map { l =>
      val c = new Array[Boolean](n); val id = new Array[Int](n); val r = new Array[Array[Int]](n)
      for (k <- 0 until n) { c(order(k)) = core(l)(k); id(order(k)) = comp(l)(k); r(order(k)) = reach(l)(k) }
      new LevelRef(levels(l), c, id, r)
    }
  }

  /** Exact-DBSCAN check: same core set, same outlier set, the same core
    * partition up to renaming, and every border label witnessed by a core
    * point of that cluster within ε. Returns the first violation found.
    */
  def checkExact(ref: LevelRef, isCore: Array[Boolean], isOutlier: Array[Boolean],
                 labels: Array[Int]): Option[String] = {
    val n = ref.core.length
    if (labels.length != n) return Some(s"${labels.length} labels for $n points")
    val fwd = mutable.HashMap.empty[Int, Int]
    val bwd = mutable.HashMap.empty[Int, Int]
    var i = 0
    while (i < n) {
      if (isCore(i) != ref.core(i)) return Some(s"core flag of point $i is ${isCore(i)}")
      if (isOutlier(i) != ref.isOutlier(i)) return Some(s"outlier flag of point $i is ${isOutlier(i)}")
      if (ref.core(i)) {
        val (g, w) = (labels(i), ref.comp(i))
        if (fwd.getOrElseUpdate(g, w) != w) return Some(s"core point $i joins two reference clusters")
        if (bwd.getOrElseUpdate(w, g) != g) return Some(s"core point $i splits reference cluster $w")
      }
      i += 1
    }
    i = 0
    while (i < n) {
      if (!ref.core(i) && !ref.isOutlier(i) && !fwd.get(labels(i)).exists(ref.reach(i).contains(_)))
        return Some(s"border point $i has no core witness within ε in cluster ${labels(i)}")
      i += 1
    }
    None
  }

  /** Gan–Tao sandwich for a ρ-approximate labeling: every cluster of exact
    * DBSCAN at ε (`lo`) lies inside one output cluster, and every output
    * cluster lies inside one cluster of exact DBSCAN at (1+ρ)ε (`hi`).
    * So: each ε-core point is clustered; ε-clusters are not split; output
    * clusters are not joined across (1+ρ)ε-clusters; a point within ε of a
    * core point is not noise; and a labelled non-core point is within
    * (1+ρ)ε-reach of its cluster.
    */
  def checkSandwich(lo: LevelRef, hi: LevelRef, labels: Array[Int]): Option[String] = {
    val n = lo.core.length
    if (labels.length != n) return Some(s"${labels.length} labels for $n points")
    val loToOut = mutable.HashMap.empty[Int, Int]
    val outToHi = mutable.HashMap.empty[Int, Int]
    var i = 0
    while (i < n) {
      if (lo.core(i)) {
        val g = labels(i)
        if (g < 0) return Some(s"exact-core point $i is noise")
        if (loToOut.getOrElseUpdate(lo.comp(i), g) != g) return Some(s"ε-cluster ${lo.comp(i)} is split at point $i")
        if (outToHi.getOrElseUpdate(g, hi.comp(i)) != hi.comp(i)) return Some(s"cluster $g spans two (1+ρ)ε-clusters at point $i")
      }
      i += 1
    }
    i = 0
    while (i < n) {
      if (!lo.core(i)) {
        val g = labels(i)
        if (g < 0) {
          if (lo.reach(i).nonEmpty) return Some(s"point $i is within ε of a core point but is noise")
        } else outToHi.get(g) match {
          case None => return Some(s"cluster $g of point $i holds no exact-core point")
          case Some(c) =>
            val ok = if (hi.core(i)) hi.comp(i) == c else hi.reach(i).contains(c)
            if (!ok) return Some(s"point $i is not within (1+ρ)ε-reach of its cluster $g")
        }
      }
      i += 1
    }
    None
  }

  /** The output of a Spark operation as (id, label) pairs: every id in
    * 0 until n exactly once, turned into a label array.
    */
  def labelsById(n: Int, rows: Array[(Long, Int)]): Either[String, Array[Int]] = {
    val out  = Array.fill(n)(Int.MinValue)
    val seen = new Array[Boolean](n)
    rows.foreach { case (id, l) =>
      if (id < 0 || id >= n) return Left(s"unknown id $id")
      if (seen(id.toInt)) return Left(s"id $id appears twice")
      seen(id.toInt) = true
      out(id.toInt) = l
    }
    val missing = seen.indexOf(false)
    if (missing >= 0) Left(s"id $missing is missing") else Right(out)
  }
}
