package repro.model

import scala.util.Random

/** CART regression tree with variance-reduction splits.
  *
  * Used as the base learner for [[RandomForest]] (fANOVA surrogate, RFHOC,
  * DAC) and [[Gbdt]] (the LightGBM stand-in for similarity learning).
  * Categorical inputs arrive as their choices' cell centres in [0,1]
  * (`ConfigSpace.toUnit`), so a split separates the choices in index
  * order — adequate for low-cardinality Spark parameters.
  */
final class RegressionTree private (
    val feature: Int, val threshold: Double,
    val left: RegressionTree, val right: RegressionTree,
    val value: Double) extends Serializable {

  def isLeaf: Boolean = left == null

  def predict(x: Array[Double]): Double = {
    var node = this
    while (!node.isLeaf) node = if (x(node.feature) <= node.threshold) node.left else node.right
    node.value
  }
}

object RegressionTree {

  private def leaf(v: Double) = new RegressionTree(-1, 0.0, null, null, v)

  /** Fit a tree on rows `idx` of (xs, ys).
    *
    * @param maxFeatures number of candidate features per split (for forests);
    *                    <=0 means all features.
    */
  def fit(xs: Array[Array[Double]], ys: Array[Double],
          maxDepth: Int = 8, minLeaf: Int = 3, maxFeatures: Int = -1,
          rng: Random = new Random(0),
          idx: Array[Int] = null): RegressionTree = {
    val rows = if (idx == null) Array.range(0, xs.length) else idx
    require(rows.nonEmpty, "empty training set")
    grow(xs, ys, rows, maxDepth, minLeaf, maxFeatures, rng)
  }

  private def mean(ys: Array[Double], rows: Array[Int]): Double = {
    var s = 0.0; var i = 0
    while (i < rows.length) { s += ys(rows(i)); i += 1 }
    s / rows.length
  }

  private def grow(xs: Array[Array[Double]], ys: Array[Double], rows: Array[Int],
                   depth: Int, minLeaf: Int, maxFeatures: Int, rng: Random): RegressionTree = {
    if (depth == 0 || rows.length < 2 * minLeaf) return leaf(mean(ys, rows))

    val nFeat = xs(0).length
    val feats: Array[Int] =
      if (maxFeatures <= 0 || maxFeatures >= nFeat) Array.range(0, nFeat)
      else rng.shuffle((0 until nFeat).toVector).take(maxFeatures).toArray

    var bestFeat = -1
    var bestThr = 0.0
    var bestScore = Double.NegativeInfinity

    // Parent SSE baseline.
    val mu = mean(ys, rows)
    var parentSse = 0.0
    rows.foreach { r => val d = ys(r) - mu; parentSse += d * d }
    if (parentSse <= 1e-12) return leaf(mu)

    feats.foreach { f =>
      val sorted = rows.sortBy(r => xs(r)(f))
      // Prefix sums for O(n) split scan.
      var lSum = 0.0; var lSq = 0.0; var lCnt = 0
      var rSum = 0.0; var rSq = 0.0
      sorted.foreach { r => rSum += ys(r); rSq += ys(r) * ys(r) }
      var i = 0
      while (i < sorted.length - 1) {
        val r = sorted(i)
        lSum += ys(r); lSq += ys(r) * ys(r); lCnt += 1
        rSum -= ys(r); rSq -= ys(r) * ys(r)
        val xi = xs(r)(f); val xn = xs(sorted(i + 1))(f)
        if (xi != xn && lCnt >= minLeaf && (sorted.length - lCnt) >= minLeaf) {
          val rCnt = sorted.length - lCnt
          val sse = (lSq - lSum * lSum / lCnt) + (rSq - rSum * rSum / rCnt)
          val score = parentSse - sse
          if (score > bestScore) { bestScore = score; bestFeat = f; bestThr = (xi + xn) / 2.0 }
        }
        i += 1
      }
    }

    if (bestFeat < 0 || bestScore <= 1e-12) return leaf(mu)
    val (lRows, rRows) = rows.partition(r => xs(r)(bestFeat) <= bestThr)
    new RegressionTree(bestFeat, bestThr,
      grow(xs, ys, lRows, depth - 1, minLeaf, maxFeatures, rng),
      grow(xs, ys, rRows, depth - 1, minLeaf, maxFeatures, rng),
      mu)
  }
}

/** Bagged random forest of regression trees. */
final class RandomForest(val trees: Vector[RegressionTree]) extends Serializable {
  def predict(x: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < trees.size) { s += trees(i).predict(x); i += 1 }
    s / trees.size
  }
}

object RandomForest {
  private val MaxDepth = 8
  private val MinLeaf = 2

  def fit(xs: Array[Array[Double]], ys: Array[Double],
          nTrees: Int = 32, seed: Long = 0L): RandomForest = {
    require(xs.nonEmpty, "empty training set")
    val rng = new Random(seed)
    val nFeat = xs(0).length
    val mtry = math.max(1, (nFeat / 3.0).round.toInt)
    val trees = Vector.fill(nTrees) {
      val boot = Array.fill(xs.length)(rng.nextInt(xs.length))
      RegressionTree.fit(xs, ys, MaxDepth, MinLeaf, mtry, rng, boot)
    }
    new RandomForest(trees)
  }
}

/** Gradient-boosted regression trees with squared loss and shrinkage —
  * the stand-in for the paper's LightGBM similarity regressor (§5.1).
  */
final class Gbdt(val base: Double, val trees: Vector[RegressionTree]) extends Serializable {
  def predict(x: Array[Double]): Double = {
    var p = base; var i = 0
    while (i < trees.size) { p += Gbdt.Lr * trees(i).predict(x); i += 1 }
    p
  }
}

object Gbdt {
  /** Shrinkage (learning rate) and minimum leaf size of every boosted tree. */
  private val Lr = 0.1
  private val MinLeaf = 3

  def fit(xs: Array[Array[Double]], ys: Array[Double],
          nTrees: Int = 80, maxDepth: Int = 4, seed: Long = 0L): Gbdt = {
    require(xs.nonEmpty, "empty training set")
    val rng = new Random(seed)
    val base = ys.sum / ys.length
    val resid = ys.map(_ - base)
    val trees = Vector.newBuilder[RegressionTree]
    var t = 0
    while (t < nTrees) {
      val tree = RegressionTree.fit(xs, resid.clone(), maxDepth, MinLeaf, -1, rng)
      var i = 0
      while (i < resid.length) { resid(i) -= Lr * tree.predict(xs(i)); i += 1 }
      trees += tree
      t += 1
    }
    new Gbdt(base, trees.result())
  }
}
