package repro.core

import scala.collection.mutable
import scala.util.Random

import breeze.linalg.DenseVector
import breeze.optimize.{CachedDiffFunction, DiffFunction, LBFGS}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}

import repro.dom.{PageDoc, PageTree, XPaths}

/** Training-set assembly and the multinomial logistic-regression node
  * classifier (§4.1–4.2).
  *
  * Positives come from the (noisy) annotations; for each positive, `negRatio`
  * unlabeled nodes of the same page are sampled as "OTHER" (paper: r = 3).
  * Nodes that differ from a multi-positive list only at its varying XPath
  * indices are excluded from negative sampling — they are likely unlabeled
  * members of the same value list (§4.1).
  *
  * The model mirrors the paper's scikit-learn setup (single-machine LBFGS,
  * L2): the examples of one cluster are collected and fit on the Spark
  * driver over a dictionary of the features seen in training.
  */
object Trainer {

  val OtherLabel = "OTHER"

  /** LBFGS iteration cap and L2 strength on the mean log-loss
    * (λ = 1/(C·n) in scikit-learn's C; see DESIGN.md §2).
    */
  private val MaxIter  = 40
  private val RegParam = 1e-4

  case class Example(label: String, features: Seq[String])

  /** Serializable fitted model: softmax scorer over a feature dictionary.
    * Features absent from the dictionary carry no weight and are dropped.
    */
  final class NodeClassifier(
      val labels: Vector[String],
      dictionary: Map[String, Int],
      coef: Array[Array[Double]],  // labels.size x dictionary.size
      intercept: Array[Double],
  ) extends Serializable {
    def probabilities(features: Iterable[String]): Array[Double] = {
      val idx = features.iterator.flatMap(dictionary.get).toArray.distinct.sorted
      val margins = Array.tabulate(labels.size) { k =>
        var s = intercept(k)
        val row = coef(k)
        var i = 0
        while (i < idx.length) { s += row(idx(i)); i += 1 }
        s
      }
      val mx  = margins.max
      val exp = margins.map(m => math.exp(m - mx))
      val z   = exp.sum
      exp.map(_ / z)
    }

    /** (label, probability) of the most probable class. */
    def predict(features: Iterable[String]): (String, Double) = {
      val p = probabilities(features)
      val k = p.indices.maxBy(p(_))
      (labels(k), p(k))
    }
  }

  /** Build labeled examples from one corpus slice + its annotations. */
  def buildExamples(
      pages: Dataset[PageDoc],
      annotations: Vector[RelationAnnot.Annotation],
      frequentB: Broadcast[Set[String]],
      negRatio: Int = 3,
      seed: Long = 17,
  )(implicit spark: SparkSession): Dataset[Example] = {
    import spark.implicits._
    val byPage = annotations.groupBy(_.pageId)
    val byPageB = spark.sparkContext.broadcast(byPage)
    pages.mapPartitions { it =>
      val freq = frequentB.value
      it.flatMap { p =>
        byPageB.value.get(p.pageId) match {
          case None => Iterator.empty
          case Some(anns) =>
            val tree = new PageTree(p)
            val posByPath = anns.groupBy(_.xpath).map { case (x, as) =>
              x -> as.map(_.predicate).distinct
            }
            val positives = posByPath.toVector.sortBy(_._1).flatMap { case (xpath, preds) =>
              tree.nodeAt(xpath).toVector.flatMap(n =>
                preds.map(pred => Example(pred, FeatureGen.nodeFeatures(tree, n.id, freq))))
            }
            // Exclusion templates: >= 2 positives of one predicate sharing a
            // template => the whole list-template is off limits as negatives.
            val exclTemplates: Set[String] = anns
              .groupBy(_.predicate)
              .values
              .flatMap { as =>
                as.map(a => XPaths.template(a.xpath))
                  .groupBy(identity)
                  .collect { case (t, xs) if xs.size >= 2 => t }
              }
              .toSet
            val labeled = posByPath.keySet
            val candidates = p.textNodes
              .filter(n => !labeled.contains(n.xpath) && !exclTemplates.contains(XPaths.template(n.xpath)))
            val rng  = new Random(seed ^ p.pageId.hashCode.toLong)
            val negs = rng
              .shuffle(candidates)
              .take(negRatio * positives.size)
              .map(n => Example(OtherLabel, FeatureGen.nodeFeatures(tree, n.id, freq)))
            (positives ++ negs).iterator
        }
      }
    }
  }

  /** Fit the multinomial LR on the Spark driver.
    *
    * The objective and its parametrisation are those of Spark ML's
    * `LogisticRegression` (multinomial, L2, `standardization = false`), whose
    * 40-iteration solution the reproduced tables rest on; another
    * parametrisation reaches a different point in 40 steps. That is: mean
    * log-loss + ½·λ·‖W‖² on the raw coefficients, intercepts unpenalised,
    * optimised over centred features scaled by their sample standard
    * deviation (the penalty divided by std² to match), from intercepts
    * log1p(label count), centred. A feature constant over the training rows
    * gets no coefficient, as in Spark.
    *
    * Examples are sorted first so that the model does not depend on the
    * partitioning. A set with fewer than two distinct labels has nothing to
    * discriminate: the model then labels every node OTHER with probability 1.
    */
  def train(examples: Dataset[Example])(implicit spark: SparkSession): NodeClassifier = {
    val rows = examples.collect().sortBy(ex => (ex.label, ex.features))(
      Ordering.Tuple2(Ordering.String, Ordering.Implicits.seqOrdering[Seq, String]))
    if (rows.iterator.map(_.label).distinct.size < 2)
      return new NodeClassifier(Vector(OtherLabel), Map.empty, Array(Array.emptyDoubleArray), Array(0.0))

    val n      = rows.length
    val labels = (rows.map(_.label) :+ OtherLabel).distinct.sorted.toVector
    val nK     = labels.size
    val y      = rows.map(ex => labels.indexOf(ex.label))
    val counts = mutable.HashMap.empty[String, Int]
    rows.foreach(_.features.distinct.foreach(f => counts(f) = counts.getOrElse(f, 0) + 1))
    val varying = counts.collect { case (f, c) if c < n => f }.toArray.sorted
    val dictionary = varying.zipWithIndex.toMap
    val nF = varying.length
    val x  = rows.map(_.features.flatMap(dictionary.get).distinct.sorted.toArray)

    // Binary features: c ones in n rows have mean c/n and sample variance
    // c(n−c)/n/(n−1), computed in the order Spark's summarizer uses.
    val ones       = varying.map(counts(_).toDouble)
    val std        = ones.map(c => math.sqrt(c * (n - c) / n / (n - 1)))
    val invStd     = std.map(1.0 / _)
    val scaledMean = Array.tabulate(nF)(j => invStd(j) * (ones(j) / n))

    // Parameters in Spark's layout: w(j·nK + k) for feature j of class k, then
    // the nK intercepts, all in the standardised space. The margin of a row
    // with no active feature is the intercept less the centring term; that is
    // also the raw-space intercept.
    def rawIntercepts(w: Array[Double]): Array[Double] = Array.tabulate(nK) { k =>
      var s = 0.0
      var j = 0
      while (j < nF) { s += w(j * nK + k) * scaledMean(j); j += 1 }
      w(nF * nK + k) - s
    }
    val loss = new DiffFunction[DenseVector[Double]] {
      def calculate(params: DenseVector[Double]): (Double, DenseVector[Double]) = {
        val w         = params.toArray
        val grad      = new Array[Double](w.length)
        val offset    = rawIntercepts(w)
        val margins   = new Array[Double](nK)
        val interGrad = new Array[Double](nK)
        var lossSum   = 0.0
        var i = 0
        while (i < n) {
          val xi = x(i)
          var k = 0
          while (k < nK) {
            var s = offset(k)
            var a = 0
            while (a < xi.length) { s += w(xi(a) * nK + k) * invStd(xi(a)); a += 1 }
            margins(k) = s
            k += 1
          }
          val maxMargin     = margins.max
          val marginOfLabel = margins(y(i))
          var sum = 0.0
          k = 0
          while (k < nK) {
            if (maxMargin > 0) margins(k) -= maxMargin
            margins(k) = math.exp(margins(k))
            sum += margins(k)
            k += 1
          }
          k = 0
          while (k < nK) {
            val mult = margins(k) / sum - (if (y(i) == k) 1.0 else 0.0)
            var a = 0
            while (a < xi.length) { grad(xi(a) * nK + k) += mult * invStd(xi(a)); a += 1 }
            interGrad(k) += mult
            k += 1
          }
          lossSum += math.log(sum) - marginOfLabel + (if (maxMargin > 0) maxMargin else 0.0)
          i += 1
        }
        var k = 0
        while (k < nK) {
          grad(nF * nK + k) += interGrad(k)
          var j = 0
          while (j < nF) { grad(j * nK + k) -= interGrad(k) * scaledMean(j); j += 1 }
          k += 1
        }
        val scale = 1.0 / n
        var regSum = 0.0
        var p = 0
        while (p < grad.length) {
          grad(p) *= scale
          if (p < nF * nK) {
            val s    = std(p / nK)
            val temp = w(p) / (s * s)
            regSum += w(p) * temp
            grad(p) += RegParam * temp
          }
          p += 1
        }
        (lossSum / n + 0.5 * regSum * RegParam, DenseVector(grad))
      }
    }

    val init = new Array[Double](nF * nK + nK)
    val logCounts = labels.indices.map(k => math.log1p(y.count(_ == k).toDouble))
    val logMean   = logCounts.sum / nK
    labels.indices.foreach(k => init(nF * nK + k) = logCounts(k) - logMean)
    val w = new LBFGS[DenseVector[Double]](MaxIter, 10, 1e-6)
      .minimize(new CachedDiffFunction(loss), DenseVector(init))
      .toArray

    // Back to raw features; the intercepts are centred at the end, as in Spark.
    val coef = Array.tabulate(nK, nF)((k, j) => w(j * nK + k) / std(j))
    val intercept = rawIntercepts(w)
    val interceptMean = intercept.sum / nK
    new NodeClassifier(labels, dictionary, coef, intercept.map(_ - interceptMean))
  }
}
