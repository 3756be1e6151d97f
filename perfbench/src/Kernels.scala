package perfbench

import scala.collection.mutable.ArrayBuffer

import repro.cluster.XPathClustering
import repro.core.{EntityMatch, FeatureGen, TopicId, Trainer}
import repro.dom.PageTree
import repro.util.Normalize

/** Per-call timings of the pipeline's per-page and per-node kernels, on the
  * workload's own pages.
  */
object Kernels {

  val MaxPages = 120

  /** Median microseconds per call over rounds of `calls` calls each, after one
    * warm round, repeated for at least `minSeconds`.
    */
  def perCallUs(calls: Int, minSeconds: Double = 0.3)(round: => Long): Double = {
    var sink  = round
    val times = ArrayBuffer.empty[Double]
    val t0    = System.nanoTime()
    while (times.size < 3 || System.nanoTime() - t0 < minSeconds * 1e9) {
      val s = System.nanoTime()
      sink += round
      times += (System.nanoTime() - s) / 1e3 / math.max(1, calls)
    }
    if (sink == Long.MinValue) println(sink) // keeps the rounds' results live
    Stats.median(times.toVector)
  }

  /** `model` and `frequent` come from a cluster the traced pass trained. */
  def measure(w: Workload, model: Trainer.NodeClassifier, frequent: Set[String]): Vector[(String, Double)] = {
    val all    = w.sites.flatMap(s => s.pages.map(p => (s.kb, p)))
    val stride = (all.size + MaxPages - 1) / MaxPages
    val pages  = all.zipWithIndex.collect { case (kp, i) if i % stride == 0 => kp }
    val trees  = pages.map { case (_, p) => new PageTree(p) }
    val nodes  = trees.flatMap(t => t.doc.textNodes.map(n => (t, n.id)))
    val texts  = nodes.map { case (t, id) => t.node(id).text }
    val feats  = nodes.map { case (t, id) => FeatureGen.nodeFeatures(t, id, frequent) }
    val paths  = all.flatMap(_._2.textNodes.map(_.xpath)).groupMapReduce(identity)(_ => 1L)(_ + _)
    val capped = paths.toVector.sortBy { case (p, n) => (-n, p) }.take(300).toMap

    Vector(
      "util.Normalize.us" -> perCallUs(texts.size)(texts.foldLeft(0L)(_ + Normalize(_).length)),
      "dom.PageTree.us" -> perCallUs(pages.size)(pages.foldLeft(0L)((a, kp) => a + new PageTree(kp._2).size)),
      "core.EntityMatch.pageStrings.us" -> perCallUs(pages.size)(
        pages.foldLeft(0L) { case (a, (kb, p)) => a + EntityMatch.pageStrings(p, kb).size }),
      "core.TopicId.scoreEntities.us" -> perCallUs(pages.size)(
        pages.foldLeft(0L) { case (a, (kb, p)) => a + TopicId.scoreEntities(p, kb).size }),
      "core.FeatureGen.nodeFeatures.us" -> perCallUs(nodes.size)(
        nodes.foldLeft(0L) { case (a, (t, id)) => a + FeatureGen.nodeFeatures(t, id, frequent).size }),
      "core.NodeClassifier.predict.us" -> perCallUs(feats.size)(
        feats.foldLeft(0L)((a, f) => a + model.predict(f)._1.length)),
      // One target cluster: the most merges the clustering can be asked for.
      "cluster.xpath.us" -> perCallUs(1)(XPathClustering.cluster(capped, 1).sizes.size.toLong),
      "cluster.xpath.paths" -> capped.size.toDouble,
    )
  }
}
