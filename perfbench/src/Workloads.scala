package perfbench

import repro.core.{Ceres, Extractor, Metrics, RelationAnnot}
import repro.dom.PageDoc
import repro.exp.{ImdbExperiment, LongTailExperiment}
import repro.kb.KnowledgeBase
import repro.web.{ImdbWorld, LongTailSites}

/** One `Ceres.run` call of a workload: the inputs the pipeline sees. Both
  * workloads run CERES-Full at `Ceres.Config()`'s defaults (threshold 0.5).
  */
case class Site(name: String, pages: Vector[PageDoc], trainIds: Set[String], kb: KnowledgeBase)

/** A named check of the program's output, printed with the metrics. */
case class Gate(name: String, value: Double, ok: Boolean)

/** A batch job: one pass runs every site once, in order (or through `exp.Par` when
  * `parallel`), and `score` turns the pass's results (in site order) into the
  * mention-level "ALL" P/R/F1 and the workload's quality gates.
  */
case class Workload(
    name: String,
    sites: Vector[Site],
    parallel: Boolean,
    score: Vector[Ceres.Result] => (Metrics.PRF, Vector[Gate]),
) {
  def pages: Int = sites.map(_.pages.size).sum
}

object Workloads {

  val LongTailPicks = Set("themoviedb.org", "sodasandpopcorn.com", "kmdb.or.kr", "boxofficemojo.com")

  def apply(name: String, seed: Long): Workload = name match {
    case "imdb"     => imdb(seed)
    case "longtail" => longtail(seed)
    case other      => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** Sum of per-site PRFs: page ids repeat across sites, so sites are scored apart. */
  private def sum(ms: Vector[Metrics.PRF]): Metrics.PRF =
    Metrics.PRF("ALL", ms.map(_.tp).sum, ms.map(_.fp).sum, ms.map(_.fn).sum)

  /** IMDb-lite title pages (films and episodes: long cast lists, the most
    * predicates) at the experiment's 200, without the person template,
    * CERES-Full. The first half of the sorted page ids trains, as in
    * `ImdbExperiment.run`, and the other half is scored.
    */
  def imdb(seed: Long): Workload = {
    val w = ImdbWorld.build(nPersonPages = 0, seed = seed)
    val ids = w.site.pages.map(_.pageId).sorted
    val trainIds = ids.take(ids.size / 2).toSet
    val evalIds  = ids.toSet -- trainIds
    val site = Site(w.site.site, w.site.pages, trainIds, w.kb)
    Workload("imdb", Vector(site), parallel = false, { results =>
      val r   = results.head
      val run = ImdbExperiment.Run(w, trainIds, evalIds, r, r)
      val filmP = ImdbExperiment.table5(run, r, "Film/TV")("ALL").p
      (Metrics.extractionPRF(r.extractions, w.site.truth, run.namePredOf, evalIds)("ALL"),
        Vector(Gate("imdb.film_tv_precision>0.85", filmP, filmP > 0.85)))
    })
  }

  /** Four long-tail sites at scale 0.25: themoviedb.org (clean, general),
    * sodasandpopcorn.com (40% non-detail pages and generic class names, so
    * more than one template cluster), kmdb.or.kr (too little KB overlap to
    * train) and boxofficemojo.com (no detail page at all, which the gate names).
    * Trains and extracts on all pages at threshold 0.5, through `exp.Par` with
    * 4 threads as `LongTailExperiment.run` does.
    */
  def longtail(seed: Long): Workload = {
    val lt = LongTailSites.build(0.25, seed)
    val picked = lt.sites.filter(sd => LongTailPicks(sd.profile.site))
    val sites = picked.map(sd => Site(sd.profile.site, sd.rendered.pages, Set.empty, lt.kb))
    Workload("longtail", sites, parallel = true, { results =>
      val srs = picked.zip(results).map { case (sd, r) =>
        LongTailExperiment.SiteResult(sd.profile, sd.rendered.pages.size, r.keptTopics.size,
          r.annotations.count(_.predicate != RelationAnnot.NamePred), r,
          Metrics.truthTriples(sd.rendered.truth))
      }
      val prf = sum(picked.zip(results).map { case (sd, r) =>
        val namePred = if (sd.profile.personPages) "name" else "title"
        Metrics.extractionPRF(r.extractions, sd.rendered.truth, _ => namePred)("ALL")
      })
      // Table 8's pooled relation precision and the boxofficemojo row, as the bench asserts them.
      val rows    = srs.map(LongTailExperiment.table8Row(_))
      val pooled  = rows.filterNot(_.precision.isNaN).map(r => r.precision * r.extractions).sum /
        rows.map(_.extractions).sum
      val mojo    = rows.find(_.site == "boxofficemojo.com").map(_.extractions.toDouble).getOrElse(-1.0)
      (prf, Vector(
        Gate("longtail.table8_precision_in_(0.70,0.97]", pooled, pooled > 0.70 && pooled <= 0.97),
        Gate("longtail.boxofficemojo_extractions==0", mojo, mojo == 0.0)))
    })
  }

  /** Identity of an extraction, without its confidence. */
  def key(e: Extractor.Extraction): String =
    Seq(e.site, e.pageId, e.cluster, e.xpath, e.predicate, e.value, e.subject).mkString("\u0001")

  /** Digest of a pass's sorted extraction set. */
  def digest(results: Vector[Ceres.Result]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    results.flatMap(_.extractions.map(key)).distinct.sorted.foreach { k =>
      md.update(k.getBytes("UTF-8")); md.update('\n'.toByte)
    }
    md.digest().take(8).map(b => f"$b%02x").mkString
  }
}
