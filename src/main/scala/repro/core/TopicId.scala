package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}

import repro.dom.PageDoc
import repro.kb.KnowledgeBase
import repro.util.Normalize

/** Page-topic identification — Algorithm 1 of the paper.
  *
  * Local step (per page, per partition): match text fields against the KB,
  * score every candidate entity by the Jaccard similarity between the page's
  * KB-known strings and the entity's object set (Eq. 1), and keep the top
  * few candidates with the XPaths of their mentions.
  *
  * Global steps (DataFrame aggregations over the whole cluster):
  *  1. uniqueness filter — an entity that is the best candidate of
  *     `maxTopicPages`+ pages is discarded (the "Help" problem, §3.1.2);
  *  2. dominant XPath — count how often each XPath carries a best candidate
  *     across pages and rank paths by count.
  *
  * Final pass (per page): take the highest-ranked path present on the page,
  * and among KB entities matching the text at that path choose the one with
  * the highest Jaccard score.
  */
object TopicId {

  /** Chosen topic for a page. */
  case class PageTopic(
      site: String,
      pageId: String,
      cluster: Int,
      entityId: String,
      entityName: String,
      topicXpath: String,
      score: Double,
  )

  /** Internal: one scored topic candidate of one page. */
  case class TopicCand(
      site: String,
      pageId: String,
      cluster: Int,
      rank: Int,
      entityId: String,
      score: Double,
      paths: Seq[String],
  )

  /** Eq. 1: Jaccard similarity of a page's KB-known strings and the
    * entity's object set.
    */
  private def jaccard(pageSet: Set[String], entity: String, kb: KnowledgeBase): Double = {
    val objs  = kb.objectsOf.getOrElse(entity, Set.empty)
    val inter = (pageSet & objs).size
    val union = pageSet.size + objs.size - inter
    if (union == 0) 0.0 else inter.toDouble / union
  }

  /** Jaccard-scored candidates of one page, best first (Alg. 1 lines 2–9). */
  def scoreEntities(page: PageDoc, kb: KnowledgeBase, topK: Int = 5): Vector[(String, Double, Vector[String])] = {
    val pageSet = EntityMatch.pageStrings(page, kb)
    val candidateMentions: Map[String, Vector[String]] = page.textNodes
      .flatMap { n =>
        val norm = Normalize(n.text)
        if (Normalize.lowInformation(n.text) || kb.frequentValues(norm)) Vector.empty
        else kb.entitiesByName.getOrElse(norm, Set.empty).toVector.map(e => (e, n.xpath))
      }
      .groupBy(_._1)
      .map { case (e, xs) => e -> xs.map(_._2) }
    candidateMentions.toVector
      .map { case (e, paths) => (e, jaccard(pageSet, e, kb), paths) }
      .filter(_._2 > 0)
      .sortBy { case (e, s, _) => (-s, e) }
      .take(topK)
  }

  def identify(
      pages: Dataset[PageDoc],
      kbB: Broadcast[KnowledgeBase],
      maxTopicPages: Int = 5,
      topPaths: Int = 100,
  )(implicit spark: SparkSession): Dataset[PageTopic] = {
    import spark.implicits._

    // ---- local candidate scoring (per partition) ------------------------
    val cands: Dataset[TopicCand] = pages
      .mapPartitions { it =>
        val kb = kbB.value
        it.flatMap { p =>
          scoreEntities(p, kb).zipWithIndex.map { case ((e, s, paths), i) =>
            TopicCand(p.site, p.pageId, p.cluster, i + 1, e, s, paths)
          }
        }
      }
      .cache()

    // ---- global uniqueness filter ---------------------------------------
    val blocked: Set[String] = cands
      .filter(_.rank == 1)
      .groupBy("entityId")
      .count()
      .filter($"count" >= maxTopicPages)
      .select("entityId")
      .as[String]
      .collect()
      .toSet
    val blockedB = spark.sparkContext.broadcast(blocked)

    // ---- dominant-XPath ranking -----------------------------------------
    val bestPerPage = cands
      .filter(c => !blockedB.value(c.entityId))
      .groupByKey(_.pageId)
      .mapGroups((_, it) => it.minBy(_.rank))
    val ranked: Vector[String] = bestPerPage
      .flatMap(_.paths)
      .toDF("path")
      .groupBy("path")
      .count()
      .orderBy($"count".desc, $"path")
      .limit(topPaths)
      .select("path")
      .as[String]
      .collect()
      .toVector
    val rankedB = spark.sparkContext.broadcast(ranked)
    cands.unpersist()

    // ---- final per-page assignment --------------------------------------
    pages.mapPartitions { it =>
      val kb      = kbB.value
      val rankedP = rankedB.value
      val blockedSet = blockedB.value
      it.flatMap { p =>
        val tree    = new repro.dom.PageTree(p)
        val pathOpt = rankedP.find(tree.contains)
        pathOpt.flatMap { path =>
          tree.nodeAt(path).flatMap { node =>
            val norm = Normalize(node.text)
            if (Normalize.lowInformation(node.text) || kb.frequentValues(norm)) None
            else {
              val pageSet = EntityMatch.pageStrings(p, kb)
              val scored = kb.entitiesByName
                .getOrElse(norm, Set.empty)
                .filterNot(blockedSet)
                .toVector
                .map(e => (e, jaccard(pageSet, e, kb)))
                .filter(_._2 > 0)
              scored.sortBy { case (e, s) => (-s, e) }.headOption.map { case (e, s) =>
                PageTopic(p.site, p.pageId, p.cluster, e, kb.nameOf(e), path, s)
              }
            }
          }
        }.iterator
      }
    }
  }
}
