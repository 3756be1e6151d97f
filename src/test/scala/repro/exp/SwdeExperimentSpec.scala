package repro.exp

import repro.SparkSpec

class SwdeExperimentSpec extends SparkSpec {
  test("run takes nSites sites of each vertical") {
    implicit val s = spark
    val runs = SwdeExperiment.run(pagesPerSite = 40, nSites = 1, systems = Vector("CERES-Full"))
    assert(runs.size == 4)
    assert(runs.map(_.vertical).distinct.size == 4)
    assert(runs.forall(_.system == "CERES-Full"))
  }
}
