package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.{AttributeReference, Expression, GreaterThanOrEqual, In, Literal}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec

import repro.{Fixtures, SparkSpec}

/** Physical shape of seeker queries over the TableId-partitioned index:
  * every seeker runs without an exchange, and long value lists still prune
  * the cached batches through their twin.
  */
class PlanShapeSpec extends SparkSpec {

  BlendSession.install(spark)

  private def entities(from: Int, n: Int) = Fixtures.mixed.universe.slice(from, from + n)

  private val cores = spark.sparkContext.defaultParallelism

  test("an index takes one partition per cellsPerPartition cells, at most one per core") {
    assert(Fixtures.mixedIndex.nCells < AllTables.cellsPerPartition)
    assert(Fixtures.mixedIndex.df.rdd.getNumPartitions == 1)
    val split = AllTables.build(spark, Fixtures.mixed.lake.cellsDF(spark), cellsPerPartition = 2000)
    try assert(split.df.rdd.getNumPartitions == math.min(cores, 4)) // 6,266 cells
    finally split.unpersist()
  }

  test("SC, KW, MC and C queries run without a shuffle exchange, on one partition and on several") {
    val corrQuery = Fixtures.corr.catQueries.head
    def queries(mixed: AllTables, corr: AllTables): Seq[(String, DataFrame)] = Seq(
      "SC" -> ScSeeker("sc", entities(0, 30).map(_.person)).resultDF(mixed, None),
      "KW" -> KwSeeker("kw", entities(0, 30).map(_.city)).resultDF(mixed, None),
      "MC" -> McSeeker("mc", entities(0, 20).map(_.pair)).candidateDF(mixed, None),
      "C" -> CorrSeeker("c", corrQuery.keys, corrQuery.targets).resultDF(corr, None),
    )
    def noShuffles(mixed: AllTables, corr: AllTables): Unit =
      queries(mixed, corr).foreach { case (name, df) =>
        assert(PlanShapeSpec.shuffles(df).isEmpty, s"$name plan shuffles:\n${df.queryExecution.executedPlan}")
      }

    noShuffles(Fixtures.mixedIndex, Fixtures.corrIndex)
    val mixed = AllTables.build(spark, Fixtures.mixed.lake.cellsDF(spark), cellsPerPartition = 1000)
    val corr = AllTables.build(spark, Fixtures.corr.lake.cellsDF(spark), cellsPerPartition = 1000)
    try {
      assert(cores == 1 || Seq(mixed, corr).forall(_.df.rdd.getNumPartitions > 1))
      noShuffles(mixed, corr)
    } finally { mixed.unpersist(); corr.unpersist() }
  }

  private def scanPredicates(df: DataFrame) = {
    df.collect()
    PlanShapeSpec.collect(df.queryExecution.executedPlan) {
      case scan: InMemoryTableScanExec => scan.predicates
    }.flatten
  }

  private def onCellValue(e: Expression): Boolean = e match {
    case a: AttributeReference => a.name == "CellValue"
    case _                     => false
  }

  private def twinTerms(predicates: Seq[Expression]): Seq[Expression] =
    predicates.flatMap(_.collect {
      case e @ In(v, _) if onCellValue(v)                          => e
      case e @ GreaterThanOrEqual(v, _: Literal) if onCellValue(v) => e
    })

  /** Runs `f` on an index of the mixed fixture cached in batches of 100
    * rows, several per partition, with the session's batch size kept at
    * 100 meanwhile.
    */
  private def withSmallBatches[T](f: AllTables => T): T = {
    val batchSize = "spark.sql.inMemoryColumnarStorage.batchSize"
    val before = spark.conf.get(batchSize)
    spark.conf.set(batchSize, "100")
    try {
      val small = AllTables.build(spark, Fixtures.mixed.lake.cellsDF(spark))
      try f(small) finally small.unpersist()
    } finally spark.conf.set(batchSize, before)
  }

  test("SC queries over more than ten values hand the scan a prunable twin on CellValue") {
    withSmallBatches { small =>
      val n = InSetPruningTwin.maxTwinTerms
      val exact = scanPredicates(ScSeeker("sc", entities(0, n).map(_.person)).resultDF(small, None))
      assert(exact.exists {
        case In(v, list) => onCellValue(v) && list.size == n
        case _           => false
      }, s"scan predicates: $exact")

      val ranged = scanPredicates(ScSeeker("sc", entities(0, 35).map(_.person)).resultDF(small, None))
      val ranges = ranged.flatMap(_.collect { case GreaterThanOrEqual(v, _: Literal) if onCellValue(v) => v })
      assert(ranges.size > 1 && ranges.size <= n, s"scan predicates: $ranged")
    }
  }

  test("an index of less than two batches per partition gets no twin") {
    val idx = Fixtures.mixedIndex
    val partitions = idx.df.rdd.getNumPartitions
    assert(idx.nCells < 2 * spark.conf.get("spark.sql.inMemoryColumnarStorage.batchSize").toLong * partitions)
    val predicates = scanPredicates(ScSeeker("sc", entities(0, 35).map(_.person)).resultDF(idx, None))
    assert(twinTerms(predicates).isEmpty, s"scan predicates: $predicates")
  }

  test("the twin skips cached batches and leaves SC scores unchanged") {
    withSmallBatches { small =>
      val values = entities(0, 35).map(_.person)
      val sc = ScSeeker("sc", values)
      val df = sc.resultDF(small, None)
      df.collect()
      val scanned = PlanShapeSpec.collect(df.queryExecution.executedPlan) {
        case scan: InMemoryTableScanExec => scan.metrics("numOutputRows").value
      }.sum
      assert(scanned < small.nCells / 4, s"scanned $scanned of ${small.nCells} rows")

      val q = values.toSet
      val expected = Fixtures.mixed.lake.tables
        .map(t => Scored(t.id, t.columns.map(_.values.toSet.count(q)).max.toDouble))
        .filter(_.score > 0)
        .sortBy(s => (-s.score, s.tableId))
      assert(sc.run(small) == expected)
    }
  }
}

/** Reads executed plans through the nodes of adaptive query stages. */
object PlanShapeSpec extends AdaptiveSparkPlanHelper {

  /** The shuffle exchanges a query ran with, read after it has executed. */
  def shuffles(df: DataFrame): Seq[ShuffleExchangeExec] = {
    df.collect()
    collect(df.queryExecution.executedPlan) { case s: ShuffleExchangeExec => s }
  }
}
