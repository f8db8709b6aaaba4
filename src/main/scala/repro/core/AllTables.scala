package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** The unified BLEND index (paper §V, Fig. 3): one relational table
  *
  * {{{
  *   AllTables(CellValue varchar, TableId long, ColumnId int, RowId int,
  *             SuperKey long, Quadrant boolean?)
  * }}}
  *
  * - (CellValue, TableId, ColumnId, RowId) is the DataXFormer inverted index;
  * - SuperKey is the XASH super key of the cell's row (MATE);
  * - Quadrant is the QCR bit: value >= its column average (null when the
  *   cell is not numerical).
  *
  * @param df        the AllTables DataFrame (cached by [[AllTables.build]])
  * @param valueFreq global frequency of each distinct cell value — the
  *                  statistic the cost model's "average frequency of values
  *                  from Q in the database" feature reads (paper §VII-B)
  * @param nCells    total number of index rows
  */
final case class AllTables(df: DataFrame, valueFreq: Map[String, Long], nCells: Long) {

  /** Average database frequency of a query's values (unknown values count
    * with frequency 0, as in the paper's feature definition).
    */
  def avgFrequency(values: Seq[String]): Double =
    if (values.isEmpty) 0.0
    else values.map(v => valueFreq.getOrElse(v, 0L)).sum.toDouble / values.size

  def unpersist(): Unit = { df.unpersist(); () }
}

object AllTables {

  /** Cells per partition of the cached index. A partition of fewer cells
    * scans in less time than launching its task takes, so a smaller index
    * is not split over more cores: one task per seeker query then does the
    * work that several would do, without their launches.
    */
  val cellsPerPartition: Long = 1L << 20

  /** Offline index construction (paper Fig. 2e), pure Spark, in one pass
    * over the cells with one exchange: the cells are laid out by table,
    * then within each table
    *  1. per-(table, column) averages over numerical cells → Quadrant bit,
    *  2. per-(table, row) `bit_or` of cell bit patterns → SuperKey,
    * are computed as window aggregates next to each cell.
    */
  def build(spark: SparkSession, cells: DataFrame, cellsPerPartition: Long = cellsPerPartition): AllTables = {
    val cellBitsUdf = udf((v: String) => Xash.cellBits(v))
    val byColumn = Window.partitionBy("TableId", "ColumnId")
    val byRow = Window.partitionBy("TableId", "RowId")
    layOut(spark, cells, cellsPerPartition) { byTable =>
      byTable.select(
        col("CellValue"),
        col("TableId"),
        col("ColumnId"),
        col("RowId"),
        bit_or(cellBitsUdf(col("CellValue"))).over(byRow).as("SuperKey"),
        when(col("NumValue").isNotNull, col("NumValue") >= avg("NumValue").over(byColumn))
          .otherwise(lit(null).cast(BooleanType))
          .as("Quadrant"),
      )
    }
  }

  /** Persist the index as parquet — used by jobs and the Table VIII storage
    * measurement.
    */
  def save(index: AllTables, path: String): Unit =
    index.df.write.mode("overwrite").parquet(path)

  /** Reload a saved index into the layout [[build]] caches (recomputing the
    * frequency statistics).
    */
  def load(spark: SparkSession, path: String): AllTables =
    layOut(spark, spark.read.parquet(path), cellsPerPartition)(identity)

  /** The cached layout of the index. Rows are hash-partitioned by TableId,
    * one partition per `cellsPerPartition` rows and at most one per core,
    * so every per-table aggregate and every (TableId, RowId) self-join of a
    * seeker runs without an exchange (with
    * `spark.sql.requireAllClusterKeysForCoPartition` off, see
    * [[BlendSession]]). Within a partition rows are sorted by CellValue, so
    * the cached batches keep tight value bounds and a value lookup skips
    * the batches outside them (the paper's in-DB index on CellValue).
    *
    * `columns` derives the index columns from the table-partitioned rows
    * without moving them.
    */
  private def layOut(spark: SparkSession, rows: DataFrame, cellsPerPartition: Long)(
      columns: DataFrame => DataFrame): AllTables = {
    val partitions = math.min(spark.sparkContext.defaultParallelism.toLong,
      (rows.count() + cellsPerPartition - 1) / cellsPerPartition).max(1L).toInt
    val byTable = rows.repartition(partitions, col("TableId"))
    val df = columns(byTable).sortWithinPartitions("CellValue", "TableId", "RowId").cache()
    val nCells = df.count()

    val valueFreq = df
      .groupBy("CellValue")
      .count()
      .collect()
      .map(r => r.getString(0) -> r.getLong(1))
      .toMap

    AllTables(df, valueFreq, nCells)
  }
}
