package repro.lake

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** One column of a lake table. `values(r)` is the string cell at row r;
  * `numeric(r)` is its parsed numeric value when the column is numerical.
  */
final case class LakeColumn(
    name: String,
    values: Vector[String],
    numeric: Option[Vector[Double]] = None,
) {
  require(numeric.forall(_.length == values.length), s"column $name: ragged numeric vector")
  def isNumeric: Boolean = numeric.isDefined
}

/** A small relational table inside the synthetic data lake. */
final case class LakeTable(id: Long, name: String, columns: Vector[LakeColumn]) {
  require(columns.nonEmpty, s"table $name has no columns")
  require(columns.map(_.values.length).distinct.size == 1, s"table $name is ragged")

  def nRows: Int = columns.head.values.length
  def nCols: Int = columns.length
  def cell(r: Int, c: Int): String = columns(c).values(r)

  /** Row r as a vector of cell strings. */
  def row(r: Int): Vector[String] = columns.map(_.values(r))
}

/** A data lake: a named collection of tables plus optional planted ground
  * truth (filled by the generator that built the lake).
  *
  * @param unionGroundTruth query table id -> ids of truly unionable tables
  */
final case class Lake(
    name: String,
    tables: Vector[LakeTable],
    unionGroundTruth: Map[Long, Set[Long]] = Map.empty,
) {
  def table(id: Long): LakeTable = tables(id.toInt)
  def nTables: Int = tables.size
  def nColumns: Long = tables.map(_.nCols.toLong).sum
  def nRows: Long = tables.map(_.nRows.toLong).sum
  def nCells: Long = tables.map(t => t.nRows.toLong * t.nCols).sum

  /** Flatten the lake into the cells DataFrame the index builder consumes:
    * (TableId, ColumnId, RowId, CellValue, NumValue). NumValue is null for
    * non-numerical cells. The cells are generated on the executors from the
    * tables, which travel in slices of about [[Lake.cellsPerSlice]] cells,
    * so no single process or task holds the lake as rows.
    */
  def cellsDF(spark: SparkSession): DataFrame = {
    val slices = math.max(spark.sparkContext.defaultParallelism, (nCells / Lake.cellsPerSlice).toInt + 1)
    val rows = spark.sparkContext.parallelize(tables, slices).flatMap(Lake.cells)
    spark.createDataFrame(rows, Lake.cellSchema)
  }
}

object Lake {

  /** Cells per slice of [[Lake.cellsDF]]: 64 Ki cells keep a task's share of
    * the lake in the low megabytes.
    */
  private val cellsPerSlice: Long = 1L << 16

  private val cellSchema: StructType = StructType(Seq(
    StructField("TableId", LongType, nullable = false),
    StructField("ColumnId", IntegerType, nullable = false),
    StructField("RowId", IntegerType, nullable = false),
    StructField("CellValue", StringType, nullable = false),
    StructField("NumValue", DoubleType, nullable = true),
  ))

  /** The cells of one table, column by column, as rows of [[cellSchema]]. */
  private def cells(t: LakeTable): Iterator[Row] =
    t.columns.iterator.zipWithIndex.flatMap { case (col, c) =>
      col.values.indices.iterator.map { r =>
        Row(t.id, c, r, col.values(r), col.numeric.map(n => java.lang.Double.valueOf(n(r))).orNull)
      }
    }
}
