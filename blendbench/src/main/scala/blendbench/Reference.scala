package blendbench

import scala.collection.mutable

import repro.core._
import repro.lake.Lake

/** Expected results computed from a lake's in-memory tables, without Spark.
  * Rankings follow the program's convention: descending score, ascending
  * table id.
  *
  * @param quadrantTies cells whose value equals its column mean to within
  *                     rounding, with the Quadrant bit the index stored for
  *                     them (either bit is correct there, see [[IndexCheck]])
  */
final class Reference(lake: Lake, quadrantTies: Map[(Long, Int, Int), Boolean]) {
  import Reference.Cell

  private val postings: Map[String, Vector[Cell]] = {
    val b = mutable.HashMap.empty[String, mutable.ArrayBuffer[Cell]]
    for (t <- lake.tables; c <- t.columns.indices; r <- 0 until t.nRows)
      b.getOrElseUpdate(t.cell(r, c), mutable.ArrayBuffer.empty) += Cell(t.id.toInt, c, r)
    b.view.mapValues(_.toVector).toMap
  }

  private def cellsOf(v: String): Vector[Cell] = postings.getOrElse(v, Vector.empty)

  private val means = Reference.columnMeans(lake)

  /** Quadrant bit of a cell, or None when its column is not numerical. */
  def quadrant(t: Int, c: Int, r: Int): Option[Boolean] =
    means(t)(c).map { mean =>
      quadrantTies.getOrElse((t.toLong, c, r), lake.tables(t).columns(c).numeric.get(r) >= mean)
    }

  private def ranked(scores: Iterable[(Int, Double)]): Seq[Scored] =
    scores.map { case (t, s) => Scored(t.toLong, s) }.toSeq.sortBy(s => (-s.score, s.tableId))

  /** SC: per table, the largest per-column count of distinct query values. */
  def sc(values: Seq[String]): Seq[Scored] = {
    val perColumn = mutable.HashMap.empty[(Int, Int), Int].withDefaultValue(0)
    for (v <- values.distinct; tc <- cellsOf(v).map(c => (c.table, c.col)).distinct)
      perColumn(tc) += 1
    ranked(perColumn.groupMapReduce(_._1._1)(_._2.toDouble)(math.max))
  }

  /** KW: per table, the count of distinct query values it contains. */
  def kw(values: Seq[String]): Seq[Scored] = {
    val perTable = mutable.HashMap.empty[Int, Int].withDefaultValue(0)
    for (v <- values.distinct; t <- cellsOf(v).map(_.table).distinct) perTable(t) += 1
    ranked(perTable.map { case (t, n) => t -> n.toDouble })
  }

  /** MC: per table, the rows that hold some query tuple in pairwise
    * distinct columns.
    */
  def mc(tuples: Seq[Vector[String]]): Seq[Scored] = {
    def holds(t: Int, r: Int, tuple: Vector[String]): Boolean = {
      val row = lake.tables(t).row(r)
      def place(i: Int, used: Set[Int]): Boolean =
        i == tuple.size || row.indices.exists(c => !used(c) && row(c) == tuple(i) && place(i + 1, used + c))
      place(0, Set.empty)
    }
    val rows = for {
      tuple <- tuples.distinct
      cell <- cellsOf(tuple.head)
      if holds(cell.table, cell.row, tuple)
    } yield (cell.table, cell.row)
    ranked(rows.distinct.groupMapReduce(_._1)(_ => 1.0)(_ + _))
  }

  /** C: per table, the largest QCR over (join column, numerical column)
    * pairs, counted on rows below `h`, for pairs with at least `minSupport`
    * rows. A key is on the high side when the mean of its targets is at
    * least the mean of all targets.
    */
  def corr(keys: Seq[String], targets: Seq[Double], h: Int, minSupport: Int): Seq[Scored] = {
    val byKey = keys.zip(targets).groupBy(_._1)
    val targetMean = targets.sum / targets.size
    val high = byKey.collect { case (k, kts) if kts.map(_._2).sum / kts.size >= targetMean => k }.toSet
    val best = mutable.HashMap.empty[Int, Double]
    for (t <- lake.tables) {
      val n = mutable.HashMap.empty[(Int, Int), Int].withDefaultValue(0)
      val agree = mutable.HashMap.empty[(Int, Int), Int].withDefaultValue(0)
      for (r <- 0 until math.min(h, t.nRows)) {
        val keyCols = t.columns.indices.filter(c => byKey.contains(t.cell(r, c)))
        for (jc <- keyCols; nc <- t.columns.indices if nc != jc; q <- quadrant(t.id.toInt, nc, r)) {
          n((jc, nc)) += 1
          if (high(t.cell(r, jc)) == q) agree((jc, nc)) += 1
        }
      }
      val qcrs = n.collect { case (p, cnt) if cnt >= minSupport =>
        math.abs(2L * agree(p) - cnt).toDouble / cnt
      }
      if (qcrs.nonEmpty) best(t.id.toInt) = qcrs.max
    }
    ranked(best)
  }

  def ranking(s: Seeker): Seq[Scored] = s match {
    case x: ScSeeker   => sc(x.values)
    case x: KwSeeker   => kw(x.keywords)
    case x: McSeeker   => mc(x.tuples)
    case x: CorrSeeker => corr(x.keys, x.targets, x.h, x.minSupport)
  }

  /** Every node of a plan, evaluated with the reference rankings and the
    * combiner semantics of the paper (§IV-B). Truncation follows DESIGN.md:
    * a seeker whose only consumer is an Intersection or a Difference keeps
    * its full ranking, any other seeker keeps its top k, and a combiner
    * keeps its top k.
    */
  def plan(p: Plan): Map[String, Seq[Scored]] = {
    val consumers = p.consumers
    def top(xs: Seq[Scored], k: Int) = if (k > 0) xs.take(k) else xs
    p.nodes.foldLeft(Map.empty[String, Seq[Scored]]) {
      case (acc, s: SeekerNode) =>
        val grouped = consumers.get(s.name).exists(cs =>
          cs.size == 1 && Set[Combiner](Combiner.Intersection, Combiner.Difference)(cs.head.combiner))
        val full = ranking(s.seeker)
        acc + (s.name -> (if (grouped) full else top(full, s.seeker.k)))
      case (acc, c: CombinerNode) =>
        acc + (c.name -> top(Reference.combine(c.combiner, c.inputs.map(acc)), c.k))
    }
  }
}

object Reference {

  private final case class Cell(table: Int, col: Int, row: Int)

  /** Mean of each numerical column (None for the others), summed in row
    * order.
    */
  def columnMeans(lake: Lake): Vector[Vector[Option[Double]]] =
    lake.tables.map(_.columns.map(_.numeric.map(ns => ns.sum / ns.size)))

  /** Whether `v` lies within rounding of `mean`, so that `v >= mean` may
    * come out either way depending on summation order.
    */
  def tie(v: Double, mean: Double): Boolean = math.abs(v - mean) <= 1e-9 * math.max(1.0, math.abs(mean))

  private def ranked(xs: Iterable[(Long, Double)]): Seq[Scored] =
    xs.map { case (t, s) => Scored(t, s) }.toSeq.sortBy(s => (-s.score, s.tableId))

  /** The four combiners, written from their definitions in the paper. */
  def combine(c: Combiner, inputs: Seq[Seq[Scored]]): Seq[Scored] = {
    val scoreMaps = inputs.map(_.map(s => s.tableId -> s.score).toMap)
    def summed = inputs.flatten.groupBy(_.tableId).map { case (t, ss) => t -> ss.map(_.score) }
    c match {
      case Combiner.Intersection =>
        val common = scoreMaps.map(_.keySet).reduce(_ intersect _)
        ranked(common.map(t => t -> scoreMaps.map(_(t)).sum))
      case Combiner.Union => ranked(summed.map { case (t, ss) => t -> ss.sum })
      case Combiner.Difference =>
        val drop = scoreMaps(1).keySet
        ranked(inputs.head.filterNot(s => drop(s.tableId)).map(s => s.tableId -> s.score))
      case Combiner.Counter =>
        ranked(summed.map { case (t, ss) => t -> (ss.size + ss.sum / (1.0 + ss.sum)) })
    }
  }

  /** Rankings agree when they list the same tables in the same order with
    * the same scores (to within floating-point summation error).
    */
  def same(a: Seq[Scored], b: Seq[Scored]): Boolean =
    a.size == b.size && a.zip(b).forall { case (x, y) =>
      x.tableId == y.tableId && math.abs(x.score - y.score) <= 1e-9 * math.max(1.0, math.abs(y.score))
    }
}

/** Checks a built index against the lake it was built from. */
object IndexCheck {

  /** Problems found (empty when the index is right), and the Quadrant bits
    * the index chose for cells that tie with their column mean.
    */
  final case class Outcome(problems: Seq[String], ties: Map[(Long, Int, Int), Boolean])

  private def cellHash(t: Long, c: Int, r: Int, v: String): Long =
    (t, c, r, v).##.toLong

  def apply(idx: AllTables, lake: Lake): Outcome = {
    val rows = idx.df.select("CellValue", "TableId", "ColumnId", "RowId", "SuperKey", "Quadrant").collect()
    val problems = mutable.ArrayBuffer.empty[String]
    def problem(msg: String): Unit = if (problems.size < 5) problems += msg

    // Cells: same count and the same order-free checksum as the lake's.
    val lakeSum = (for (t <- lake.tables; c <- t.columns.indices; r <- 0 until t.nRows)
      yield cellHash(t.id, c, r, t.cell(r, c))).sum
    val indexSum = rows.iterator.map(x => cellHash(x.getLong(1), x.getInt(2), x.getInt(3), x.getString(0))).sum
    if (rows.length.toLong != lake.nCells) problem(s"index has ${rows.length} cells, lake ${lake.nCells}")
    if (indexSum != lakeSum) problem("cell checksum differs from the lake's")

    // SuperKey: OR of Xash.cellBits over the row. Quadrant: value >= mean.
    val superKeys = lake.tables.map(t => Vector.tabulate(t.nRows)(r => t.row(r).map(Xash.cellBits).reduce(_ | _)))
    val means = Reference.columnMeans(lake)
    val ties = mutable.HashMap.empty[(Long, Int, Int), Boolean]
    for (x <- rows) {
      val (t, c, r) = (x.getLong(1).toInt, x.getInt(2), x.getInt(3))
      if (t < 0 || t >= lake.nTables || c < 0 || c >= lake.tables(t).nCols || r < 0 || r >= lake.tables(t).nRows)
        problem(s"cell ($t, $c, $r) is not in the lake")
      else {
        if (x.getLong(4) != superKeys(t)(r)) problem(s"SuperKey of table $t row $r")
        val bit = if (x.isNullAt(5)) None else Some(x.getBoolean(5))
        means(t)(c) match {
          case None => if (bit.nonEmpty) problem(s"Quadrant set on non-numerical cell ($t, $c, $r)")
          case Some(mean) =>
            val v = lake.tables(t).columns(c).numeric.get(r)
            bit match {
              case None => problem(s"Quadrant missing on numerical cell ($t, $c, $r)")
              case Some(b) if Reference.tie(v, mean) => ties((t.toLong, c, r)) = b
              case Some(b) => if (b != (v >= mean)) problem(s"Quadrant of cell ($t, $c, $r)")
            }
        }
      }
    }
    Outcome(problems.toSeq, ties.toMap)
  }
}
