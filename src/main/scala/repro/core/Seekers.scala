package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** A table id with its relevance score; seekers and combiners exchange
  * ranked sequences of these (descending score, ascending id tiebreak).
  */
final case class Scored(tableId: Long, score: Double)

/** Seeker families, in the complexity order the rule-based optimizer uses
  * (paper §VII-B, Rules 1–3): KW < SC < C < MC.
  */
sealed abstract class SeekerType(val name: String, val ruleRank: Int)
object SeekerType {
  case object KW extends SeekerType("KW", 0)
  case object SC extends SeekerType("SC", 1)
  case object C  extends SeekerType("C", 2)
  case object MC extends SeekerType("MC", 3)
  val all: Seq[SeekerType] = Seq(KW, SC, C, MC)
}

/** Cost-model features of a seeker invocation (paper §VII-B): cardinality
  * of Q, number of columns in Q, average database frequency of Q's values.
  */
final case class SeekerFeatures(card: Double, nCols: Double, avgFreq: Double) {
  /** Design row with intercept; logs tame the heavy-tailed raw features. */
  def design: Array[Double] = Array(1.0, math.log1p(card), nCols, math.log1p(avgFreq))
}

/** A low-level search operator over the unified AllTables index.
  *
  * `resultDF` is the seeker's default SQL (as a DataFrame plan) including
  * the `blend_ir` placeholder, which carries the IR, when an IR is given;
  * `run` executes it (plus any application-level phase) and returns the
  * full deterministic ranking. `k` is the seeker's own top-k, applied by
  * the executor where the paper applies it (standalone seekers and Counter
  * members).
  */
sealed trait Seeker {
  def label: String
  def seekerType: SeekerType
  def k: Int

  /** Distinct query values — input to the frequency feature. */
  def queryValues: Seq[String]
  def nQueryCols: Int

  def features(idx: AllTables): SeekerFeatures =
    SeekerFeatures(queryValues.size.toDouble, nQueryCols.toDouble, idx.avgFrequency(queryValues))

  def run(idx: AllTables, ir: Option[Ir] = None): Seq[Scored]

  /** Apply the placeholder predicate of §VII-B, with the IR as its
    * literal arguments, to a scan of AllTables.
    */
  protected final def withIr(df: DataFrame, ir: Option[Ir]): DataFrame =
    ir.fold(df)(i => df.where(call_function("blend_ir", typedLit(i.ids), lit(i.negate), col("TableId"))))

  protected final def collectScored(df: DataFrame): Seq[Scored] =
    df.select(col("TableId").cast("long"), col("score").cast("double"))
      .collect()
      .toSeq
      .map(r => Scored(r.getLong(0), r.getDouble(1)))
      .sortBy(s => (-s.score, s.tableId))
}

/** Single-Column seeker (paper Listing 1): tables with a column overlapping
  * the most distinct values of Q.
  */
final case class ScSeeker(label: String, values: Seq[String], k: Int = 10) extends Seeker {
  override def seekerType: SeekerType = SeekerType.SC
  override val queryValues: Seq[String] = values.distinct
  override def nQueryCols: Int = 1

  def resultDF(idx: AllTables, ir: Option[Ir] = None): DataFrame =
    // The placeholder sits above the selective value filter, so the
    // rewritten IN-list is only evaluated on the filter's survivors.
    withIr(idx.df.where(col("CellValue").isin(queryValues: _*)), ir)
      .groupBy("TableId", "ColumnId")
      .agg(countDistinct("CellValue").as("ov"))
      .groupBy("TableId")
      .agg(max("ov").as("score"))

  override def run(idx: AllTables, ir: Option[Ir]): Seq[Scored] =
    collectScored(resultDF(idx, ir))
}

/** Keyword seeker: like SC but overlap is counted over whole tables
  * (ColumnId dropped from the GROUP BY, paper §VI).
  */
final case class KwSeeker(label: String, keywords: Seq[String], k: Int = 10) extends Seeker {
  override def seekerType: SeekerType = SeekerType.KW
  override val queryValues: Seq[String] = keywords.distinct
  override def nQueryCols: Int = 1

  def resultDF(idx: AllTables, ir: Option[Ir] = None): DataFrame =
    withIr(idx.df.where(col("CellValue").isin(queryValues: _*)), ir)
      .groupBy("TableId")
      .agg(countDistinct("CellValue").as("score"))

  override def run(idx: AllTables, ir: Option[Ir]): Seq[Scored] =
    collectScored(resultDF(idx, ir))
}

/** Result details of an MC run — Table V counts candidates fetched after
  * the super-key filter (TP = candidates matching a query tuple exactly).
  */
final case class McDetails(ranking: Seq[Scored], fetched: Long, tp: Long, fp: Long)

/** Multi-Column seeker (paper Listing 2 + §VI): SQL phase fetches candidate
  * rows in which values of *all* query columns co-occur (mutually exclusive
  * ColumnIds); the application phase applies the XASH super-key filter and
  * exact tuple validation, as in the paper.
  */
final case class McSeeker(label: String, tuples: Seq[Vector[String]], k: Int = 10) extends Seeker {
  require(tuples.nonEmpty && tuples.head.length >= 2, "MC needs >=2-column tuples")
  require(tuples.map(_.length).distinct.size == 1, "ragged MC query")

  val nQueryCols: Int = tuples.head.length
  private val distinctTuples: Vector[Vector[String]] = tuples.toVector.distinct
  private val tupleSet: Set[Vector[String]] = distinctTuples.toSet
  private val tupleKeys: Array[Long] = distinctTuples.map(t => Xash.tupleKey(t)).toArray
  private def colValues(i: Int): Seq[String] = distinctTuples.map(_(i)).distinct

  override def seekerType: SeekerType = SeekerType.MC
  override val queryValues: Seq[String] = distinctTuples.flatten.distinct

  /** Average frequency for MC multiplies per-column averages — the SQL
    * phase joins the per-column index hits (paper §VII-B).
    */
  override def features(idx: AllTables): SeekerFeatures = {
    val freqProduct = (0 until nQueryCols)
      .map(i => math.max(1.0, idx.avgFrequency(colValues(i))))
      .product
    SeekerFeatures(queryValues.size.toDouble, nQueryCols.toDouble, freqProduct)
  }

  /** Phase-1 SQL: one index scan per query column, joined on (TableId,
    * RowId) with pairwise-distinct ColumnIds. Output columns: TableId,
    * RowId, SuperKey, v0..v{x-1}.
    */
  def candidateDF(idx: AllTables, ir: Option[Ir] = None): DataFrame = {
    // The rewrite predicate restricts the first column's hits (as in the
    // paper's Example 2: `WHERE Q1_index_hits.TableId IN (IR)`); the
    // equi-join on TableId propagates the restriction to the other scans.
    def hits(i: Int): DataFrame = {
      val h = idx.df.where(col("CellValue").isin(colValues(i): _*))
      val restricted = if (i == 0) withIr(h, ir) else h
      restricted.select(
        col("TableId"), col("RowId"), col("SuperKey"),
        col("ColumnId").as(s"c$i"), col("CellValue").as(s"v$i"))
    }

    var joined = hits(0)
    for (i <- 1 until nQueryCols) {
      val h = hits(i).drop("SuperKey")
      joined = joined.join(h, Seq("TableId", "RowId"))
      for (j <- 0 until i)
        joined = joined.where(col(s"c$j") =!= col(s"c$i"))
    }
    joined
  }

  /** Full MC pipeline with the paper's application-level phase. */
  def runDetailed(idx: AllTables, ir: Option[Ir] = None): McDetails = {
    val rows = candidateDF(idx, ir)
      .select(
        Seq(col("TableId"), col("RowId"), col("SuperKey")) ++
          (0 until nQueryCols).map(i => col(s"v$i")): _*)
      .collect()

    // Application level: super-key bloom filter, then exact validation.
    // One candidate per (table, row); a row is a true positive if any of
    // its matched value combinations is an actual query tuple.
    final case class Cand(tableId: Long, rowId: Int, exact: Boolean)
    val cands = rows
      .groupBy(r => (r.getLong(0), r.getInt(1)))
      .iterator
      .flatMap { case ((tid, rid), rs) =>
        val superKey = rs.head.getLong(2)
        if (!tupleKeys.exists(tk => Xash.mayContain(superKey, tk))) None
        else {
          val exact = rs.exists { r =>
            val vs = (0 until nQueryCols).map(i => r.getString(3 + i)).toVector
            tupleSet.contains(vs)
          }
          Some(Cand(tid, rid, exact))
        }
      }
      .toVector

    val tp = cands.count(_.exact).toLong
    val fp = cands.size.toLong - tp

    val ranking = cands
      .filter(_.exact)
      .groupBy(_.tableId)
      .map { case (tid, cs) => Scored(tid, cs.size.toDouble) }
      .toSeq
      .sortBy(s => (-s.score, s.tableId))
    McDetails(ranking, cands.size.toLong, tp, fp)
  }

  override def run(idx: AllTables, ir: Option[Ir]): Seq[Scored] =
    runDetailed(idx, ir).ranking
}

/** Correlation seeker (paper Listing 3): joins query-key index hits with
  * numerical-cell index hits of the same rows and scores each (table,
  * join-column, numerical-column) triplet by |QCR| = |2·(n_I+n_III) − N|/N.
  *
  * `keys`/`targets` are the two query columns (Q_j, R); the k0/k1 split by
  * the target average happens here, "while parsing the input table". Both
  * index sub-queries sample h rows via `RowId < h` — the convenience
  * sampling of the paper; BLEND (rand) is obtained by building the index
  * over an apriori-shuffled lake, not by changing this query.
  */
final case class CorrSeeker(
    label: String,
    keys: Seq[String],
    targets: Seq[Double],
    h: Int = 64,
    k: Int = 10,
    minSupport: Int = 3,
) extends Seeker {
  require(keys.length == targets.length && keys.nonEmpty, "C seeker needs aligned key/target columns")

  override def seekerType: SeekerType = SeekerType.C
  override def nQueryCols: Int = 2

  /** Per-key mean target, split at the target column's average. */
  private val keyMeans: Map[String, Double] =
    keys.zip(targets).groupBy(_._1).map { case (key, kvs) =>
      key -> kvs.map(_._2).sum / kvs.size
    }
  private val targetAvg: Double = targets.sum / targets.size
  val k1Keys: Seq[String] = keyMeans.collect { case (key, m) if m >= targetAvg => key }.toSeq.sorted
  val k0Keys: Seq[String] = keyMeans.collect { case (key, m) if m < targetAvg => key }.toSeq.sorted

  override val queryValues: Seq[String] = keyMeans.keys.toSeq.sorted

  def resultDF(idx: AllTables, ir: Option[Ir] = None): DataFrame = {
    val keySide = withIr(
      idx.df.where(col("CellValue").isin(queryValues: _*) && col("RowId") < h), ir)
      .select(
        col("TableId"), col("RowId"), col("ColumnId").as("jc"),
        when(col("CellValue").isin(k1Keys: _*), 1).otherwise(0).as("kq"))
    val numSide = withIr(
      idx.df.where(col("Quadrant").isNotNull && col("RowId") < h), ir)
      .select(col("TableId"), col("RowId"), col("ColumnId").as("nc"), col("Quadrant"))

    keySide
      .join(numSide, Seq("TableId", "RowId"))
      .where(col("jc") =!= col("nc"))
      .groupBy("TableId", "jc", "nc")
      .agg(
        count(lit(1)).as("N"),
        sum(
          when((col("kq") === 1 && col("Quadrant")) || (col("kq") === 0 && !col("Quadrant")), 1)
            .otherwise(0)).as("agree"))
      .where(col("N") >= minSupport)
      .withColumn("qcr", abs(lit(2) * col("agree") - col("N")) / col("N"))
      .groupBy("TableId")
      .agg(max("qcr").as("score"))
  }

  override def run(idx: AllTables, ir: Option[Ir]): Seq[Scored] =
    collectScored(resultDF(idx, ir))
}
