package repro.core

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.{FunctionIdentifier, InternalRow}
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.catalyst.plans.logical.{Filter, LogicalPlan}
import org.apache.spark.sql.catalyst.rules.Rule
import org.apache.spark.sql.catalyst.util.{ArrayData, TypeUtils}
import org.apache.spark.sql.execution.columnar.InMemoryRelation
import org.apache.spark.sql.types.{ArrayType, BooleanType, DataType, LongType}

/** Catalyst-level implementation of BLEND's intermediate-result query
  * rewriting (paper §VII-B, "Query rewriting").
  *
  * A seeker query rewritten with an intermediate result (IR: the table ids
  * produced by the previously executed seeker of the same execution group)
  * contains the placeholder predicate `blend_ir(<ids>, <negate>, TableId)`.
  * The IR is an argument of the placeholder: the ids are an array literal
  * and the combiner a boolean literal, so the query carries its own IR and
  * no state outside the plan is read. [[IrPushdownRule]], injected via
  * `spark.experimental.extraOptimizations`, replaces the placeholder at
  * logical-optimization time with the combiner-dependent predicate of the
  * paper:
  *
  *  - Intersection:  `TableId IN (...)`, or FALSE for no ids
  *  - Difference:    `TableId NOT IN (...)`, or TRUE for no ids
  *
  * An un-rewritten placeholder evaluates to TRUE, so the rewriting is a pure
  * optimization: plan results never depend on whether the rule fired
  * (Theorem 1 of the paper).
  */
final case class IrPlaceholder(ids: Expression, negate: Expression, child: Expression)
    extends TernaryExpression with Predicate with CodegenFallback {

  override def first: Expression = ids
  override def second: Expression = negate
  override def third: Expression = child
  override def dataType: DataType = BooleanType
  override def nullable: Boolean = false

  // Fallback semantics when the rule did not fire: no pruning.
  override def eval(input: InternalRow): Any = true

  override protected def withNewChildrenInternal(
      newFirst: Expression, newSecond: Expression, newThird: Expression): IrPlaceholder =
    copy(ids = newFirst, negate = newSecond, child = newThird)

  override def prettyName: String = "blend_ir"
}

/** An intermediate result, the value a [[IrPlaceholder]] carries.
  *
  * @param ids    table ids produced by the previously executed operator
  * @param negate true for Difference (`NOT IN`), false for Intersection
  */
final case class Ir(ids: Seq[Long], negate: Boolean)

/** The optimizer rule: replaces every [[IrPlaceholder]] whose ids and
  * combiner are literals with the corresponding IN / NOT IN list.
  */
object IrPushdownRule extends Rule[LogicalPlan] {

  /** Large id lists become `InSet` directly, past the threshold the main
    * optimizer's `OptimizeIn` uses (that batch has already run by the time
    * extraOptimizations fire, so a long `In` literal list would be
    * evaluated by linear scan).
    */
  private def inList(child: Expression, ids: Array[Long]): Expression =
    if (ids.length > conf.optimizerInSetConversionThreshold) {
      InSet(child, ids.map(java.lang.Long.valueOf(_): Any).toSet)
    } else In(child, ids.toSeq.map(Literal(_)))

  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformAllExpressions {
    case IrPlaceholder(
        Literal(ids: ArrayData, ArrayType(LongType, false)), Literal(negate: Boolean, BooleanType), child) =>
      val list = ids.toLongArray()
      // Intersecting with an empty result is empty; excluding one is a no-op.
      if (list.isEmpty) Literal(negate)
      else if (negate) Not(inList(child, list))
      else inList(child, list)
  }
}

/** Lets value lookups prune the cached index. `OptimizeIn` turns every
  * `CellValue IN (...)` of more than ten values into an `InSet`, and the
  * cached-batch filter prunes batches on `In` and on comparisons but not on
  * `InSet`. So in a filter over a cached relation each `InSet` on
  * `CellValue` keeps its place, where it still does the row-level work by
  * hashing, and gets a twin appended that the scan prunes on and that is
  * evaluated only on the rows the `InSet` kept:
  *
  *  - up to [[maxTwinTerms]] values: `In` over the same literals;
  *  - more values: the sorted literals cut into at most [[maxTwinTerms]]
  *    runs, each twinned by the closed range from its first to its last
  *    value.
  *
  * The cached-batch filter expands a twin into one bounds check per term
  * and generates code for it in every task, so an `In` over hundreds of
  * literals costs more than the batches it skips; the ranges bound that
  * cost and still skip the batches outside them.
  *
  * Only a relation whose partitions hold at least two full batches on
  * average gets twins. With fewer, a lookup whose values spread over the
  * value range reads every batch anyway, and at best skips a partial last
  * batch, which saves less than the bounds checks cost.
  */
object InSetPruningTwin extends Rule[LogicalPlan] with PredicateHelper {

  val maxTwinTerms = 16

  private def twin(v: Expression, hset: Set[Any]): Option[Expression] = {
    val sorted = hset.toSeq.filter(_ != null)
      .sorted(TypeUtils.getInterpretedOrdering(v.dataType))
      .map(Literal(_, v.dataType))
    if (sorted.isEmpty) None
    else if (sorted.size <= maxTwinTerms) Some(In(v, sorted))
    else Some(sorted.grouped((sorted.size + maxTwinTerms - 1) / maxTwinTerms)
      .map(run => And(GreaterThanOrEqual(v, run.head), LessThanOrEqual(v, run.last)): Expression)
      .reduce(Or))
  }

  /** Whether the relation's partitions hold at least two full batches on
    * average, judged by the session's batch size; a relation that is not
    * cached yet counts as having several.
    */
  private def severalBatches(r: InMemoryRelation): Boolean = {
    val cache = r.cacheBuilder
    !cache.isCachedColumnBuffersLoaded ||
      cache.rowCountStats.value >= 2L * conf.columnBatchSize * cache.cachedColumnBuffers.getNumPartitions
  }

  override def apply(plan: LogicalPlan): LogicalPlan = plan.transform {
    case f @ Filter(condition, r: InMemoryRelation) if severalBatches(r) =>
      val conjuncts = splitConjunctivePredicates(condition)
      val twins = conjuncts
        .collect { case InSet(v: AttributeReference, hset) if v.name == "CellValue" => twin(v, hset) }
        .flatten
        .filterNot(t => conjuncts.exists(_.semanticEquals(t)))
      if (twins.isEmpty) f else f.copy(condition = (conjuncts ++ twins).reduce(And))
  }
}

/** Installs BLEND into a SparkSession: registers the `blend_ir` placeholder
  * function once (via the session's function registry, so plain SQL and
  * `call_function` can produce it), injects [[IrPushdownRule]] and
  * [[InSetPruningTwin]] into the experimental optimizer extensions, and
  * lets joins on (TableId, RowId) run co-partitioned on the index's
  * TableId layout (see [[AllTables]]) instead of shuffling both sides.
  */
object BlendSession {
  private val rules = Seq(IrPushdownRule, InSetPruningTwin)

  def install(spark: SparkSession): Unit = synchronized {
    val functions = spark.sessionState.functionRegistry
    if (!functions.functionExists(FunctionIdentifier("blend_ir"))) {
      functions.createOrReplaceTempFunction(
        "blend_ir",
        (exprs: Seq[Expression]) => {
          require(exprs.length == 3, "blend_ir(ids, negate, TableId) takes three arguments")
          IrPlaceholder(exprs.head, exprs(1), exprs(2))
        },
        "built-in",
      )
    }
    val missing = rules.filterNot(spark.experimental.extraOptimizations.contains)
    if (missing.nonEmpty) {
      spark.experimental.extraOptimizations = spark.experimental.extraOptimizations ++ missing
    }
    spark.conf.set("spark.sql.requireAllClusterKeysForCoPartition", "false")
  }
}
