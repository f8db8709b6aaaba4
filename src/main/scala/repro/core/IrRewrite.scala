package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.catalyst.plans.logical.{Filter, LogicalPlan}
import org.apache.spark.sql.catalyst.rules.Rule
import org.apache.spark.sql.catalyst.util.TypeUtils
import org.apache.spark.sql.execution.columnar.InMemoryRelation
import org.apache.spark.sql.types.{BooleanType, DataType, StringType}

/** Catalyst-level implementation of BLEND's intermediate-result query
  * rewriting (paper §VII-B, "Query rewriting").
  *
  * Each seeker's default query contains a placeholder predicate
  * `blend_ir(<slot>, TableId)`. Before the executor fires the query it
  * stores the intermediate result (the table ids produced by the previously
  * executed seeker of the same execution group) in [[IrRegistry]] under the
  * slot name. [[IrPushdownRule]], injected via
  * `spark.experimental.extraOptimizations`, then replaces the placeholder at
  * logical-optimization time with the combiner-dependent predicate of the
  * paper:
  *
  *  - Intersection:  `TableId IN (...)`
  *  - Difference:    `TableId NOT IN (...)`
  *  - no entry:      literal TRUE (seeker runs unrestricted)
  *
  * An un-rewritten placeholder evaluates to TRUE, so the rewriting is a pure
  * optimization: plan results never depend on whether the rule fired
  * (Theorem 1 of the paper).
  */
final case class IrPlaceholder(slot: Expression, child: Expression)
    extends BinaryExpression with Predicate with CodegenFallback {

  override def left: Expression = slot
  override def right: Expression = child
  override def dataType: DataType = BooleanType
  override def nullable: Boolean = false

  // Fallback semantics when the rule did not fire: no pruning.
  override def eval(input: InternalRow): Any = true

  override protected def withNewChildrenInternal(
      newLeft: Expression, newRight: Expression): IrPlaceholder =
    copy(slot = newLeft, child = newRight)

  override def prettyName: String = "blend_ir"
}

/** An intermediate result bound to a rewrite slot.
  *
  * @param ids    table ids produced by the previously executed operator
  * @param negate true for Difference (`NOT IN`), false for Intersection
  */
final case class Ir(ids: Seq[Long], negate: Boolean)

/** Process-wide registry of rewrite slots, filled by the executor right
  * before it triggers the action that runs the rewritten seeker.
  */
object IrRegistry {
  private val slots = new ConcurrentHashMap[String, Ir]()
  private val counter = new AtomicLong(0L)

  def freshSlot(prefix: String): String = s"$prefix-${counter.incrementAndGet()}"
  def put(slot: String, ir: Ir): Unit = { slots.put(slot, ir); () }
  def get(slot: String): Option[Ir] = Option(slots.get(slot))
  def remove(slot: String): Unit = { slots.remove(slot); () }
  def clear(): Unit = slots.clear()
}

/** The optimizer rule: replaces every [[IrPlaceholder]] whose slot has a
  * registered intermediate result with the corresponding IN / NOT IN list.
  */
object IrPushdownRule extends Rule[LogicalPlan] {

  /** Large id lists become `InSet` directly (the main optimizer's
    * `OptimizeIn` batch has already run by the time extraOptimizations
    * fire, so a long `In` literal list would be evaluated by linear scan).
    */
  private def inList(child: Expression, ids: Seq[Long]): Expression =
    if (ids.size > 10) InSet(child, ids.map(java.lang.Long.valueOf(_): Any).toSet)
    else In(child, ids.map(Literal(_)))

  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformAllExpressions {
    case IrPlaceholder(Literal(slot, StringType), child) =>
      IrRegistry.get(slot.toString) match {
        case Some(Ir(ids, false)) =>
          // Intersecting with an empty result is empty.
          if (ids.isEmpty) Literal.FalseLiteral
          else inList(child, ids)
        case Some(Ir(ids, true)) =>
          if (ids.isEmpty) Literal.TrueLiteral
          else Not(inList(child, ids))
        case None => Literal.TrueLiteral
      }
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
  * function (via the session's function registry, so plain SQL and
  * `call_function` can produce it), injects [[IrPushdownRule]] and
  * [[InSetPruningTwin]] into the experimental optimizer extensions, and
  * lets joins on (TableId, RowId) run co-partitioned on the index's
  * TableId layout (see [[AllTables]]) instead of shuffling both sides.
  */
object BlendSession {
  private val rules = Seq(IrPushdownRule, InSetPruningTwin)

  def install(spark: SparkSession): Unit = synchronized {
    spark.sessionState.functionRegistry.createOrReplaceTempFunction(
      "blend_ir",
      (exprs: Seq[Expression]) => {
        require(exprs.length == 2, "blend_ir(slot, TableId) takes two arguments")
        IrPlaceholder(exprs.head, exprs(1))
      },
      "built-in",
    )
    val missing = rules.filterNot(spark.experimental.extraOptimizations.contains)
    if (missing.nonEmpty) {
      spark.experimental.extraOptimizations = spark.experimental.extraOptimizations ++ missing
    }
    spark.conf.set("spark.sql.requireAllClusterKeysForCoPartition", "false")
  }
}
