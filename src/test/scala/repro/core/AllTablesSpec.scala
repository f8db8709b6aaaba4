package repro.core

import org.apache.spark.sql.functions._

import repro.{Fixtures, SparkSpec}

class AllTablesSpec extends SparkSpec {

  private lazy val idx = Fixtures.fig1Index

  /** The index's row multiset, as sorted row strings. */
  private def rowStrings(index: AllTables): Seq[String] = index.df.collect().map(_.toString).toSeq.sorted

  test("index has one row per lake cell") {
    assert(idx.nCells == Fixtures.fig1Lake.nCells)
    assert(idx.nCells == 36) // T1: 6, T2: 18, T3: 12
  }

  test("schema matches the paper's AllTables layout") {
    assert(idx.df.columns.toSeq ==
      Seq("CellValue", "TableId", "ColumnId", "RowId", "SuperKey", "Quadrant"))
  }

  test("quadrant is null for non-numerical cells") {
    val stringCells = idx.df.where(col("CellValue") === "Finance")
    assert(stringCells.count() == 3)
    assert(stringCells.where(col("Quadrant").isNotNull).count() == 0)
  }

  test("quadrant encodes value >= column average") {
    // T1.Size = [31, 28, 33], avg 30.67 -> true, false, true.
    val rows = idx.df
      .where(col("TableId") === 0 && col("ColumnId") === 1)
      .select("RowId", "Quadrant")
      .collect()
      .map(r => r.getInt(0) -> r.getBoolean(1))
      .toMap
    assert(rows == Map(0 -> true, 1 -> false, 2 -> true))
  }

  test("constant numerical columns put every cell in the upper quadrant") {
    // T2.Year is constant 2022; every value equals the average.
    val q = idx.df
      .where(col("TableId") === 1 && col("ColumnId") === 1)
      .select("Quadrant").collect().map(_.getBoolean(0))
    assert(q.length == 6 && q.forall(identity))
  }

  test("super key equals the XASH key of the row's cells") {
    val expected = Xash.superKey(Fixtures.fig1Lake.table(0).row(0)) // ("Finance", "31")
    val got = idx.df
      .where(col("TableId") === 0 && col("RowId") === 0)
      .select("SuperKey").distinct().collect()
    assert(got.length == 1)
    assert(got.head.getLong(0) == expected)
  }

  test("all cells of a row share the same super key") {
    val distinctPerRow = idx.df
      .groupBy("TableId", "RowId")
      .agg(countDistinct("SuperKey").as("n"))
      .where(col("n") > 1)
    assert(distinctPerRow.count() == 0)
  }

  test("value frequencies count index occurrences") {
    assert(idx.valueFreq("Harry Potter") == 2L) // T2 and T3
    assert(idx.valueFreq("HR") == 3L)           // T1, T2, T3
    assert(idx.valueFreq("Tom Riddle") == 1L)
  }

  test("avgFrequency treats unknown values as zero") {
    assert(idx.avgFrequency(Seq("HR", "no-such-value")) == 1.5)
    assert(idx.avgFrequency(Seq.empty) == 0.0)
  }

  test("save/load roundtrip preserves contents") {
    val dir = java.nio.file.Files.createTempDirectory("alltables").toString + "/idx"
    AllTables.save(idx, dir)
    val loaded = AllTables.load(spark, dir)
    assert(loaded.nCells == idx.nCells)
    assert(loaded.valueFreq == idx.valueFreq)
    assert(rowStrings(loaded) == rowStrings(idx))
    val sc = ScSeeker("sc", Seq("HR", "Marketing", "Finance", "IT", "R&D", "Sales"))
    val df = sc.resultDF(loaded, None)
    assert(PlanShapeSpec.shuffles(df).isEmpty, s"plan over the loaded index shuffles:\n${df.queryExecution.executedPlan}")
    assert(sc.run(loaded) == sc.run(idx))
    loaded.unpersist()
  }

  test("cellsDF holds exactly the lake's cells") {
    val lake = Fixtures.mixed.lake
    val expected = for {
      t <- lake.tables
      (c, ci) <- t.columns.zipWithIndex
      r <- c.values.indices
    } yield (t.id, ci, r, c.values(r), c.numeric.map(_(r)))
    val got = lake.cellsDF(spark).collect().toVector.map { row =>
      (row.getLong(0), row.getInt(1), row.getInt(2), row.getString(3),
        if (row.isNullAt(4)) None else Some(row.getDouble(4)))
    }
    assert(got.sortBy(_.toString) == expected.sortBy(_.toString))
  }

  test("index build is deterministic for a fixed lake") {
    val again = AllTables.build(spark, Fixtures.fig1Lake.cellsDF(spark))
    assert(again.nCells == idx.nCells)
    assert(again.valueFreq == idx.valueFreq)
    assert(rowStrings(again) == rowStrings(idx))
    again.unpersist()
  }
}
