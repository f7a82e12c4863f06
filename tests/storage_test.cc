// Copyright 2026 The QPSeeker Authors

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "storage/csv.h"
#include "storage/datagen.h"
#include "storage/schemas.h"
#include "util/rng.h"

namespace qps {
namespace storage {
namespace {

std::unique_ptr<Database> BuildToy(int64_t base_rows = 200, uint64_t seed = 1) {
  Rng rng(seed);
  auto db = BuildDatabase(ToySpec(), base_rows, &rng);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

TEST(TableTest, ColumnsAndRows) {
  auto db = BuildToy();
  const int a = db->TableIndex("a");
  ASSERT_GE(a, 0);
  const Table& t = db->table(a);
  EXPECT_EQ(t.num_rows(), 200);
  EXPECT_EQ(t.num_columns(), 2);
  EXPECT_EQ(t.ColumnIndex("id"), 0);
  EXPECT_EQ(t.ColumnIndex("a2"), 1);
  EXPECT_EQ(t.ColumnIndex("nope"), -1);
}

TEST(TableTest, PrimaryKeyIsSequential) {
  auto db = BuildToy();
  const Table& t = db->table(db->TableIndex("a"));
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(t.column(0).GetInt(r), r);
  }
}

TEST(TableTest, ForeignKeyInParentRange) {
  auto db = BuildToy();
  const Table& b = db->table(db->TableIndex("b"));
  const Table& a = db->table(db->TableIndex("a"));
  const int fk = b.ColumnIndex("b1");
  ASSERT_GE(fk, 0);
  for (int64_t r = 0; r < b.num_rows(); ++r) {
    const int64_t v = b.column(fk).GetInt(r);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, a.num_rows());
  }
}

TEST(TableTest, OrderedIndexIsSorted) {
  auto db = BuildToy();
  const Table& b = db->table(db->TableIndex("b"));
  const int col = b.ColumnIndex("b3");
  const auto& perm = b.OrderedIndex(col);
  ASSERT_EQ(perm.size(), static_cast<size_t>(b.num_rows()));
  for (size_t i = 1; i < perm.size(); ++i) {
    EXPECT_LE(b.column(col).GetDouble(perm[i - 1]), b.column(col).GetDouble(perm[i]));
  }
  // Permutation property.
  std::set<uint32_t> uniq(perm.begin(), perm.end());
  EXPECT_EQ(uniq.size(), perm.size());
}

// OrderedIndex is built lazily inside a const accessor, so threads sharing
// a table race to build it. Every thread must get the one cached, sorted
// permutation of each column. Run under TSan in tier-1.
TEST(TableTest, OrderedIndexIsSafeToBuildConcurrently) {
  auto db = BuildToy(400);
  const Table& b = db->table(db->TableIndex("b"));
  const int ncols = static_cast<int>(b.num_columns());
  ASSERT_GE(ncols, 3);
  constexpr int kThreads = 4;
  std::vector<std::vector<const std::vector<uint32_t>*>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Staggered column order, so threads build different indexes at once.
      for (int k = 0; k < ncols; ++k) {
        got[static_cast<size_t>(t)].push_back(&b.OrderedIndex((k + t) % ncols));
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int c = 0; c < ncols; ++c) {
    const std::vector<uint32_t>* first = got[0][static_cast<size_t>(c)];
    for (int t = 1; t < kThreads; ++t) {
      const size_t k = static_cast<size_t>((c - t + ncols) % ncols);
      EXPECT_EQ(got[static_cast<size_t>(t)][k], first) << "column " << c;
    }
    ASSERT_EQ(first->size(), static_cast<size_t>(b.num_rows()));
    for (size_t i = 1; i < first->size(); ++i) {
      ASSERT_LE(b.column(c).GetDouble((*first)[i - 1]),
                b.column(c).GetDouble((*first)[i]))
          << "column " << c;
    }
    EXPECT_EQ(std::set<uint32_t>(first->begin(), first->end()).size(),
              first->size());
  }
}

TEST(TableTest, BlockAndIndexModel) {
  auto db = BuildToy(1000);
  const Table& b = db->table(db->TableIndex("b"));
  EXPECT_EQ(b.num_rows(), 2000);
  EXPECT_EQ(b.num_blocks(), (2000 + kRowsPerBlock - 1) / kRowsPerBlock);
  EXPECT_GE(b.IndexHeight(), 1);
  EXPECT_GE(b.IndexLeafPages(), 1);
}

TEST(DatabaseTest, JoinGraphFromForeignKeys) {
  auto db = BuildToy();
  // b.b1 -> a.id and c.c1 -> b.id.
  ASSERT_EQ(db->join_edges().size(), 2u);
  const int a = db->TableIndex("a"), b = db->TableIndex("b"), c = db->TableIndex("c");
  EXPECT_GE(db->FindJoinEdge(b, db->table(b).ColumnIndex("b1"), a, 0), 0);
  EXPECT_GE(db->FindJoinEdge(a, 0, b, db->table(b).ColumnIndex("b1")), 0)
      << "edge lookup must be orientation-insensitive";
  EXPECT_GE(db->FindJoinEdge(c, db->table(c).ColumnIndex("c1"), b, 0), 0);
  EXPECT_EQ(db->FindJoinEdge(a, 0, c, 0), -1);
}

TEST(DatabaseTest, DeterministicForSeed) {
  auto db1 = BuildToy(100, 7);
  auto db2 = BuildToy(100, 7);
  const Table& t1 = db1->table(db1->TableIndex("b"));
  const Table& t2 = db2->table(db2->TableIndex("b"));
  for (int64_t r = 0; r < t1.num_rows(); ++r) {
    EXPECT_EQ(t1.column(1).GetInt(r), t2.column(1).GetInt(r));
  }
}

TEST(DatabaseTest, DifferentSeedsDiffer) {
  auto db1 = BuildToy(100, 7);
  auto db2 = BuildToy(100, 8);
  const Table& t1 = db1->table(db1->TableIndex("b"));
  const Table& t2 = db2->table(db2->TableIndex("b"));
  int diff = 0;
  for (int64_t r = 0; r < t1.num_rows(); ++r) {
    diff += t1.column(1).GetInt(r) != t2.column(1).GetInt(r);
  }
  EXPECT_GT(diff, 0);
}

TEST(DatagenTest, ZipfColumnIsSkewed) {
  Rng rng(3);
  DatabaseSpec spec;
  spec.name = "z";
  TableSpec t;
  t.name = "t";
  t.rel_rows = 1.0;
  ColumnSpec pk;
  pk.name = "id";
  pk.gen = GenKind::kPrimaryKey;
  ColumnSpec z;
  z.name = "z";
  z.gen = GenKind::kZipfInt;
  z.domain = 50;
  z.zipf_s = 1.3;
  t.columns = {pk, z};
  spec.tables = {t};
  auto db = BuildDatabase(spec, 5000, &rng);
  ASSERT_TRUE(db.ok());
  const Column& col = (*db)->table(0).column(1);
  int64_t zero_count = 0;
  for (int64_t r = 0; r < col.size(); ++r) zero_count += col.GetInt(r) == 0;
  // Rank-1 mass for Zipf(1.3) over 50 values is > 25%.
  EXPECT_GT(zero_count, col.size() / 5);
}

TEST(DatagenTest, CategoricalDictionarySortedAndResolvable) {
  auto db = BuildToy();
  // ToySpec has no string columns; build imdb-like tiny instead.
  Rng rng(5);
  auto imdb = BuildDatabase(ImdbLikeSpec(), 500, &rng);
  ASSERT_TRUE(imdb.ok()) << imdb.status().ToString();
  const Table& kt = (*imdb)->table((*imdb)->TableIndex("kind_type"));
  const Column& kind = kt.column(kt.ColumnIndex("kind"));
  ASSERT_FALSE(kind.dictionary().empty());
  for (size_t i = 1; i < kind.dictionary().size(); ++i) {
    EXPECT_LT(kind.dictionary()[i - 1], kind.dictionary()[i]);
  }
  EXPECT_EQ(kind.LookupDictCode(kind.dictionary()[0]), 0);
  EXPECT_EQ(kind.LookupDictCode("definitely-missing"), -1);
}

TEST(DatagenTest, FkToMissingParentFails) {
  Rng rng(1);
  DatabaseSpec spec;
  spec.name = "bad";
  TableSpec t;
  t.name = "child";
  ColumnSpec fk;
  fk.name = "pid";
  fk.gen = GenKind::kForeignKey;
  fk.ref_table = "ghost";
  t.columns = {fk};
  spec.tables = {t};
  EXPECT_FALSE(BuildDatabase(spec, 10, &rng).ok());
}

TEST(SchemasTest, ImdbHas21TablesAndConnectedGraph) {
  Rng rng(2);
  auto db = BuildDatabase(ImdbLikeSpec(), 300, &rng);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->num_tables(), 21);
  EXPECT_GE((*db)->join_edges().size(), 20u);
  EXPECT_GT((*db)->TotalRows(), 300 * 10);
}

TEST(SchemasTest, StackHas10Tables) {
  Rng rng(2);
  auto db = BuildDatabase(StackLikeSpec(), 300, &rng);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->num_tables(), 10);
  EXPECT_GE((*db)->join_edges().size(), 15u);
}

TEST(CsvTest, RoundTripPreservesDataAndSchema) {
  Rng rng(5);
  auto db = BuildDatabase(ImdbLikeSpec(), 120, &rng);
  ASSERT_TRUE(db.ok());
  const Table& original = (*db)->table((*db)->TableIndex("title"));
  const std::string path = "/tmp/qps_csv_roundtrip.csv";
  ASSERT_TRUE(ExportTableCsv(original, path).ok());
  auto loaded = ImportTableCsv("title", path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table& copy = **loaded;
  ASSERT_EQ(copy.num_rows(), original.num_rows());
  ASSERT_EQ(copy.num_columns(), original.num_columns());
  for (int c = 0; c < original.num_columns(); ++c) {
    EXPECT_EQ(copy.column(c).name(), original.column(c).name());
    EXPECT_EQ(copy.column(c).type(), original.column(c).type());
    EXPECT_EQ(copy.column_meta(c).is_primary_key, original.column_meta(c).is_primary_key);
    EXPECT_EQ(copy.column_meta(c).ref_table, original.column_meta(c).ref_table);
    for (int64_t r = 0; r < original.num_rows(); ++r) {
      EXPECT_EQ(copy.column(c).GetDouble(r), original.column(c).GetDouble(r))
          << "col " << c << " row " << r;
    }
  }
  std::remove(path.c_str());
}

TEST(CsvTest, RoundTripStringDictionary) {
  Rng rng(6);
  auto db = BuildDatabase(StackLikeSpec(), 80, &rng);
  ASSERT_TRUE(db.ok());
  const Table& site = (*db)->table((*db)->TableIndex("site"));
  const std::string path = "/tmp/qps_csv_strings.csv";
  ASSERT_TRUE(ExportTableCsv(site, path).ok());
  auto loaded = ImportTableCsv("site", path);
  ASSERT_TRUE(loaded.ok());
  const int c = site.ColumnIndex("site_name");
  const Column& a = site.column(c);
  const Column& b = (*loaded)->column(c);
  for (int64_t r = 0; r < site.num_rows(); ++r) {
    EXPECT_EQ(a.dictionary()[a.GetInt(r)], b.dictionary()[b.GetInt(r)]);
  }
  std::remove(path.c_str());
}

TEST(CsvTest, RejectsMalformedInput) {
  const std::string path = "/tmp/qps_csv_bad.csv";
  auto write = [&](const char* content) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(content, f);
    std::fclose(f);
  };
  write("");
  EXPECT_FALSE(ImportTableCsv("t", path).ok());
  write("x:int64\n1\n2,3\n");
  EXPECT_FALSE(ImportTableCsv("t", path).ok()) << "field count mismatch";
  write("x:int64\nnotanumber\n");
  EXPECT_FALSE(ImportTableCsv("t", path).ok()) << "bad integer";
  write("x:whatever\n1\n");
  EXPECT_FALSE(ImportTableCsv("t", path).ok()) << "unknown type";
  write("x:string\n\"unterminated\n");
  EXPECT_FALSE(ImportTableCsv("t", path).ok()) << "unterminated quote";
  std::remove(path.c_str());
}

TEST(CsvTest, QuotedStringsWithCommasAndQuotes) {
  const std::string path = "/tmp/qps_csv_quotes.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("name:string\n\"a,b\"\n\"say \"\"hi\"\"\"\n", f);
    std::fclose(f);
  }
  auto loaded = ImportTableCsv("t", path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Column& col = (*loaded)->column(0);
  ASSERT_EQ(col.size(), 2);
  EXPECT_EQ(col.dictionary()[col.GetInt(0)], "a,b");
  EXPECT_EQ(col.dictionary()[col.GetInt(1)], "say \"hi\"");
  std::remove(path.c_str());
}

TEST(ValueTest, CompareAndToString) {
  EXPECT_TRUE(CompareDoubles(1.0, CompareOp::kLt, 2.0));
  EXPECT_FALSE(CompareDoubles(2.0, CompareOp::kLt, 2.0));
  EXPECT_TRUE(CompareDoubles(2.0, CompareOp::kLe, 2.0));
  EXPECT_TRUE(CompareDoubles(2.0, CompareOp::kGe, 2.0));
  EXPECT_TRUE(CompareDoubles(3.0, CompareOp::kGt, 2.0));
  EXPECT_TRUE(CompareDoubles(3.0, CompareOp::kNe, 2.0));
  EXPECT_TRUE(CompareDoubles(2.0, CompareOp::kEq, 2.0));
  EXPECT_EQ(Value::Int(3).ToString(), "3");
  EXPECT_EQ(Value::Str("x").ToString(), "'x'");
  EXPECT_EQ(Value::Int(3).AsDouble(), 3.0);
}

}  // namespace
}  // namespace storage
}  // namespace qps
