// Copyright 2026 The QPSeeker Authors
//
// The planner fuzzing subsystem under test, plus the regression-corpus
// replay that keeps every minimized oracle violation fixed forever:
//   - mutator invariants: every mutant is valid, connected, and SQL
//     round-trippable (the corpus format),
//   - behavior signatures: deterministic, alias-insensitive plan shape
//     hashing, sane q-error deciles,
//   - the differential oracle accepts the healthy planner stack,
//   - minimizer shrinks to a still-failing smaller query,
//   - a mini fixed-seed campaign finds signatures and zero violations,
//   - two same-seed campaigns write byte-identical corpora,
//   - every checked-in corpus entry replays clean (tier-1 gate).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/planner_backends.h"
#include "core/qpseeker.h"
#include "eval/workloads.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "fuzz/minimizer.h"
#include "fuzz/mutator.h"
#include "fuzz/oracle.h"
#include "fuzz/seed_queue.h"
#include "fuzz/signature.h"
#include "query/parser.h"
#include "storage/schemas.h"
#include "util/io.h"

#ifndef QPS_CORPUS_DIR
#define QPS_CORPUS_DIR ""
#endif

namespace qps {
namespace {

// Iteration budget: quick in the default ctest run, deeper when tier1.sh
// exports QPS_FUZZ_ITERS (same convention as serialize_fuzz_test).
int64_t FuzzIters(int64_t quick_default) {
  const char* env = std::getenv("QPS_FUZZ_ITERS");
  if (env != nullptr && *env != '\0') return std::atoll(env);
  return quick_default;
}

struct FuzzFixture {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<stats::DatabaseStats> stats;
  std::unique_ptr<optimizer::Planner> baseline;
  std::unique_ptr<core::QpSeeker> model;
  std::vector<query::Query> seeds;

  static const FuzzFixture& Get() {
    static FuzzFixture* f = [] {
      auto* fx = new FuzzFixture();
      Rng rng(1);
      fx->db = storage::BuildDatabase(storage::ToySpec(), 300, &rng).value();
      fx->stats = stats::DatabaseStats::Analyze(*fx->db);
      fx->baseline =
          std::make_unique<optimizer::Planner>(*fx->db, *fx->stats);

      eval::WorkloadOptions wopts;
      wopts.num_queries = 10;
      wopts.max_joins = 2;
      Rng wrng(3);
      fx->seeds = eval::GenerateWorkload(*fx->db, wopts, &wrng);

      sampling::DatasetOptions dopts;
      dopts.source = sampling::PlanSource::kSampled;
      dopts.sampler.max_plans_per_query = 4;
      Rng drng(2);
      auto ds = sampling::BuildQepDataset(*fx->db, *fx->stats, fx->seeds,
                                          dopts, &drng)
                    .value();
      fx->model = std::make_unique<core::QpSeeker>(
          *fx->db, *fx->stats, core::QpSeekerConfig::ForScale(Scale::kSmoke),
          3);
      core::TrainOptions topts;
      topts.epochs = 6;
      fx->model->Train(ds, topts);
      return fx;
    }();
    return *f;
  }

  fuzz::FuzzOptions CampaignOptions(uint64_t seed, int64_t iters) const {
    fuzz::FuzzOptions fopts;
    fopts.seed = seed;
    fopts.iters = iters;
    fopts.oracle.guarded.hybrid.mcts.max_rollouts = 6;
    return fopts;
  }
};

// ---- mutator invariants -----------------------------------------------------

TEST(QueryMutatorTest, MutantsAreValidConnectedAndRoundTrip) {
  const auto& fx = FuzzFixture::Get();
  fuzz::QueryMutator mutator(*fx.db, *fx.stats);
  Rng rng(11);
  std::map<fuzz::MutationKind, int> kinds;
  int produced = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const query::Query& seed =
        fx.seeds[static_cast<size_t>(iter) % fx.seeds.size()];
    fuzz::MutationKind kind;
    auto mutant = mutator.Mutate(seed, &rng, &kind);
    if (!mutant.has_value()) continue;
    ++produced;
    ++kinds[kind];
    ASSERT_TRUE(mutant->Validate(*fx.db).ok())
        << fuzz::MutationKindName(kind) << ": " << mutant->ToSql(*fx.db);
    ASSERT_TRUE(mutant->IsConnected());
    // The corpus persists SQL, so every mutant must round-trip through the
    // parser to an equally valid query.
    auto reparsed = query::ParseSql(mutant->ToSql(*fx.db), *fx.db);
    ASSERT_TRUE(reparsed.ok())
        << fuzz::MutationKindName(kind) << ": " << mutant->ToSql(*fx.db)
        << " -> " << reparsed.status().ToString();
    EXPECT_EQ(reparsed->num_relations(), mutant->num_relations());
    EXPECT_EQ(reparsed->joins.size(), mutant->joins.size());
    EXPECT_EQ(reparsed->filters.size(), mutant->filters.size());
  }
  EXPECT_GT(produced, 250);
  // The campaign should exercise a healthy spread of mutation classes.
  EXPECT_GE(kinds.size(), 6u);
}

TEST(QueryMutatorTest, RespectsGrowthLimits) {
  const auto& fx = FuzzFixture::Get();
  fuzz::MutatorOptions mopts;
  mopts.max_relations = 3;
  mopts.max_filters = 2;
  fuzz::QueryMutator mutator(*fx.db, *fx.stats, mopts);
  Rng rng(13);
  query::Query q = fx.seeds[0];
  // The caps stop *growth*: a seed already above a cap may keep its size,
  // but a mutation chain must never push past max(seed size, cap).
  const int max_relations = std::max(q.num_relations(), mopts.max_relations);
  const size_t max_filters =
      std::max(q.filters.size(), static_cast<size_t>(mopts.max_filters));
  for (int iter = 0; iter < 200; ++iter) {
    auto mutant = mutator.Mutate(q, &rng);
    if (!mutant.has_value()) continue;
    EXPECT_LE(mutant->num_relations(), max_relations);
    EXPECT_LE(mutant->filters.size(), max_filters);
    q = std::move(*mutant);  // walk a mutation chain, not just one step
  }
}

// ---- signatures -------------------------------------------------------------

TEST(SignatureTest, QErrorDeciles) {
  EXPECT_EQ(fuzz::QErrorDecile(100.0, 100.0), 0);
  EXPECT_EQ(fuzz::QErrorDecile(100.0, 150.0), 1);
  EXPECT_EQ(fuzz::QErrorDecile(10.0, 10000.0), 9);
  EXPECT_EQ(fuzz::QErrorDecile(0.0, 0.0), 0);  // +1 smoothing
  EXPECT_EQ(fuzz::QErrorDecile(std::nan(""), 10.0), 9);
}

TEST(SignatureTest, AliasFreeShapeHashIsAliasInsensitive) {
  const auto& fx = FuzzFixture::Get();
  auto q1 = query::ParseSql(
      "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id;", *fx.db);
  auto q2 = query::ParseSql(
      "SELECT COUNT(*) FROM b bb, a aa WHERE bb.b1 = aa.id;", *fx.db);
  ASSERT_TRUE(q1.ok() && q2.ok());
  auto plan_for = [](const query::Query& q, const std::vector<int>& order) {
    std::vector<query::OpType> scans(order.size(), query::OpType::kSeqScan);
    std::vector<query::OpType> joins(order.size() - 1,
                                     query::OpType::kHashJoin);
    return query::BuildLeftDeepPlan(q, order, scans, joins);
  };
  // q1: a is relation 0; q2: a is relation 1. Same physical shape.
  auto p1 = plan_for(*q1, {0, 1});
  auto p2 = plan_for(*q2, {1, 0});
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(fuzz::AliasFreeShapeHash(*q1, *p1),
            fuzz::AliasFreeShapeHash(*q2, *p2));
  // A different operator changes the shape.
  auto p3 = plan_for(*q1, {0, 1});
  p3->op = query::OpType::kMergeJoin;
  EXPECT_NE(fuzz::AliasFreeShapeHash(*q1, *p1),
            fuzz::AliasFreeShapeHash(*q1, *p3));
}

TEST(SignatureTest, CoverageMapDeduplicates) {
  fuzz::CoverageMap map;
  EXPECT_TRUE(map.Add(42));
  EXPECT_FALSE(map.Add(42));
  EXPECT_TRUE(map.Add(43));
  EXPECT_EQ(map.size(), 2u);
}

// ---- seed queue / searchers -------------------------------------------------

TEST(SeedQueueTest, SearchersPickAllSeedsEventually) {
  for (const char* name : {"roundrobin", "novelty"}) {
    auto searcher = fuzz::MakeSearcher(name);
    ASSERT_TRUE(searcher.ok());
    fuzz::SeedQueue queue;
    query::Query q;
    q.relations = {{0, "a"}};
    for (int i = 0; i < 5; ++i) {
      queue.Add(fuzz::Seed{q, static_cast<uint64_t>(i), 0, 0, 0, 0});
    }
    Rng rng(1);
    for (int i = 0; i < 200; ++i) queue.Pick(searcher->get(), &rng);
    for (size_t i = 0; i < queue.size(); ++i) {
      EXPECT_GT(queue.at(i).executions, 0) << name << " starved seed " << i;
    }
  }
}

TEST(SeedQueueTest, NoveltySearcherFavorsProductiveSeeds) {
  auto searcher = fuzz::MakeSearcher("novelty");
  ASSERT_TRUE(searcher.ok());
  fuzz::SeedQueue queue;
  query::Query q;
  q.relations = {{0, "a"}};
  queue.Add(fuzz::Seed{q, 1, 0, 9, 2, 0});  // high yield
  queue.Add(fuzz::Seed{q, 2, 0, 0, 0, 0});  // no yield
  Rng rng(7);
  int first = 0;
  const int kPicks = 400;
  for (int i = 0; i < kPicks; ++i) {
    fuzz::Seed& s = queue.Pick(searcher->get(), &rng);
    if (s.signature == 1) ++first;
    // Freeze the counters so the preference under test stays fixed.
    queue.at(0).executions = 0;
    queue.at(1).executions = 0;
  }
  EXPECT_GT(first, kPicks / 2);
}

TEST(SeedQueueTest, UnknownSearcherRejected) {
  EXPECT_FALSE(fuzz::MakeSearcher("dfs").ok());
}

// ---- differential oracle ----------------------------------------------------

TEST(DifferentialOracleTest, HealthyStackProducesNoViolations) {
  const auto& fx = FuzzFixture::Get();
  fuzz::OracleOptions oopts;
  oopts.guarded.hybrid.mcts.max_rollouts = 6;
  fuzz::DifferentialOracle oracle(*fx.db, fx.model.get(), fx.baseline.get(),
                                  oopts);
  for (const auto& q : fx.seeds) {
    fuzz::OracleReport report = oracle.Check(q, /*seed=*/99);
    EXPECT_TRUE(report.ok()) << report.violations.front().ToString();
    EXPECT_EQ(report.probes.size(), oopts.backends.size());
    EXPECT_NE(report.signature, 0u);
    for (const auto& probe : report.probes) {
      EXPECT_NE(probe.plan_shape_hash, 0u);
      EXPECT_GE(probe.actual_rows, 0.0) << probe.backend;
    }
  }
}

TEST(DifferentialOracleTest, DeterministicForFixedSeed) {
  const auto& fx = FuzzFixture::Get();
  fuzz::OracleOptions oopts;
  oopts.guarded.hybrid.mcts.max_rollouts = 6;
  fuzz::DifferentialOracle oracle(*fx.db, fx.model.get(), fx.baseline.get(),
                                  oopts);
  const query::Query& q = fx.seeds[0];
  EXPECT_EQ(oracle.Check(q, 5).signature, oracle.Check(q, 5).signature);
}

// ---- minimizer --------------------------------------------------------------

TEST(MinimizerTest, ShrinksToSmallestStillFailingQuery) {
  const auto& fx = FuzzFixture::Get();
  auto q = query::ParseSql(
      "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id AND "
      "a.a2 > 3 AND b.b3 < 9 AND c.c2 = 7;",
      *fx.db);
  ASSERT_TRUE(q.ok());
  // Synthetic violation: "fails whenever table b is present".
  auto touches_b = [&](const query::Query& candidate) {
    for (const auto& rel : candidate.relations) {
      if (fx.db->table(rel.table_id).name() == "b") return true;
    }
    return false;
  };
  fuzz::Minimizer minimizer(*fx.db);
  query::Query small = minimizer.Minimize(*q, touches_b);
  EXPECT_TRUE(touches_b(small));
  EXPECT_EQ(small.num_relations(), 1);
  EXPECT_TRUE(small.filters.empty());
  EXPECT_TRUE(small.Validate(*fx.db).ok());
}

// ---- corpus I/O -------------------------------------------------------------

TEST(CorpusTest, WriteLoadRoundTrip) {
  const auto& fx = FuzzFixture::Get();
  const std::string dir = testing::TempDir() + "qps_corpus_roundtrip";
  std::filesystem::remove_all(dir);
  auto q = query::ParseSql(
      "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id AND a.a2 > 3;", *fx.db);
  ASSERT_TRUE(q.ok());
  auto path = fuzz::WriteCorpusEntry(dir, *q, *fx.db, "result-mismatch", 42);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  // Idempotent: same query, same file.
  auto path2 = fuzz::WriteCorpusEntry(dir, *q, *fx.db, "result-mismatch", 42);
  ASSERT_TRUE(path2.ok());
  EXPECT_EQ(path.value(), path2.value());

  auto entries = fuzz::LoadCorpus(dir, *fx.db);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ(entries->front().violation, "result-mismatch");
  EXPECT_EQ(entries->front().query.num_relations(), 2);
}

TEST(CorpusTest, CorruptEntryFailsLoudly) {
  const auto& fx = FuzzFixture::Get();
  const std::string dir = testing::TempDir() + "qps_corpus_corrupt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/v-bad.sql") << "# violation: junk\nSELECT nope;\n";
  EXPECT_FALSE(fuzz::LoadCorpus(dir, *fx.db).ok());
}

// ---- campaigns --------------------------------------------------------------

TEST(FuzzCampaignTest, MiniCampaignFindsSignaturesAndNoViolations) {
  const auto& fx = FuzzFixture::Get();
  fuzz::Fuzzer fuzzer(*fx.db, *fx.stats, fx.model.get(), fx.baseline.get(),
                      fx.CampaignOptions(/*seed=*/42, FuzzIters(300)));
  auto report = fuzzer.Run(fx.seeds);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->oracle_violations, 0) << report->ToString();
  EXPECT_GE(report->distinct_signatures, 50u);
  EXPECT_GT(report->seeds_admitted, 0);
  EXPECT_GT(report->execs, 0);
}

TEST(FuzzCampaignTest, SameSeedWritesByteIdenticalCorpora) {
  const auto& fx = FuzzFixture::Get();
  // Two full campaigns with one seed: the reports must match line for line
  // and the corpus directories must hold byte-identical file sets (both
  // stay empty while the stack is healthy — equality covers either case).
  auto run = [&](const std::string& dir) {
    std::filesystem::remove_all(dir);
    fuzz::FuzzOptions fopts = fx.CampaignOptions(/*seed=*/7, FuzzIters(200));
    fopts.corpus_dir = dir;
    fuzz::Fuzzer fuzzer(*fx.db, *fx.stats, fx.model.get(), fx.baseline.get(),
                        fopts);
    auto report = fuzzer.Run(fx.seeds);
    EXPECT_TRUE(report.ok());
    return report.ok() ? report->ToString() : std::string();
  };
  const std::string dir_a = testing::TempDir() + "qps_fuzz_corpus_a";
  const std::string dir_b = testing::TempDir() + "qps_fuzz_corpus_b";
  const std::string report_a = run(dir_a);
  const std::string report_b = run(dir_b);
  EXPECT_EQ(report_a, report_b) << "campaigns must be seed-deterministic";

  auto dir_contents = [](const std::string& dir) {
    std::map<std::string, std::string> contents;
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec)) return contents;
    for (const auto& de : std::filesystem::directory_iterator(dir)) {
      contents[de.path().filename().string()] =
          io::ReadFileToString(de.path().string()).value_or("");
    }
    return contents;
  };
  EXPECT_EQ(dir_contents(dir_a), dir_contents(dir_b));
}

// ---- checked-in corpus replay (the tier-1 regression gate) ------------------

TEST(CorpusReplayTest, EveryCheckedInEntryReplaysClean) {
  const std::string dir = QPS_CORPUS_DIR;
  ASSERT_FALSE(dir.empty()) << "QPS_CORPUS_DIR not compiled in";
  const auto& fx = FuzzFixture::Get();
  auto entries = fuzz::LoadCorpus(dir, *fx.db);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();

  fuzz::OracleOptions oopts;
  oopts.guarded.hybrid.mcts.max_rollouts = 6;
  fuzz::DifferentialOracle oracle(*fx.db, fx.model.get(), fx.baseline.get(),
                                  oopts);
  for (const auto& entry : entries.value()) {
    ASSERT_TRUE(entry.query.Validate(*fx.db).ok()) << entry.path;
    fuzz::OracleReport report = oracle.Check(entry.query, /*seed=*/101);
    EXPECT_TRUE(report.ok())
        << entry.path << " (" << entry.violation
        << ") regressed: " << report.violations.front().ToString();
  }
}

}  // namespace
}  // namespace qps
