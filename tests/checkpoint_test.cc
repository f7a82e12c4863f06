// Copyright 2026 The QPSeeker Authors
//
// Durable-checkpoint contract tests: v2 save/load round-trips bit for bit
// (property-tested over random shapes and names), every corruption class
// (the retired v1 magic included) yields a clean error naming the failure, saves
// refuse to clobber non-checkpoint files, a torn write (fault-injected
// crash mid-save) always leaves the previous checkpoint loadable, and a
// resumed training run continues its loss curve exactly.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/qpseeker.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "query/parser.h"
#include "storage/schemas.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/io.h"

namespace qps {
namespace nn {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

void WriteAll(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  ASSERT_TRUE(out.good()) << path;
}

void PutU32LE(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutU64LE(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

/// A module whose parameter shapes and names are driven by a seed, for
/// property-testing the round trip over many layouts.
class RandomModule : public Module {
 public:
  RandomModule(uint64_t seed, bool reinit_values) {
    Rng rng(seed);
    const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    for (int i = 0; i < n; ++i) {
      const int64_t rows = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{7}));
      const int64_t cols = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{9}));
      // Names exercise separators the format must treat as opaque bytes.
      std::string name = "p" + std::to_string(i);
      const char* decorations[] = {".w", "/bias", " odd name", "__x", ".0"};
      name += decorations[rng.UniformInt(uint64_t{5})];
      Tensor t = Tensor::Zeros(rows, cols);
      for (int64_t j = 0; j < t.size(); ++j) {
        // Always draw so the layout stream is identical for both modes;
        // reinit_values=false zeroes the target module so a successful
        // load is observable.
        const float v = static_cast<float>(rng.Uniform(-2.0, 2.0));
        t.data()[j] = reinit_values ? v : 0.0f;
      }
      RegisterParam(name, std::move(t));
    }
  }
};

bool ModulesBitIdentical(const Module& a, const Module& b) {
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].name != pb[i].name) return false;
    const Tensor& ta = pa[i].var->value;
    const Tensor& tb = pb[i].var->value;
    if (!ta.SameShape(tb)) return false;
    for (int64_t j = 0; j < ta.size(); ++j) {
      if (ta.data()[j] != tb.data()[j]) return false;
    }
  }
  return true;
}

TEST(CheckpointTest, RoundTripPropertyOverRandomShapesAndNames) {
  const std::string path = TempPath("roundtrip.ckpt");
  for (uint64_t seed = 0; seed < 25; ++seed) {
    std::remove(path.c_str());
    RandomModule saved(seed, /*reinit_values=*/true);
    ScalarEntries extra = {{"alpha", 0.25 + static_cast<double>(seed)},
                          {"steps", 17.0 * static_cast<double>(seed)}};
    ASSERT_TRUE(SaveModule(saved, path, extra).ok()) << "seed " << seed;
    EXPECT_TRUE(LooksLikeCheckpoint(path));

    RandomModule loaded(seed, /*reinit_values=*/false);
    ScalarEntries got;
    Status st = LoadModule(&loaded, path, &got);
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();
    EXPECT_TRUE(ModulesBitIdentical(saved, loaded)) << "seed " << seed;
    ASSERT_EQ(got.size(), extra.size());
    for (size_t i = 0; i < extra.size(); ++i) {
      EXPECT_EQ(got[i].first, extra[i].first);
      EXPECT_EQ(got[i].second, extra[i].second);
    }
  }
}

TEST(CheckpointTest, CorruptedByteFailsChecksumWithCleanError) {
  const std::string path = TempPath("corrupt.ckpt");
  std::remove(path.c_str());
  RandomModule saved(3, true);
  ASSERT_TRUE(SaveModule(saved, path).ok());
  std::string bytes = ReadAll(path);
  bytes[bytes.size() / 2] ^= 0x40;
  WriteAll(path, bytes);

  RandomModule loaded(3, false);
  Status st = LoadModule(&loaded, path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("checksum"), std::string::npos) << st.ToString();

  // The retired v1 magic (0x51505301, "QPS\1") in place of v2's is just a
  // bad magic. The magic is little-endian: the version is its first byte.
  ASSERT_TRUE(SaveModule(saved, path).ok());
  bytes = ReadAll(path);
  ASSERT_EQ(bytes[0], '\x02');
  bytes[0] = '\x01';
  WriteAll(path, bytes);
  EXPECT_FALSE(LooksLikeCheckpoint(path));
  st = LoadModule(&loaded, path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("bad magic"), std::string::npos) << st.ToString();
}

TEST(CheckpointTest, TrailingGarbageRejected) {
  const std::string path = TempPath("trail2.ckpt");
  std::remove(path.c_str());
  RandomModule saved(9, true);
  ASSERT_TRUE(SaveModule(saved, path).ok());
  std::string bytes = ReadAll(path);
  bytes += "junk";
  WriteAll(path, bytes);

  RandomModule loaded(9, false);
  Status st = LoadModule(&loaded, path);
  ASSERT_FALSE(st.ok());
}

TEST(CheckpointTest, TruncationRejected) {
  const std::string path = TempPath("trunc.ckpt");
  std::remove(path.c_str());
  RandomModule saved(11, true);
  ASSERT_TRUE(SaveModule(saved, path).ok());
  const std::string bytes = ReadAll(path);
  for (const size_t keep : {size_t{0}, size_t{3}, size_t{9}, bytes.size() / 2,
                            bytes.size() - 1}) {
    WriteAll(path, bytes.substr(0, keep));
    RandomModule loaded(11, false);
    EXPECT_FALSE(LoadModule(&loaded, path).ok()) << "kept " << keep;
  }
}

TEST(CheckpointTest, ShapeMismatchNamesTheTensor) {
  const std::string path = TempPath("mismatch.ckpt");
  std::remove(path.c_str());
  RandomModule saved(13, true);
  ASSERT_TRUE(SaveModule(saved, path).ok());
  // A structurally different module (different seed -> different layout).
  RandomModule other(14, false);
  Status st = LoadModule(&other, path);
  ASSERT_FALSE(st.ok());
}

TEST(CheckpointTest, HugeShapeProductRejectedWithoutAllocation) {
  // rows * cols = 2^63 + 2^32: the product overflows int64, so a naive
  // `rows * cols > cap` check would wrap negative and pass. The loader must
  // reject this shape via overflow-safe division, before any byte budget or
  // allocation is derived from the product. All CRCs are valid — an
  // attacker can compute them — so the shape check is the only defense.
  const uint32_t rows = 2863311532u;  // 4 * 715827883
  const uint32_t cols = 3221225472u;  // 3 * 2^30
  std::string record;
  PutU32LE(&record, 1);  // name_len
  record += "w";
  PutU32LE(&record, rows);
  PutU32LE(&record, cols);
  // No tensor data: rejection must happen at the shape check.
  std::string payload;
  PutU64LE(&payload, 1);  // tensor count
  payload += record;
  PutU32LE(&payload, crc32::Compute(record.data(), record.size()));

  std::string file;
  PutU32LE(&file, 0x51505302u);  // v2 magic
  PutU32LE(&file, 2);            // format version
  PutU32LE(&file, 1);            // section count
  PutU32LE(&file, 0);            // reserved
  PutU32LE(&file, 1);            // section kind: tensors
  PutU32LE(&file, 5);            // section name length
  file += "model";
  PutU64LE(&file, payload.size());
  file += payload;
  PutU32LE(&file, crc32::Compute(payload.data(), payload.size()));
  PutU32LE(&file, crc32::Compute(file.data(), file.size()));

  const std::string path = TempPath("overflow_shape.ckpt");
  WriteAll(path, file);
  RandomModule loaded(1, false);
  Status st = LoadModule(&loaded, path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("element cap"), std::string::npos)
      << st.ToString();
}

TEST(CheckpointTest, OptimizerMismatchLeavesModuleAndStateUntouched) {
  const std::string path = TempPath("opt_mismatch.ckpt");
  std::remove(path.c_str());
  RandomModule saved(51, true);
  Adam adam(saved.Parameters(), 1e-3f);
  TrainingState state;
  state.epoch = 4;
  ASSERT_TRUE(SaveTrainingCheckpoint(saved, adam, state, path).ok());

  // Same layout (so the model section alone would apply cleanly) but an SGD
  // optimizer: the Adam slot names in the checkpoint don't match, so the
  // load must fail atomically — the target keeps its own weights instead of
  // silently adopting the checkpoint's.
  RandomModule target(51, false);
  Sgd sgd(target.Parameters(), 0.1f);
  TrainingState st2;
  st2.epoch = -1;
  Status st = LoadTrainingCheckpoint(&target, &sgd, &st2, path);
  ASSERT_FALSE(st.ok());
  RandomModule zeros(51, false);
  EXPECT_TRUE(ModulesBitIdentical(target, zeros));
  EXPECT_EQ(st2.epoch, -1);
}

TEST(CheckpointTest, OverlongScalarNameFailsTheSave) {
  // A name past the loader's cap must fail the *save* with a clean error —
  // never report OK and leave behind a checkpoint the loader rejects.
  const std::string path = TempPath("longname.ckpt");
  std::remove(path.c_str());
  RandomModule m(61, true);
  const ScalarEntries extra = {
      {std::string(kMaxCheckpointNameLen + 1, 'x'), 1.0}};
  EXPECT_FALSE(SaveModule(m, path, extra).ok());
  EXPECT_FALSE(LooksLikeCheckpoint(path));  // nothing was written

  Adam adam(m.Parameters(), 1e-3f);
  TrainingState state;
  state.extra = extra;
  EXPECT_FALSE(SaveTrainingCheckpoint(m, adam, state, path).ok());
  EXPECT_FALSE(LooksLikeCheckpoint(path));
}

TEST(CheckpointTest, RefusesToOverwriteForeignFile) {
  const std::string path = TempPath("precious.txt");
  WriteAll(path, "important experiment notes, not a checkpoint");
  RandomModule saved(5, true);
  Status st = SaveModule(saved, path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("refusing"), std::string::npos) << st.ToString();
  EXPECT_EQ(ReadAll(path), "important experiment notes, not a checkpoint");
}

TEST(CheckpointTest, TornWriteLeavesPriorCheckpointLoadable) {
  for (const char* point : {"io.write", "io.fsync", "io.rename"}) {
    const std::string path = TempPath("torn.ckpt");
    std::remove(path.c_str());
    RandomModule first(21, true);
    ASSERT_TRUE(SaveModule(first, path).ok());

    // The second save "crashes" at each durable-write stage in turn; the
    // reader must keep seeing the first checkpoint, complete and valid.
    fault::FaultSpec spec;
    spec.code = StatusCode::kIOError;
    spec.message = std::string("injected crash at ") + point;
    fault::FaultInjector::Global().Arm(point, spec);
    RandomModule second(22, true);
    Status st = SaveModule(second, path);
    fault::FaultInjector::Global().DisarmAll();
    ASSERT_FALSE(st.ok()) << point;

    RandomModule loaded(21, false);
    ASSERT_TRUE(LoadModule(&loaded, path).ok()) << point;
    EXPECT_TRUE(ModulesBitIdentical(first, loaded)) << point;
  }
}

TEST(CheckpointTest, TrainingStateRoundTripsThroughAdam) {
  const std::string path = TempPath("train_state.ckpt");
  std::remove(path.c_str());
  RandomModule module(31, true);
  Adam adam(module.Parameters(), 1e-3f);
  // Drive a few steps so the optimizer slots are non-trivial.
  Rng grad_rng(77);
  for (int step = 0; step < 3; ++step) {
    for (auto& p : module.Parameters()) {
      p.var->grad = Tensor::Zeros(p.var->value.rows(), p.var->value.cols());
      for (int64_t j = 0; j < p.var->grad.size(); ++j) {
        p.var->grad.data()[j] = static_cast<float>(grad_rng.Uniform(-1, 1));
      }
    }
    adam.Step();
  }

  TrainingState state;
  state.epoch = 3;
  Rng stream(123);
  stream.Normal();  // leave a cached Box-Muller value in flight
  state.rng = stream.SaveState();
  state.extra = {{"note", 42.0}};
  ASSERT_TRUE(SaveTrainingCheckpoint(module, adam, state, path).ok());

  RandomModule module2(31, false);
  Adam adam2(module2.Parameters(), 1e-3f);
  TrainingState state2;
  ASSERT_TRUE(
      LoadTrainingCheckpoint(&module2, &adam2, &state2, path).ok());
  EXPECT_TRUE(ModulesBitIdentical(module, module2));
  EXPECT_EQ(state2.epoch, 3);
  ASSERT_EQ(state2.extra.size(), 1u);
  EXPECT_EQ(state2.extra[0].first, "note");

  // The restored stream replays the saved one exactly.
  Rng restored;
  restored.LoadState(state2.rng);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(stream.Next(), restored.Next());
    EXPECT_EQ(stream.Normal(), restored.Normal());
  }

  // Identical future updates: same gradients -> bit-identical weights.
  for (Adam* a : {&adam, &adam2}) {
    Module& m = (a == &adam) ? static_cast<Module&>(module) : module2;
    Rng g(99);
    for (auto& p : m.Parameters()) {
      p.var->grad = Tensor::Zeros(p.var->value.rows(), p.var->value.cols());
      for (int64_t j = 0; j < p.var->grad.size(); ++j) {
        p.var->grad.data()[j] = static_cast<float>(g.Uniform(-1, 1));
      }
    }
    a->Step();
  }
  EXPECT_TRUE(ModulesBitIdentical(module, module2));
}

TEST(CheckpointTest, AdamImportRejectsMismatchedStateWithoutPartialMutation) {
  const std::string path = TempPath("adam_mismatch.ckpt");
  std::remove(path.c_str());
  RandomModule module(41, true);
  Adam adam(module.Parameters(), 1e-3f);
  TrainingState state;
  state.epoch = 1;
  ASSERT_TRUE(SaveTrainingCheckpoint(module, adam, state, path).ok());

  RandomModule other(42, false);  // different layout
  Adam other_adam(other.Parameters(), 1e-3f);
  TrainingState st2;
  EXPECT_FALSE(LoadTrainingCheckpoint(&other, &other_adam, &st2, path).ok());
}

// ---------------------------------------------------------------------------
// End-to-end: resumable QpSeeker training.

class ResumeTrainingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(1);
    db_ = storage::BuildDatabase(storage::ToySpec(), 200, &rng).value().release();
    stats_ = stats::DatabaseStats::Analyze(*db_).release();
    std::vector<query::Query> queries;
    const char* sqls[] = {
        "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id;",
        "SELECT COUNT(*) FROM b, c WHERE c.c1 = b.id;",
        "SELECT COUNT(*) FROM a WHERE a.a2 >= 2;",
    };
    for (const char* sql : sqls) {
      queries.push_back(query::ParseSql(sql, *db_).value());
    }
    sampling::DatasetOptions dopts;
    dopts.source = sampling::PlanSource::kSampled;
    dopts.sampler.max_plans_per_query = 3;
    Rng drng(2);
    dataset_ = new sampling::QepDataset(
        sampling::BuildQepDataset(*db_, *stats_, queries, dopts, &drng).value());
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete stats_;
    delete db_;
  }

  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }

  static core::QpSeeker MakeModel() {
    return core::QpSeeker(*db_, *stats_,
                          core::QpSeekerConfig::ForScale(Scale::kSmoke), 3);
  }

  static storage::Database* db_;
  static stats::DatabaseStats* stats_;
  static sampling::QepDataset* dataset_;
};

storage::Database* ResumeTrainingTest::db_ = nullptr;
stats::DatabaseStats* ResumeTrainingTest::stats_ = nullptr;
sampling::QepDataset* ResumeTrainingTest::dataset_ = nullptr;

TEST_F(ResumeTrainingTest, ResumedRunContinuesLossCurveExactly) {
  const std::string ckpt = TempPath("resume.ckpt");
  std::remove(ckpt.c_str());

  // Reference: one uninterrupted 6-epoch run.
  core::TrainOptions base;
  base.epochs = 6;
  base.batch_size = 4;
  auto uninterrupted = MakeModel();
  const auto ref = uninterrupted.Train(*dataset_, base);
  ASSERT_EQ(ref.epoch_losses.size(), 6u);

  // Interrupted: 3 epochs with checkpointing, then a *fresh* model resumes
  // from the checkpoint for the remaining 3.
  core::TrainOptions part = base;
  part.epochs = 3;
  part.checkpoint_path = ckpt;
  auto first_half = MakeModel();
  const auto r1 = first_half.Train(*dataset_, part);
  ASSERT_EQ(r1.epoch_losses.size(), 3u);
  EXPECT_EQ(r1.resumed_epochs, 0);
  ASSERT_TRUE(LooksLikeCheckpoint(ckpt));

  core::TrainOptions full = base;
  full.checkpoint_path = ckpt;
  auto resumed = MakeModel();
  const auto r2 = resumed.Train(*dataset_, full);
  EXPECT_EQ(r2.resumed_epochs, 3);
  ASSERT_EQ(r2.epoch_losses.size(), 3u);  // epochs 3..5 only

  // Loss-continuity: the resumed epochs reproduce the uninterrupted run
  // bit for bit (weights, Adam slots, and RNG stream all restored).
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(r2.epoch_losses[i], ref.epoch_losses[3 + i]) << i;
  }
  // And the first half matched too.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(r1.epoch_losses[i], ref.epoch_losses[i]) << i;
  }
}

TEST_F(ResumeTrainingTest, KilledSaveKeepsPriorCheckpointResumable) {
  const std::string ckpt = TempPath("killed.ckpt");
  std::remove(ckpt.c_str());

  core::TrainOptions part;
  part.epochs = 2;
  part.batch_size = 4;
  part.checkpoint_path = ckpt;
  auto model = MakeModel();
  ASSERT_EQ(model.Train(*dataset_, part).epoch_losses.size(), 2u);
  const std::string good_bytes = ReadAll(ckpt);

  // Every further save dies mid-rename (the torn-write window). Training
  // itself must keep going and the on-disk checkpoint must stay the epoch-2
  // snapshot, still resumable.
  fault::FaultSpec spec;
  spec.code = StatusCode::kIOError;
  spec.sticky = true;
  spec.trigger_on_hit = 1;
  fault::FaultInjector::Global().Arm("io.rename", spec);
  core::TrainOptions more = part;
  more.epochs = 4;
  auto cont = MakeModel();
  const auto r = cont.Train(*dataset_, more);
  fault::FaultInjector::Global().DisarmAll();
  EXPECT_EQ(r.resumed_epochs, 2);
  EXPECT_EQ(r.epoch_losses.size(), 2u);
  EXPECT_EQ(ReadAll(ckpt), good_bytes);

  // The surviving checkpoint still resumes cleanly.
  auto again = MakeModel();
  const auto r2 = again.Train(*dataset_, more);
  EXPECT_EQ(r2.resumed_epochs, 2);
}

TEST_F(ResumeTrainingTest, SaveEmbedsNormalizerInOneFile) {
  const std::string path = TempPath("model_embed.ckpt");
  std::remove(path.c_str());
  core::TrainOptions topts;
  topts.epochs = 2;
  topts.batch_size = 4;
  auto model = MakeModel();
  model.Train(*dataset_, topts);
  ASSERT_TRUE(model.Save(path).ok());
  // A fresh instance loads everything from `path`.
  auto loaded = MakeModel();
  ASSERT_TRUE(loaded.Load(path).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(loaded.normalizer().log_max(i), model.normalizer().log_max(i));
  }
  // Predictions agree bit for bit.
  const auto& q = dataset_->queries[0];
  const auto& plan = *dataset_->qeps[0].plan;
  const auto a = model.PredictPlan(q, plan);
  const auto b = loaded.PredictPlan(q, plan);
  EXPECT_EQ(a.cardinality, b.cardinality);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.runtime_ms, b.runtime_ms);
}

}  // namespace
}  // namespace nn
}  // namespace qps
