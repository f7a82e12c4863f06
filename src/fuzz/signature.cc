// Copyright 2026 The QPSeeker Authors

#include "fuzz/signature.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"

namespace qps {
namespace fuzz {

namespace {

uint64_t ShapeHashNode(const query::Query& q, const query::PlanNode& node) {
  uint64_t h = util::Mix64(static_cast<uint64_t>(node.op) + 1);
  if (node.is_leaf()) {
    const int table_id =
        (node.rel >= 0 && node.rel < q.num_relations())
            ? q.relations[static_cast<size_t>(node.rel)].table_id
            : -1;
    h = util::HashCombine(h, static_cast<uint64_t>(table_id + 2));
    return h;
  }
  const uint64_t left =
      node.left != nullptr ? ShapeHashNode(q, *node.left) : 0;
  const uint64_t right =
      node.right != nullptr ? ShapeHashNode(q, *node.right) : 0;
  h = util::HashCombine(h, left);
  h = util::HashCombine(h, right);
  return h;
}

}  // namespace

uint64_t AliasFreeShapeHash(const query::Query& q, const query::PlanNode& plan) {
  const uint64_t h = ShapeHashNode(q, plan);
  return h == 0 ? 1 : h;  // 0 is reserved for "no plan"
}

int QErrorDecile(double estimated, double actual) {
  if (!std::isfinite(estimated) || !std::isfinite(actual)) return 9;
  const double est = std::max(0.0, estimated) + 1.0;
  const double act = std::max(0.0, actual) + 1.0;
  const double qerr = std::max(est / act, act / est);
  if (qerr <= 1.0) return 0;
  const int bucket = static_cast<int>(std::floor(std::log2(qerr))) + 1;
  return std::clamp(bucket, 0, 9);
}

uint64_t ProbeSignature(const BackendProbe& probe) {
  uint64_t h = util::HashString(probe.backend);
  h = util::HashCombine(h, static_cast<uint64_t>(probe.plan_status));
  h = util::HashCombine(h, static_cast<uint64_t>(probe.stage));
  h = util::HashCombine(h, (probe.used_neural ? 2u : 0u) |
                               (probe.deadline_hit ? 1u : 0u));
  h = util::HashCombine(h, probe.plan_shape_hash);
  for (int c : probe.op_counts) {
    // Cap operator counts so very wide plans don't make every signature
    // unique on count alone; the shape hash already separates structures.
    h = util::HashCombine(h, static_cast<uint64_t>(std::min(c, 4)));
  }
  h = util::HashCombine(h, static_cast<uint64_t>(std::min<int64_t>(
                               probe.guard_trips, 4)));
  h = util::HashCombine(h, static_cast<uint64_t>(probe.exec_status));
  h = util::HashCombine(h, static_cast<uint64_t>(probe.qerror_decile + 1));
  return h;
}

uint64_t CombinedSignature(const std::vector<BackendProbe>& probes) {
  uint64_t h = 0x5150534655ULL;  // "QPSFU"
  for (const auto& p : probes) h = util::HashCombine(h, ProbeSignature(p));
  return h;
}

}  // namespace fuzz
}  // namespace qps
