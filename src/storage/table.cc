// Copyright 2026 The QPSeeker Authors

#include "storage/table.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace qps {
namespace storage {

int64_t Column::LookupDictCode(const std::string& s) const {
  auto it = std::lower_bound(dict_.begin(), dict_.end(), s);
  if (it == dict_.end() || *it != s) return -1;
  return static_cast<int64_t>(it - dict_.begin());
}

int Table::AddColumn(std::string name, DataType type, ColumnMeta meta) {
  columns_.push_back(std::make_unique<Column>(std::move(name), type));
  metas_.push_back(std::move(meta));
  return static_cast<int>(columns_.size()) - 1;
}

int Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i]->name() == name) return static_cast<int>(i);
  }
  return -1;
}

const std::vector<uint32_t>& Table::OrderedIndex(int col) const {
  std::lock_guard<std::mutex> lock(indexes_mu_);
  auto it = indexes_.find(col);
  if (it != indexes_.end()) return it->second;
  QPS_CHECK(col >= 0 && col < num_columns()) << "bad column index";
  std::vector<uint32_t> perm(static_cast<size_t>(num_rows()));
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
  const Column& c = column(col);
  std::stable_sort(perm.begin(), perm.end(), [&c](uint32_t a, uint32_t b) {
    return c.GetDouble(a) < c.GetDouble(b);
  });
  return indexes_.emplace(col, std::move(perm)).first->second;
}

int64_t Table::IndexHeight() const {
  const double leaf_pages = static_cast<double>(IndexLeafPages());
  constexpr double kFanout = 64.0;
  return std::max<int64_t>(1, static_cast<int64_t>(
                                  std::ceil(std::log(leaf_pages + 1.0) /
                                            std::log(kFanout))) +
                                  1);
}

}  // namespace storage
}  // namespace qps
