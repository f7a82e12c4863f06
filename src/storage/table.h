// Copyright 2026 The QPSeeker Authors
//
// Columnar in-memory tables. This is the storage substrate the paper runs
// on PostgreSQL; we keep everything memory-resident but model pages/blocks
// so cost formulas (seq vs index access) stay meaningful.

#ifndef QPS_STORAGE_TABLE_H_
#define QPS_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/value.h"
#include "util/status.h"

namespace qps {
namespace storage {

/// Rows per simulated disk block, used by cost formulas.
constexpr int64_t kRowsPerBlock = 64;

/// A typed column. Integers and dictionary codes share `ints`; the string
/// dictionary is sorted so codes preserve lexicographic order.
class Column {
 public:
  Column(std::string name, DataType type) : name_(std::move(name)), type_(type) {}

  const std::string& name() const { return name_; }
  DataType type() const { return type_; }
  int64_t size() const {
    return type_ == DataType::kFloat64 ? static_cast<int64_t>(doubles_.size())
                                       : static_cast<int64_t>(ints_.size());
  }

  void AppendInt(int64_t v) { ints_.push_back(v); }
  void AppendDouble(double v) { doubles_.push_back(v); }

  /// Numeric view of row `r` (value, or dictionary code for strings).
  double GetDouble(int64_t r) const {
    return type_ == DataType::kFloat64 ? doubles_[static_cast<size_t>(r)]
                                       : static_cast<double>(ints_[static_cast<size_t>(r)]);
  }
  int64_t GetInt(int64_t r) const { return ints_[static_cast<size_t>(r)]; }

  /// Installs a sorted dictionary; values in `ints_` are codes into it.
  void SetDictionary(std::vector<std::string> dict) { dict_ = std::move(dict); }
  const std::vector<std::string>& dictionary() const { return dict_; }

  /// Resolves a string to its dictionary code; -1 if absent.
  int64_t LookupDictCode(const std::string& s) const;

  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }

 private:
  std::string name_;
  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> dict_;
};

/// Column metadata describing key relationships (drives the join graph).
struct ColumnMeta {
  bool is_primary_key = false;
  /// Non-empty for foreign keys: referenced table/column names.
  std::string ref_table;
  std::string ref_column;
};

/// A table: columns + metadata + lazily built per-column ordered indexes.
class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  int64_t num_rows() const { return columns_.empty() ? 0 : columns_[0]->size(); }
  int64_t num_columns() const { return static_cast<int64_t>(columns_.size()); }
  int64_t num_blocks() const {
    return (num_rows() + kRowsPerBlock - 1) / kRowsPerBlock;
  }

  /// Adds a column; returns its index.
  int AddColumn(std::string name, DataType type, ColumnMeta meta = {});

  const Column& column(int idx) const { return *columns_[static_cast<size_t>(idx)]; }
  Column* mutable_column(int idx) { return columns_[static_cast<size_t>(idx)].get(); }
  const ColumnMeta& column_meta(int idx) const { return metas_[static_cast<size_t>(idx)]; }

  /// Column index by name, or -1.
  int ColumnIndex(const std::string& name) const;

  /// Ordered "index" on a column: row ids sorted by the column's numeric
  /// value. Built on first use and cached (models a B-tree's leaf order).
  /// Safe to call concurrently; the returned reference stays valid for the
  /// table's lifetime.
  const std::vector<uint32_t>& OrderedIndex(int col) const;

  /// B-tree height model for cost formulas: ceil(log_fanout(leaf_pages)).
  int64_t IndexHeight() const;
  int64_t IndexLeafPages() const { return std::max<int64_t>(1, num_blocks() / 4); }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Column>> columns_;
  std::vector<ColumnMeta> metas_;
  mutable std::mutex indexes_mu_;
  /// Never erased, and node-based, so references survive rehashing.
  mutable std::unordered_map<int, std::vector<uint32_t>> indexes_;  ///< guarded by indexes_mu_
};

}  // namespace storage
}  // namespace qps

#endif  // QPS_STORAGE_TABLE_H_
