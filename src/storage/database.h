// Copyright 2026 The QPSeeker Authors
//
// The catalog: a named set of tables plus the derived join graph (every
// FK -> PK pair), which defines the one-hot join vocabulary used by the
// query/plan encoders (as in MSCN).

#ifndef QPS_STORAGE_DATABASE_H_
#define QPS_STORAGE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/table.h"

namespace qps {
namespace storage {

/// A joinable column pair in the schema (FK side first).
struct JoinEdge {
  int left_table;   ///< table index in the database
  int left_column;  ///< column index within left table
  int right_table;
  int right_column;

  std::string DebugString(const class Database& db) const;
};

/// An immutable collection of tables with the schema-level join graph.
class Database {
 public:
  explicit Database(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a table; returns its index.
  int AddTable(std::unique_ptr<Table> table);

  int num_tables() const { return static_cast<int>(tables_.size()); }
  const Table& table(int idx) const { return *tables_[static_cast<size_t>(idx)]; }

  /// Table index by name, or -1.
  int TableIndex(const std::string& name) const;

  /// Rebuilds the join graph from FK metadata. Call after loading tables.
  void BuildJoinGraph();

  /// All schema join edges; index into this vector is the join's one-hot id.
  const std::vector<JoinEdge>& join_edges() const { return join_edges_; }

  /// Edge id for (ta.ca = tb.cb) in either orientation, or -1.
  int FindJoinEdge(int ta, int ca, int tb, int cb) const;

  /// Total number of rows across tables (reporting only).
  int64_t TotalRows() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<JoinEdge> join_edges_;
};

}  // namespace storage
}  // namespace qps

#endif  // QPS_STORAGE_DATABASE_H_
