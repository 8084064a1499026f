#ifndef DBPH_BASELINES_PLAIN_PLAIN_ENGINE_H_
#define DBPH_BASELINES_PLAIN_PLAIN_ENGINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relation/relation.h"
#include "storage/btree.h"
#include "storage/heapfile.h"

namespace dbph {
namespace baseline {

/// \brief A plaintext single-table engine with B+tree attribute indexes —
/// the no-privacy performance comparator for experiment E6.
///
/// Tuples live serialized in a heap file; every attribute gets a B+tree
/// from encoded value to record id, so exact selects are index lookups
/// instead of scans.
class PlainEngine {
 public:
  static Result<PlainEngine> Create(const rel::Relation& relation);

  const rel::Schema& schema() const { return schema_; }
  size_t size() const { return rows_.num_records(); }

  /// Index-backed exact select.
  Result<rel::Relation> Select(const std::string& attribute,
                               const rel::Value& value) const;

  /// Full-scan exact select (for comparison and as correctness oracle).
  Result<rel::Relation> SelectScan(const std::string& attribute,
                                   const rel::Value& value) const;

  /// Inserts a tuple, maintaining all indexes.
  Status Insert(const rel::Tuple& tuple);

  /// Deletes every tuple matching sigma_{attribute=value}; returns the
  /// number removed.
  Result<size_t> DeleteWhere(const std::string& attribute,
                             const rel::Value& value);

 private:
  PlainEngine(std::string name, rel::Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  static Bytes IndexKey(const rel::Value& value);
  Result<rel::Tuple> LoadTuple(uint64_t packed_rid) const;

  std::string name_;
  rel::Schema schema_;
  storage::HeapFile rows_;
  std::vector<storage::BPlusTree> indexes_;  // one per attribute
};

}  // namespace baseline
}  // namespace dbph

#endif  // DBPH_BASELINES_PLAIN_PLAIN_ENGINE_H_
