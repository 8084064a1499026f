#include "baselines/plain/plain_engine.h"

#include "common/macros.h"

namespace dbph {
namespace baseline {

Bytes PlainEngine::IndexKey(const rel::Value& value) {
  return ToBytes(value.EncodeForWord());
}

Result<PlainEngine> PlainEngine::Create(const rel::Relation& relation) {
  PlainEngine engine(relation.name(), relation.schema());
  engine.indexes_.reserve(relation.schema().num_attributes());
  for (size_t i = 0; i < relation.schema().num_attributes(); ++i) {
    engine.indexes_.emplace_back(/*max_keys=*/64);
  }
  for (const auto& tuple : relation.tuples()) {
    DBPH_RETURN_IF_ERROR(engine.Insert(tuple));
  }
  return engine;
}

Status PlainEngine::Insert(const rel::Tuple& tuple) {
  DBPH_RETURN_IF_ERROR(schema_.ValidateTuple(tuple.values()));
  Bytes serialized;
  tuple.AppendTo(&serialized);
  storage::RecordId rid = rows_.Insert(serialized);
  for (size_t i = 0; i < tuple.size(); ++i) {
    indexes_[i].Insert(IndexKey(tuple.at(i)), rid.Pack());
  }
  return Status::OK();
}

Result<rel::Tuple> PlainEngine::LoadTuple(uint64_t packed_rid) const {
  DBPH_ASSIGN_OR_RETURN(Bytes serialized,
                        rows_.Get(storage::RecordId::Unpack(packed_rid)));
  ByteReader reader(serialized);
  return rel::Tuple::ReadFrom(&reader);
}

Result<rel::Relation> PlainEngine::Select(const std::string& attribute,
                                          const rel::Value& value) const {
  DBPH_ASSIGN_OR_RETURN(size_t attr, schema_.IndexOf(attribute));
  if (value.type() != schema_.attribute(attr).type) {
    return Status::InvalidArgument("value type mismatch");
  }
  rel::Relation out("result", schema_);
  for (uint64_t rid : indexes_[attr].Lookup(IndexKey(value))) {
    DBPH_ASSIGN_OR_RETURN(rel::Tuple tuple, LoadTuple(rid));
    DBPH_RETURN_IF_ERROR(out.Insert(std::move(tuple)));
  }
  return out;
}

Result<rel::Relation> PlainEngine::SelectScan(const std::string& attribute,
                                              const rel::Value& value) const {
  DBPH_ASSIGN_OR_RETURN(rel::ExactMatch predicate,
                        rel::MakeExactMatch(schema_, attribute, value));
  rel::Relation out("result", schema_);
  for (const auto& rid : rows_.AllRecords()) {
    DBPH_ASSIGN_OR_RETURN(rel::Tuple tuple, LoadTuple(rid.Pack()));
    if (predicate.Evaluate(tuple)) {
      DBPH_RETURN_IF_ERROR(out.Insert(std::move(tuple)));
    }
  }
  return out;
}

Result<size_t> PlainEngine::DeleteWhere(const std::string& attribute,
                                        const rel::Value& value) {
  DBPH_ASSIGN_OR_RETURN(size_t attr, schema_.IndexOf(attribute));
  if (value.type() != schema_.attribute(attr).type) {
    return Status::InvalidArgument("value type mismatch");
  }
  std::vector<uint64_t> rids = indexes_[attr].Lookup(IndexKey(value));
  for (uint64_t packed : rids) {
    DBPH_ASSIGN_OR_RETURN(rel::Tuple tuple, LoadTuple(packed));
    // Remove from every index, then from the heap.
    for (size_t i = 0; i < tuple.size(); ++i) {
      indexes_[i].Delete(IndexKey(tuple.at(i)), packed);
    }
    DBPH_RETURN_IF_ERROR(rows_.Delete(storage::RecordId::Unpack(packed)));
  }
  return rids.size();
}

}  // namespace baseline
}  // namespace dbph
