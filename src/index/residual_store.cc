#include "index/residual_store.h"

namespace sssj {

ResidualRecord& ResidualStore::Insert(VectorId id, ResidualRecord rec) {
  // An existing id is replaced in place; its old record leaves the total.
  if (const ResidualRecord* old = map_.find(id)) bytes_ -= RecordBytes(*old);
  bytes_ += RecordBytes(rec);
  ResidualRecord& stored = map_.insert(id, std::move(rec));
  if (track_prefix_dims_) RegisterPrefixDims(id, stored.prefix);
  return stored;
}

void ResidualStore::ExpireOlderThan(Timestamp cutoff) {
  while (!map_.empty() && map_.front().second.ts < cutoff) {
    bytes_ -= RecordBytes(map_.front().second);
    map_.pop_front();
  }
  // prefix_dims_ entries pointing at dropped ids are cleaned lazily.
}

void ResidualStore::Clear() {
  map_.clear();
  prefix_dims_.clear();
  bytes_ = 0;
}

size_t ResidualStore::ApproxBytesSlow() const {
  size_t bytes = 0;
  for (const auto& [id, rec] : map_) bytes += RecordBytes(rec);
  for (const auto& [dim, ids] : prefix_dims_) {
    bytes += sizeof(DimId) + ids.capacity() * sizeof(VectorId);
  }
  return bytes;
}

void ResidualStore::RegisterPrefixDims(VectorId id,
                                       const SparseVector& prefix) {
  for (const Coord& c : prefix) {
    auto [it, inserted] = prefix_dims_.try_emplace(c.dim);
    std::vector<VectorId>& ids = it->second;
    const size_t capacity = ids.capacity();
    ids.push_back(id);
    bytes_ += (inserted ? sizeof(DimId) : 0) +
              (ids.capacity() - capacity) * sizeof(VectorId);
  }
}

}  // namespace sssj
