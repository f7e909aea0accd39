#include "cache/cube_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "cube/cube_codec.h"
#include "util/logging.h"

namespace rased {

namespace {

/// Encoded size of a cube the caller could not supply one for (page-less
/// inserts, tests). One encode pass; the encoded form is discarded.
uint64_t MeasureEncodedBytes(const DataCube& cube) {
  return EncodedCube::Encode(cube).SerializedBytes();
}

}  // namespace

CubeCache::CubeCache(const CacheOptions& options) : options_(options) {
  if (options_.metrics != nullptr) {
    MetricsRegistry* registry = options_.metrics;
    metrics_.hits = registry->GetCounter("rased_cache_hits_total",
                                         "Cube cache lookup hits");
    metrics_.misses = registry->GetCounter("rased_cache_misses_total",
                                           "Cube cache lookup misses");
    metrics_.admissions =
        registry->GetCounter("rased_cache_admissions_total",
                             "Cubes admitted on the query path (LRU policy)");
    metrics_.evictions = registry->GetCounter("rased_cache_evictions_total",
                                              "Cubes evicted to make room");
    metrics_.preloads = registry->GetCounter(
        "rased_cache_preloads_total", "Cubes preloaded by the static policy");
    metrics_.resident =
        registry->GetGauge("rased_cache_resident_cubes",
                           "Cubes currently resident in the cache");
    metrics_.resident_bytes =
        registry->GetGauge("rased_cache_resident_bytes",
                           "Encoded bytes charged against the cache budget");
    metrics_.budget_bytes = registry->GetGauge(
        "rased_cache_budget_bytes", "Configured cache byte budget");
    metrics_.budget_bytes->Set(static_cast<int64_t>(options_.byte_budget));
  }
}

void CubeCache::Preload(const TemporalIndex* index,
                        const CatalogSnapshot& snapshot, Level level,
                        uint64_t max_bytes) {
  if (max_bytes == 0) return;
  // Selection first, purely from catalog metadata: walk the level newest to
  // oldest (LatestKeys returns newest last) and take the contiguous prefix
  // whose encoded sizes fit. Only the selected cubes are then read (and
  // charged) — sizing never costs I/O.
  uint64_t selected_bytes = 0;
  const std::vector<CubeKey> keys =
      snapshot.LatestKeys(level, std::numeric_limits<size_t>::max());
  for (auto kit = keys.rbegin(); kit != keys.rend(); ++kit) {
    const CubeKey& key = *kit;
    std::optional<uint64_t> encoded = snapshot.EncodedBytesOf(key);
    if (!encoded.has_value()) continue;  // raced away; snapshot makes this moot
    if (selected_bytes + *encoded > max_bytes) break;
    selected_bytes += *encoded;

    std::optional<PageId> page = snapshot.PageOf(key);
    auto cube = index->ReadCube(snapshot, key);
    if (!cube.ok()) {
      RASED_LOG(Warning) << "cache preload of " << key.ToString()
                         << " failed: " << cube.status().ToString();
      continue;
    }
    auto shared =
        std::make_shared<const DataCube>(std::move(cube).value());
    MutexLock lock(&mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) bytes_used_ -= it->second.bytes;
    Entry entry{std::move(shared), page.value_or(kInvalidPageId), *encoded,
                lru_list_.end(), false};
    entries_.insert_or_assign(key, std::move(entry));
    bytes_used_ += *encoded;
    ++stats_.preloaded;
    if (metrics_.preloads != nullptr) {
      metrics_.preloads->Increment();
      metrics_.resident->Set(static_cast<int64_t>(entries_.size()));
      metrics_.resident_bytes->Set(static_cast<int64_t>(bytes_used_));
    }
  }
}

Status CubeCache::Warm(const TemporalIndex* index) {
  if (options_.policy == CachePolicy::kLru) return Status::OK();
  // One snapshot for the whole warm pass: every preloaded entry carries
  // the page of the same published version, and maintenance concurrent
  // with the warm neither blocks nor is blocked by it.
  CatalogSnapshot snapshot = index->Snapshot();
  Clear();
  const uint64_t budget = options_.byte_budget;
  if (options_.policy == CachePolicy::kAllDaily) {
    Preload(index, snapshot, Level::kDaily, budget);
    return Status::OK();
  }
  // kRasedRecency: split the byte budget by (alpha, beta, gamma, theta);
  // whatever the coarser levels cannot fill (an index may simply have fewer
  // weekly cubes than beta's share of bytes) falls back to daily, the level
  // with the most nodes. Compression multiplies here: the shares are bytes,
  // so sparsely-encoded cubes cost the budget only what they actually store.
  const double b = static_cast<double>(budget);
  uint64_t weekly = static_cast<uint64_t>(std::floor(options_.beta * b));
  uint64_t monthly = static_cast<uint64_t>(std::floor(options_.gamma * b));
  uint64_t yearly = static_cast<uint64_t>(std::floor(options_.theta * b));
  Preload(index, snapshot, Level::kWeekly, weekly);
  Preload(index, snapshot, Level::kMonthly, monthly);
  Preload(index, snapshot, Level::kYearly, yearly);
  // Daily receives its alpha share plus the coarser levels' leftover bytes.
  uint64_t used = bytes_used();
  uint64_t remaining = used < budget ? budget - used : 0;
  Preload(index, snapshot, Level::kDaily, remaining);
  return Status::OK();
}

std::shared_ptr<const DataCube> CubeCache::Find(const CubeKey& key) {
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    if (metrics_.misses != nullptr) metrics_.misses->Increment();
    return nullptr;
  }
  ++stats_.hits;
  if (metrics_.hits != nullptr) metrics_.hits->Increment();
  if (options_.policy == CachePolicy::kLru && it->second.in_lru) {
    lru_list_.splice(lru_list_.begin(), lru_list_, it->second.lru_it);
  }
  return it->second.cube;
}

std::shared_ptr<const DataCube> CubeCache::Find(const CubeKey& key,
                                                PageId page) {
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.page != page) {
    // Absent, or cached from a different page (a different version of the
    // cube): never serve it to this snapshot.
    ++stats_.misses;
    if (metrics_.misses != nullptr) metrics_.misses->Increment();
    return nullptr;
  }
  ++stats_.hits;
  if (metrics_.hits != nullptr) metrics_.hits->Increment();
  if (options_.policy == CachePolicy::kLru && it->second.in_lru) {
    lru_list_.splice(lru_list_.begin(), lru_list_, it->second.lru_it);
  }
  return it->second.cube;
}

void CubeCache::Insert(const CubeKey& key, const DataCube& cube) {
  Insert(key, kInvalidPageId, cube);
}

void CubeCache::Insert(const CubeKey& key, DataCube&& cube) {
  Insert(key, kInvalidPageId, std::move(cube));
}

void CubeCache::Insert(const CubeKey& key, PageId page,
                       const DataCube& cube) {
  if (options_.policy != CachePolicy::kLru) return;
  // Measure and build the shared copy outside the lock; admission is
  // pointer surgery.
  uint64_t bytes = MeasureEncodedBytes(cube);
  auto shared = std::make_shared<const DataCube>(cube);
  MutexLock lock(&mu_);
  AdmitLru(key, page, bytes, std::move(shared));
}

void CubeCache::Insert(const CubeKey& key, PageId page, DataCube&& cube) {
  if (options_.policy != CachePolicy::kLru) return;
  uint64_t bytes = MeasureEncodedBytes(cube);
  auto shared = std::make_shared<const DataCube>(std::move(cube));
  MutexLock lock(&mu_);
  AdmitLru(key, page, bytes, std::move(shared));
}

void CubeCache::Insert(const CubeKey& key, PageId page, uint64_t encoded_bytes,
                       DataCube&& cube) {
  if (options_.policy != CachePolicy::kLru) return;
  auto shared = std::make_shared<const DataCube>(std::move(cube));
  MutexLock lock(&mu_);
  AdmitLru(key, page, encoded_bytes, std::move(shared));
}

bool CubeCache::Contains(const CubeKey& key) const {
  MutexLock lock(&mu_);
  return entries_.find(key) != entries_.end();
}

bool CubeCache::Contains(const CubeKey& key, PageId page) const {
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.page == page;
}

size_t CubeCache::CountContained(std::span<const CubeKey> keys,
                                 std::span<const PageId> pages) const {
  RASED_DCHECK(keys.size() == pages.size());
  size_t n = 0;
  MutexLock lock(&mu_);
  for (size_t i = 0; i < keys.size(); ++i) {
    auto it = entries_.find(keys[i]);
    if (it != entries_.end() && it->second.page == pages[i]) ++n;
  }
  return n;
}

void CubeCache::AdmitLru(const CubeKey& key, PageId page, uint64_t bytes,
                         std::shared_ptr<const DataCube> cube) {
  if (bytes > options_.byte_budget) return;  // can never fit
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_used_ = bytes_used_ - it->second.bytes + bytes;
    it->second.cube = std::move(cube);
    it->second.page = page;
    it->second.bytes = bytes;
    if (it->second.in_lru) {
      lru_list_.splice(lru_list_.begin(), lru_list_, it->second.lru_it);
    }
    if (metrics_.resident_bytes != nullptr) {
      metrics_.resident_bytes->Set(static_cast<int64_t>(bytes_used_));
    }
    return;
  }
  while (bytes_used_ + bytes > options_.byte_budget && !lru_list_.empty()) {
    CubeKey victim = lru_list_.back();
    lru_list_.pop_back();
    auto vit = entries_.find(victim);
    if (vit != entries_.end()) {
      bytes_used_ -= vit->second.bytes;
      entries_.erase(vit);
    }
    ++stats_.evictions;
    if (metrics_.evictions != nullptr) metrics_.evictions->Increment();
  }
  lru_list_.push_front(key);
  Entry entry{std::move(cube), page, bytes, lru_list_.begin(), true};
  entries_.emplace(key, std::move(entry));
  bytes_used_ += bytes;
  if (metrics_.admissions != nullptr) {
    metrics_.admissions->Increment();
    metrics_.resident->Set(static_cast<int64_t>(entries_.size()));
    metrics_.resident_bytes->Set(static_cast<int64_t>(bytes_used_));
  }
}

void CubeCache::InvalidateRange(const DateRange& range) {
  MutexLock lock(&mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.range().Overlaps(range)) {
      bytes_used_ -= it->second.bytes;
      if (it->second.in_lru) lru_list_.erase(it->second.lru_it);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  if (metrics_.resident != nullptr) {
    metrics_.resident->Set(static_cast<int64_t>(entries_.size()));
    metrics_.resident_bytes->Set(static_cast<int64_t>(bytes_used_));
  }
}

size_t CubeCache::size() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

uint64_t CubeCache::bytes_used() const {
  MutexLock lock(&mu_);
  return bytes_used_;
}

CacheStats CubeCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void CubeCache::ResetStats() {
  MutexLock lock(&mu_);
  stats_ = CacheStats{};
}

void CubeCache::ClearLocked() {
  entries_.clear();
  lru_list_.clear();
  bytes_used_ = 0;
  if (metrics_.resident != nullptr) {
    metrics_.resident->Set(0);
    metrics_.resident_bytes->Set(0);
  }
}

void CubeCache::Clear() {
  MutexLock lock(&mu_);
  ClearLocked();
}

}  // namespace rased
