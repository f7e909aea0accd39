#ifndef RASED_CACHE_CUBE_CACHE_H_
#define RASED_CACHE_CUBE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>

#include "cube/cube_codec.h"
#include "cube/data_cube.h"
#include "index/temporal_index.h"
#include "index/temporal_key.h"
#include "obs/metrics_registry.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace rased {

/// How the cache decides what lives inside its byte budget.
enum class CachePolicy {
  /// The paper's strategy (Section VII-A): statically preload the most
  /// recent cubes level by level, giving each level its (beta, gamma,
  /// theta) share of the byte budget and the remainder to daily. Nothing
  /// is admitted or evicted at query time.
  kRasedRecency = 0,
  /// Classic LRU admission/eviction on the query path (ablation baseline).
  kLru = 1,
  /// Recency preload of daily cubes only (alpha = 1), the degenerate
  /// configuration Section VII-B's example warns about.
  kAllDaily = 2,
};

struct CacheOptions {
  /// Cache capacity in bytes of *encoded* cube storage — the paper's 2 GB
  /// deployment figure. Every entry is charged its exact serialized
  /// (compressed) length as recorded in the catalog, so adaptive cube
  /// compression directly multiplies how many cubes the same budget
  /// holds. The decoded working copies are what hits return; the budget
  /// models the resource the paper sizes (bytes of cached cube state).
  uint64_t byte_budget = uint64_t{2} << 30;

  /// Per-level byte shares for kRasedRecency; must sum to ~1. Defaults
  /// are the deployment values of Section VIII.
  double alpha = 0.4;   // daily
  double beta = 0.35;   // weekly
  double gamma = 0.2;   // monthly
  double theta = 0.05;  // yearly

  CachePolicy policy = CachePolicy::kRasedRecency;

  /// When non-null, the cache registers live rased_cache_* counters and
  /// gauges here at construction (hits/misses/admissions/evictions/
  /// preloads, resident cubes/bytes, budget). The registry must outlive
  /// the cache.
  MetricsRegistry* metrics = nullptr;

  /// Budget with guaranteed room for `cubes` cubes of any encoding — the
  /// conversion helper for configurations historically expressed in
  /// slots. Counts the blob header per cube because the adaptive encoder's
  /// worst case (dense fallback) serializes to cube_bytes + header.
  static uint64_t BytesForCubes(size_t cubes, const CubeSchema& schema) {
    return static_cast<uint64_t>(cubes) *
           (schema.cube_bytes() + CubeBlobHeader::kBytes);
  }
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t preloaded = 0;
  uint64_t evictions = 0;
};

/// In-memory cube cache standing between the query executor and the index
/// pager (Section VII-A). Lookups are zero-I/O; the executor charges disk
/// cost only for misses.
///
/// Threading contract: CubeCache is internally synchronized. Lookups,
/// inserts, invalidation, warming, and stats are safe from any number of
/// dashboard worker threads concurrently. Entries are immutable once
/// admitted and handed out as shared_ptr, so a reader keeps its cube alive
/// even if an LRU eviction or InvalidateRange drops the entry mid-read.
/// Warm() pins one catalog snapshot and preloads against it without
/// blocking readers or writers (its reads charge the pager like any
/// query's).
///
/// MVCC validation: every entry remembers the page its cube was read
/// from. The page-taking Find/Contains/Insert overloads treat the page id
/// as the entry's version: a lookup hits only when the caller's snapshot
/// resolves the key to the same page, so a cube cached under a retired
/// epoch can never serve a query pinned to a newer one (RebuildMonth
/// always stages replacement cubes to fresh pages). Entries for untouched
/// keys keep their page across publications and keep hitting — no blanket
/// invalidation on epoch bumps. The page-less overloads skip validation
/// (kInvalidPageId) for callers outside the query path.
class CubeCache {
 public:
  explicit CubeCache(const CacheOptions& options);

  /// Preloads cubes per the configured policy against one pinned snapshot
  /// of `index`'s current version. For kRasedRecency/kAllDaily this
  /// performs the full static prefetch; for kLru it is a no-op (the cache
  /// fills on demand). Warm reads go through the index pager but are an
  /// offline cost — callers typically reset pager stats afterwards.
  /// Non-blocking: queries keep running (and hitting) while Warm refills.
  Status Warm(const TemporalIndex* index) RASED_EXCLUDES(mu_);

  /// Returns the cached cube or nullptr; counts a hit/miss. For kLru the
  /// entry is refreshed. The returned pointer remains valid after eviction.
  std::shared_ptr<const DataCube> Find(const CubeKey& key)
      RASED_EXCLUDES(mu_);

  /// Page-validated lookup: hits only if the entry was cached from
  /// `page` (the caller's snapshot resolution of `key`). A mismatch counts
  /// as a miss and leaves the entry in place — a reader pinned to the
  /// entry's own version can still hit it.
  std::shared_ptr<const DataCube> Find(const CubeKey& key, PageId page)
      RASED_EXCLUDES(mu_);

  /// Hands a cube fetched from disk to the cache. Only the kLru policy
  /// admits it (the paper's static policy never changes at query time).
  void Insert(const CubeKey& key, const DataCube& cube) RASED_EXCLUDES(mu_);

  /// Move overload: adopts the cube without copying its cell array. The
  /// query executor uses this to hand freshly fetched cubes over instead
  /// of paying a deep copy per miss.
  void Insert(const CubeKey& key, DataCube&& cube) RASED_EXCLUDES(mu_);

  /// Page-carrying inserts: record the page the cube was fetched from so
  /// later page-validated lookups can hit it. These overloads measure the
  /// cube's encoded size themselves (one encode pass); callers that
  /// already know it use the sized overload below.
  void Insert(const CubeKey& key, PageId page, const DataCube& cube)
      RASED_EXCLUDES(mu_);
  void Insert(const CubeKey& key, PageId page, DataCube&& cube)
      RASED_EXCLUDES(mu_);

  /// Sized insert: `encoded_bytes` is the cube's exact serialized length
  /// (the catalog's blob_bytes — what the byte budget charges). The query
  /// executor uses this to admit misses without re-encoding.
  void Insert(const CubeKey& key, PageId page, uint64_t encoded_bytes,
              DataCube&& cube) RASED_EXCLUDES(mu_);

  /// Whether Insert can ever admit (true only for kLru). Lets the executor
  /// skip materializing cache copies entirely under the static policies.
  bool AdmitsOnQuery() const {
    return options_.policy == CachePolicy::kLru;
  }

  bool Contains(const CubeKey& key) const RASED_EXCLUDES(mu_);

  /// Page-validated membership test (the optimizer's probe of one cube).
  bool Contains(const CubeKey& key, PageId page) const RASED_EXCLUDES(mu_);

  /// How many of `keys[i]` are cached from `pages[i]`, probed under one
  /// lock acquisition (the optimizer's probe of a run of daily cubes).
  size_t CountContained(std::span<const CubeKey> keys,
                        std::span<const PageId> pages) const
      RASED_EXCLUDES(mu_);

  /// Drops every cached cube whose window overlaps `range`. Called when
  /// the monthly rebuild rewrites a month's cubes (and its month/year
  /// ancestors) underneath the cache; callers re-Warm afterwards to refill
  /// the freed slots. In-flight readers holding shared_ptrs are unharmed.
  void InvalidateRange(const DateRange& range) RASED_EXCLUDES(mu_);

  size_t size() const RASED_EXCLUDES(mu_);
  /// Encoded bytes currently charged against the budget.
  uint64_t bytes_used() const RASED_EXCLUDES(mu_);
  uint64_t budget_bytes() const { return options_.byte_budget; }
  const CacheOptions& options() const { return options_; }
  CacheStats stats() const RASED_EXCLUDES(mu_);
  void ResetStats() RASED_EXCLUDES(mu_);
  void Clear() RASED_EXCLUDES(mu_);

 private:
  void AdmitLru(const CubeKey& key, PageId page, uint64_t bytes,
                std::shared_ptr<const DataCube> cube) RASED_REQUIRES(mu_);
  /// Preloads the newest cubes of `level` that fit in `max_bytes` of
  /// encoded size. Selection is pure catalog metadata (no I/O needed to
  /// decide what fits); only the selected cubes are read.
  void Preload(const TemporalIndex* index, const CatalogSnapshot& snapshot,
               Level level, uint64_t max_bytes) RASED_EXCLUDES(mu_);
  void ClearLocked() RASED_REQUIRES(mu_);

  const CacheOptions options_;  // immutable after construction

  /// Registry handles (all set together in the constructor when
  /// options_.metrics is non-null, else all null). The counters update
  /// lock-free; the resident gauge is set under mu_ right after entry
  /// surgery so it always mirrors entries_.size().
  struct CacheMetrics {
    Counter* hits = nullptr;
    Counter* misses = nullptr;
    Counter* admissions = nullptr;
    Counter* evictions = nullptr;
    Counter* preloads = nullptr;
    Gauge* resident = nullptr;        // cubes
    Gauge* resident_bytes = nullptr;  // encoded bytes charged
    Gauge* budget_bytes = nullptr;    // configured byte budget
  };
  CacheMetrics metrics_ RASED_CONST_AFTER_INIT;

  /// Guards every mutable member below. Held only for map/list surgery,
  /// never across index I/O (Preload reads the cube first, then locks to
  /// admit it), so worker threads contend only on pointer-sized critical
  /// sections.
  mutable Mutex mu_;

  CacheStats stats_ RASED_GUARDED_BY(mu_);

  // Entry storage. lru_list_ is maintained only under the kLru policy.
  // Cubes are shared_ptr<const> so hits escape the lock safely.
  struct Entry {
    std::shared_ptr<const DataCube> cube;
    /// Page the cube was read from — the entry's version for MVCC
    /// validation. kInvalidPageId marks unvalidated (page-less) inserts.
    PageId page = kInvalidPageId;
    /// Encoded bytes this entry charges against the byte budget.
    uint64_t bytes = 0;
    std::list<CubeKey>::iterator lru_it;
    bool in_lru = false;
  };
  std::unordered_map<CubeKey, Entry, CubeKeyHash> entries_
      RASED_GUARDED_BY(mu_);
  std::list<CubeKey> lru_list_ RASED_GUARDED_BY(mu_);  // front = most recent
  /// Sum of entries_[*].bytes — the budget charge.
  uint64_t bytes_used_ RASED_GUARDED_BY(mu_) = 0;
};

}  // namespace rased

#endif  // RASED_CACHE_CUBE_CACHE_H_
