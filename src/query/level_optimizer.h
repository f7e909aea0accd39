#ifndef RASED_QUERY_LEVEL_OPTIMIZER_H_
#define RASED_QUERY_LEVEL_OPTIMIZER_H_

#include <vector>

#include "cache/cube_cache.h"
#include "index/temporal_index.h"
#include "index/temporal_key.h"
#include "util/date.h"

namespace rased {

/// The set of cubes a query will aggregate.
struct QueryPlan {
  std::vector<CubeKey> cubes;
  /// Of those, how many the optimizer expects to find in cache.
  size_t expected_cached = 0;
  size_t expected_disk() const { return cubes.size() - expected_cached; }
};

/// The level optimizer (Section VII-B): given a query window, choose the
/// mix of daily/weekly/monthly/yearly cubes that covers it exactly while
/// fetching the fewest cubes from disk — cached cubes are free. Section
/// VII-B's worked example (Jan 1 – Feb 15) is reproduced verbatim in the
/// unit tests.
///
/// Plans are computed against a pinned CatalogSnapshot, so a plan never
/// mixes cube availability from two different published versions; cache
/// probes are page-validated against the same snapshot.
///
/// The search is a nested cover over the time hierarchy. Weeks nest in
/// months and months in years (days 29-31 are daily-only stragglers), so
/// no cube crosses a month boundary and the optimal cover of a window is
/// the sum of independent optimal covers of the hierarchy nodes it
/// touches. A node fully inside the window is worth min(its own cube, the
/// cover by its children); on a tie the children win. A node the window
/// only overlaps is covered by its children. Days without a daily cube
/// cost nothing to cover.
///
/// Two exact prunes let a node take its own cube without visiting its
/// children, whenever the cube exists and the node's first and last days
/// both have daily cubes (so any cover by children takes at least two
/// cubes):
///  * the cube is cached: it costs (0 disk, 1 cube) against at least
///    (0, 2) for the children;
///  * the cube is not cached and some child has no disk-free cover: the
///    children then cost at least (1, 2) against (1, 1). That check stops
///    at the first child that needs the disk.
/// The work therefore grows with the hierarchy nodes visited, not with the
/// days in the window: a warm 16-year window visits 16 yearly nodes.
class LevelOptimizer {
 public:
  /// `cache` may be null (no caching, the RASED-O variant of Figure 9).
  LevelOptimizer(const TemporalIndex* index, const CubeCache* cache)
      : index_(index), cache_(cache) {}

  /// Exact minimum-cost cover, resolved against `snapshot`. Cost is
  /// lexicographic (disk fetches, total cubes): plans with fewer disk
  /// reads win; among those, fewer cubes overall.
  QueryPlan Plan(const CatalogSnapshot& snapshot,
                 const DateRange& range) const;

  /// The flat plan: daily cubes only (the RASED-F variant of Figure 9 and
  /// the forced plan for date-grouped queries).
  QueryPlan PlanFlat(const CatalogSnapshot& snapshot,
                     const DateRange& range) const;

  // Conveniences pinning the index's current version for one plan. The
  // executor pins a single snapshot per query and uses the overloads
  // above instead.
  QueryPlan Plan(const DateRange& range) const {
    return Plan(index_->Snapshot(), range);
  }
  QueryPlan PlanFlat(const DateRange& range) const {
    return PlanFlat(index_->Snapshot(), range);
  }

 private:
  const TemporalIndex* index_;
  const CubeCache* cache_;
};

}  // namespace rased

#endif  // RASED_QUERY_LEVEL_OPTIMIZER_H_
