#include "query/level_optimizer.h"

#include <optional>
#include <span>

namespace rased {

namespace {

/// Lexicographic plan cost: (disk fetches, total cubes).
struct Cost {
  uint32_t disk = 0;
  uint32_t cubes = 0;

  Cost& operator+=(const Cost& other) {
    disk += other.disk;
    cubes += other.cubes;
    return *this;
  }
  friend bool operator<(const Cost& a, const Cost& b) {
    return a.disk != b.disk ? a.disk < b.disk : a.cubes < b.cubes;
  }
};

/// One Plan call: the nested cover of `window`, emitted into `out` in
/// chronological order (see the LevelOptimizer class comment).
class NestedCover {
 public:
  NestedCover(const CatalogSnapshot& snapshot, const CubeCache* cache,
              const DateRange& window, std::vector<CubeKey>* out)
      : snapshot_(snapshot), cache_(cache), window_(window), out_(out) {}

  /// Optimal cover of the part of `key`'s window inside the query window
  /// (a weekly, monthly or yearly node).
  Cost Cover(const CubeKey& key) {
    const DateRange node = key.range();
    if (!window_.Contains(node)) return CoverChildren(key);
    std::optional<PageId> page = snapshot_.PageOf(key);
    if (!page.has_value()) return CoverChildren(key);
    const bool cached = InCache(key, *page);
    const Cost own{cached ? 0u : 1u, 1u};
    if (HasDaily(node.first) && HasDaily(node.last) &&
        (cached || !ChildrenFree(key))) {
      out_->push_back(key);
      return own;
    }
    const size_t mark = out_->size();
    const Cost children = CoverChildren(key);
    if (own < children) {  // strictly: on a tie the children stay
      out_->resize(mark);
      out_->push_back(key);
      return own;
    }
    return children;
  }

 private:
  Cost CoverChildren(const CubeKey& key) {
    const DateRange part = key.range().Intersect(window_);
    Cost cost;
    switch (key.level) {
      case Level::kDaily:
        break;
      case Level::kWeekly:
        cost += CoverDays(part);
        break;
      case Level::kMonthly:
        for (int w = 0; w < 4; ++w) {
          CubeKey week{Level::kWeekly, key.start.AddDays(7 * w)};
          if (week.range().Overlaps(part)) cost += Cover(week);
        }
        cost += CoverDays(StragglersOf(key).Intersect(part));
        break;
      case Level::kYearly:
        for (Date m = part.first.month_start(); m <= part.last;
             m = m.AddMonths(1)) {
          cost += Cover(CubeKey::Monthly(m));
        }
        break;
    }
    return cost;
  }

  /// Every existing daily cube of `days`, from one ordered catalog walk
  /// and one batched cache probe.
  Cost CoverDays(const DateRange& days) {
    if (days.empty()) return {};
    const size_t begin = out_->size();
    pages_.clear();
    snapshot_.ExistingPages(Level::kDaily, days, out_, &pages_);
    const auto n = static_cast<uint32_t>(out_->size() - begin);
    uint32_t cached = 0;
    if (cache_ != nullptr) {
      cached = static_cast<uint32_t>(cache_->CountContained(
          std::span<const CubeKey>(out_->data() + begin, n), pages_));
    }
    return Cost{n - cached, n};
  }

  /// Whether every child of `key` (a node fully inside the window) has a
  /// cover with no disk fetch. Stops at the first child that has none.
  bool ChildrenFree(const CubeKey& key) {
    if (key.level == Level::kWeekly) return DaysFree(key.range());
    if (key.level == Level::kMonthly) {
      for (int w = 0; w < 4; ++w) {
        if (!NodeFree(CubeKey{Level::kWeekly, key.start.AddDays(7 * w)})) {
          return false;
        }
      }
      return DaysFree(StragglersOf(key));
    }
    for (int m = 0; m < 12; ++m) {
      if (!NodeFree(CubeKey::Monthly(key.start.AddMonths(m)))) return false;
    }
    return true;
  }

  bool NodeFree(const CubeKey& key) {
    std::optional<PageId> page = snapshot_.PageOf(key);
    return (page.has_value() && InCache(key, *page)) || ChildrenFree(key);
  }

  /// A day is free when it has no daily cube or its cube is cached.
  bool DaysFree(const DateRange& days) {
    for (Date d = days.first; d <= days.last; d = d.next()) {
      const CubeKey key = CubeKey::Daily(d);
      std::optional<PageId> page = snapshot_.PageOf(key);
      if (page.has_value() && !InCache(key, *page)) return false;
    }
    return true;
  }

  bool InCache(const CubeKey& key, PageId page) const {
    return cache_ != nullptr && cache_->Contains(key, page);
  }

  bool HasDaily(Date day) const {
    return snapshot_.Contains(CubeKey::Daily(day));
  }

  /// Days 29..31 of a monthly node: daily-only, in no week.
  static DateRange StragglersOf(const CubeKey& month) {
    return DateRange(month.start.AddDays(28), month.range().last);
  }

  // NOLINT-RASED(snapshot-member): borrowed for one Plan call; pins nothing
  const CatalogSnapshot& snapshot_;
  const CubeCache* cache_;
  const DateRange window_;
  std::vector<CubeKey>* out_;
  std::vector<PageId> pages_;  // CoverDays working buffer
};

}  // namespace

QueryPlan LevelOptimizer::PlanFlat(const CatalogSnapshot& snapshot,
                                   const DateRange& range) const {
  QueryPlan plan;
  std::vector<PageId> pages;
  snapshot.ExistingPages(Level::kDaily, range, &plan.cubes, &pages);
  if (cache_ != nullptr) {
    plan.expected_cached = cache_->CountContained(plan.cubes, pages);
  }
  return plan;
}

QueryPlan LevelOptimizer::Plan(const CatalogSnapshot& snapshot,
                               const DateRange& range) const {
  QueryPlan plan;
  if (range.empty()) return plan;
  NestedCover cover(snapshot, cache_, range, &plan.cubes);
  Cost total;
  for (Date year = range.first.year_start(); year <= range.last;
       year = year.AddYears(1)) {
    total += cover.Cover(CubeKey::Yearly(year));
  }
  plan.expected_cached = total.cubes - total.disk;
  return plan;
}

}  // namespace rased
