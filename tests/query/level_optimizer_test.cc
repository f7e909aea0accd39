#include "query/level_optimizer.h"

#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "io/env.h"
#include "util/random.h"

namespace rased {
namespace {

CubeSchema TinySchema() { return CubeSchema{3, 8, 4, 4}; }

class LevelOptimizerTest : public ::testing::Test {
 protected:
  // Index covering 2021-10-01 .. 2022-02-28 (so the paper's Jan 1 2022 ..
  // Feb 15 2022 example fits inside with data before it).
  void SetUp() override {
    TemporalIndexOptions options;
    options.schema = TinySchema();
    options.num_levels = 4;
    options.dir = env::JoinPath(dir_.path(), "index");
    options.device = DeviceModel::None();
    auto index = TemporalIndex::Create(options);
    ASSERT_TRUE(index.ok());
    index_ = std::move(index).value();
    for (Date d = Date::FromYmd(2021, 10, 1); d <= Date::FromYmd(2022, 2, 28);
         d = d.next()) {
      DataCube cube(TinySchema());
      cube.Add(0, 0, 0, 0, 1);
      ASSERT_TRUE(index_->AppendDay(d, cube).ok());
    }
  }

  static int CountLevel(const QueryPlan& plan, Level level) {
    int n = 0;
    for (const CubeKey& key : plan.cubes) {
      if (key.level == level) ++n;
    }
    return n;
  }

  static bool PlanCoversExactly(const QueryPlan& plan, const DateRange& r) {
    std::set<int32_t> covered;
    for (const CubeKey& key : plan.cubes) {
      DateRange kr = key.range();
      for (Date d = kr.first; d <= kr.last; d = d.next()) {
        if (!covered.insert(d.days_since_epoch()).second) return false;
      }
    }
    return covered.size() == static_cast<size_t>(r.num_days()) &&
           (covered.empty() ||
            (*covered.begin() == r.first.days_since_epoch() &&
             *covered.rbegin() == r.last.days_since_epoch()));
  }

  TempDir dir_{"optimizer-test"};
  std::unique_ptr<TemporalIndex> index_;
};

TEST_F(LevelOptimizerTest, PaperWorkedExampleWithoutCache) {
  // Section VII-B's example: Jan 1, 2022 .. Feb 15, 2022 takes 46 daily
  // cubes flat, but a mixed-level plan needs only a handful. (The paper
  // counts 10 cubes with Sunday-aligned weeks; RASED's month-clipped weeks
  // do even better: monthly Jan + weekly Feb 1-7 + weekly Feb 8-14 +
  // daily Feb 15 = 4 cubes.)
  LevelOptimizer optimizer(index_.get(), nullptr);
  DateRange window(Date::FromYmd(2022, 1, 1), Date::FromYmd(2022, 2, 15));
  QueryPlan plan = optimizer.Plan(window);
  EXPECT_EQ(plan.cubes.size(), 4u);
  EXPECT_TRUE(PlanCoversExactly(plan, window));
  EXPECT_EQ(CountLevel(plan, Level::kMonthly), 1);
  EXPECT_EQ(CountLevel(plan, Level::kWeekly), 2);
  EXPECT_EQ(CountLevel(plan, Level::kDaily), 1);

  QueryPlan flat = optimizer.PlanFlat(window);
  EXPECT_EQ(flat.cubes.size(), 46u);
  EXPECT_TRUE(PlanCoversExactly(flat, window));
}

TEST_F(LevelOptimizerTest, CacheChangesTheOptimalPlan) {
  // Section VII-B continued: if the last ~60 daily cubes are cached and
  // nothing else is, the all-daily plan has zero disk reads and wins.
  CacheOptions cache_options;
  cache_options.byte_budget = CacheOptions::BytesForCubes(60, TinySchema());
  cache_options.policy = CachePolicy::kAllDaily;
  CubeCache cache(cache_options);
  ASSERT_TRUE(cache.Warm(index_.get()).ok());

  LevelOptimizer optimizer(index_.get(), &cache);
  DateRange window(Date::FromYmd(2022, 1, 1), Date::FromYmd(2022, 2, 15));
  QueryPlan plan = optimizer.Plan(window);
  EXPECT_EQ(plan.cubes.size(), 46u);
  EXPECT_EQ(plan.expected_cached, 46u);
  EXPECT_EQ(plan.expected_disk(), 0u);
  EXPECT_EQ(CountLevel(plan, Level::kDaily), 46);
}

TEST_F(LevelOptimizerTest, FullMonthUsesMonthlyCube) {
  LevelOptimizer optimizer(index_.get(), nullptr);
  DateRange january(Date::FromYmd(2022, 1, 1), Date::FromYmd(2022, 1, 31));
  QueryPlan plan = optimizer.Plan(january);
  ASSERT_EQ(plan.cubes.size(), 1u);
  EXPECT_EQ(plan.cubes[0], CubeKey::Monthly(Date::FromYmd(2022, 1, 1)));
}

TEST_F(LevelOptimizerTest, FullWeekUsesWeeklyCube) {
  LevelOptimizer optimizer(index_.get(), nullptr);
  DateRange week(Date::FromYmd(2022, 1, 8), Date::FromYmd(2022, 1, 14));
  QueryPlan plan = optimizer.Plan(week);
  ASSERT_EQ(plan.cubes.size(), 1u);
  EXPECT_EQ(plan.cubes[0].level, Level::kWeekly);
}

TEST_F(LevelOptimizerTest, SingleDay) {
  LevelOptimizer optimizer(index_.get(), nullptr);
  DateRange day(Date::FromYmd(2022, 1, 5), Date::FromYmd(2022, 1, 5));
  QueryPlan plan = optimizer.Plan(day);
  ASSERT_EQ(plan.cubes.size(), 1u);
  EXPECT_EQ(plan.cubes[0], CubeKey::Daily(Date::FromYmd(2022, 1, 5)));
}

TEST_F(LevelOptimizerTest, EmptyRangeGivesEmptyPlan) {
  LevelOptimizer optimizer(index_.get(), nullptr);
  EXPECT_TRUE(optimizer.Plan(DateRange()).cubes.empty());
  EXPECT_TRUE(optimizer.PlanFlat(DateRange()).cubes.empty());
}

TEST_F(LevelOptimizerTest, DaysOutsideCoverageAreSkipped) {
  LevelOptimizer optimizer(index_.get(), nullptr);
  // Window starts before the index's first day.
  DateRange window(Date::FromYmd(2021, 9, 20), Date::FromYmd(2021, 10, 7));
  QueryPlan plan = optimizer.Plan(window);
  EXPECT_TRUE(!plan.cubes.empty());
  for (const CubeKey& key : plan.cubes) {
    EXPECT_GE(key.range().first, Date::FromYmd(2021, 10, 1));
  }
  // Days 10-01..10-07 must be covered (week 1 of October).
  int covered_days = 0;
  for (const CubeKey& key : plan.cubes) covered_days += key.range().num_days();
  EXPECT_EQ(covered_days, 7);
}

TEST_F(LevelOptimizerTest, PlanNeverWorseThanFlatProperty) {
  // Property: across many random windows, the optimized plan (a) covers
  // exactly the same days as the flat plan and (b) never uses more cubes.
  LevelOptimizer optimizer(index_.get(), nullptr);
  Rng rng(4242);
  Date base = Date::FromYmd(2021, 10, 1);
  for (int trial = 0; trial < 60; ++trial) {
    int start = static_cast<int>(rng.Uniform(140));
    int len = 1 + static_cast<int>(rng.Uniform(140 - start));
    DateRange window(base.AddDays(start), base.AddDays(start + len - 1));
    QueryPlan plan = optimizer.Plan(window);
    QueryPlan flat = optimizer.PlanFlat(window);
    EXPECT_TRUE(PlanCoversExactly(plan, window)) << window.ToString();
    EXPECT_LE(plan.cubes.size(), flat.cubes.size()) << window.ToString();
  }
}

TEST_F(LevelOptimizerTest, CachedCoarseCubeBeatsUncachedFine) {
  // Cache only the January monthly cube; a Jan 1-31 plan must use it even
  // though 31 cached dailies would also be "free" if they were cached.
  CacheOptions cache_options;
  cache_options.byte_budget = CacheOptions::BytesForCubes(1, TinySchema());
  cache_options.policy = CachePolicy::kRasedRecency;
  cache_options.alpha = 0.0;
  cache_options.beta = 0.0;
  cache_options.gamma = 1.0;
  cache_options.theta = 0.0;
  CubeCache cache(cache_options);
  ASSERT_TRUE(cache.Warm(index_.get()).ok());
  // The most recent monthly cube is February (from Feb 28 rollup).
  DateRange feb(Date::FromYmd(2022, 2, 1), Date::FromYmd(2022, 2, 28));
  LevelOptimizer optimizer(index_.get(), &cache);
  QueryPlan plan = optimizer.Plan(feb);
  ASSERT_EQ(plan.cubes.size(), 1u);
  EXPECT_EQ(plan.expected_cached, 1u);
}

// ---------------------------------------------------------------------------
// Differential test: the nested cover against the day-by-day DP.
// ---------------------------------------------------------------------------

/// The planner the nested cover replaced, kept as the oracle: a dynamic
/// program over every day of the window. cost[i] covers the first i days;
/// at each day it considers the daily cube (or a free skip when the day
/// has none), then any weekly, monthly or yearly cube ending there, and
/// replaces the best only on a strictly lower (disk, cubes) cost.
QueryPlan DayByDayPlan(const CatalogSnapshot& snapshot, const CubeCache* cache,
                       const DateRange& range) {
  using Cost = std::pair<uint32_t, uint32_t>;
  constexpr Cost kInfinity{UINT32_MAX, UINT32_MAX};
  auto is_cached = [&](const CubeKey& key) {
    std::optional<PageId> page = snapshot.PageOf(key);
    return cache != nullptr && page.has_value() &&
           cache->Contains(key, *page);
  };
  QueryPlan plan;
  if (range.empty()) return plan;
  const int n = range.num_days();
  struct Choice {
    CubeKey key;
    int from = 0;
    bool skip = false;
  };
  std::vector<Cost> cost(static_cast<size_t>(n) + 1, kInfinity);
  std::vector<Choice> choice(static_cast<size_t>(n) + 1);
  cost[0] = {0, 0};
  for (int i = 1; i <= n; ++i) {
    Date day = range.first.AddDays(i - 1);
    auto consider = [&](const CubeKey& key, int from, bool skip) {
      if (cost[from] == kInfinity) return;
      Cost c = cost[from];
      if (!skip) {
        c.first += is_cached(key) ? 0 : 1;
        c.second += 1;
      }
      if (c < cost[i]) {
        cost[i] = c;
        choice[i] = Choice{key, from, skip};
      }
    };
    CubeKey daily = CubeKey::Daily(day);
    consider(daily, i - 1, /*skip=*/!snapshot.Contains(daily));
    if (day.is_week_end() && i >= 7) {
      CubeKey weekly = CubeKey::Weekly(day);
      if (snapshot.Contains(weekly)) consider(weekly, i - 7, false);
    }
    if (day.is_month_end() && i >= day.days_in_month()) {
      CubeKey monthly = CubeKey::Monthly(day);
      if (snapshot.Contains(monthly)) {
        consider(monthly, i - day.days_in_month(), false);
      }
    }
    if (day.is_year_end()) {
      int diy = (day - day.year_start()) + 1;
      CubeKey yearly = CubeKey::Yearly(day);
      if (i >= diy && snapshot.Contains(yearly)) {
        consider(yearly, i - diy, false);
      }
    }
  }
  std::vector<CubeKey> reversed;
  for (int i = n; i > 0; i = choice[i].from) {
    if (!choice[i].skip) reversed.push_back(choice[i].key);
  }
  plan.cubes.assign(reversed.rbegin(), reversed.rend());
  for (const CubeKey& key : plan.cubes) {
    if (is_cached(key)) ++plan.expected_cached;
  }
  return plan;
}

/// The flat plan day by day: every existing daily cube of the window.
QueryPlan DayByDayFlatPlan(const CatalogSnapshot& snapshot,
                           const CubeCache* cache, const DateRange& range) {
  QueryPlan plan;
  for (Date d = range.first; d <= range.last; d = d.next()) {
    const CubeKey key = CubeKey::Daily(d);
    std::optional<PageId> page = snapshot.PageOf(key);
    if (!page.has_value()) continue;
    plan.cubes.push_back(key);
    if (cache != nullptr && cache->Contains(key, *page)) {
      ++plan.expected_cached;
    }
  }
  return plan;
}

std::string Describe(const QueryPlan& plan) {
  std::string out = std::to_string(plan.expected_cached) + " cached of";
  for (const CubeKey& key : plan.cubes) out += " " + key.ToString();
  return out;
}

/// Random windows around `coverage`: partial weeks, months and years,
/// log-uniform lengths from one day to past both ends of coverage, plus
/// every whole year, each leap February and the coverage itself.
std::vector<DateRange> WindowsAround(const DateRange& coverage, Rng* rng,
                                    int count) {
  const Date lo = coverage.first.AddDays(-120);
  const int span = coverage.num_days() + 240;
  std::vector<DateRange> windows;
  for (int i = 0; i < count; ++i) {
    int start = static_cast<int>(rng->Uniform(static_cast<uint64_t>(span)));
    int len = static_cast<int>(
        std::exp(rng->NextDouble() * std::log(static_cast<double>(span))));
    windows.emplace_back(lo.AddDays(start), lo.AddDays(start + len - 1));
  }
  for (Date y = lo.year_start(); y <= lo.AddDays(span); y = y.AddYears(1)) {
    windows.emplace_back(y, y.year_end());
    Date feb = Date::FromYmd(y.year(), 2, 1);
    if (feb.days_in_month() == 29) windows.emplace_back(feb, feb.month_end());
  }
  windows.push_back(coverage);
  windows.emplace_back(lo, lo.AddDays(span - 1));
  return windows;
}

/// Number of windows whose optimized or flat plan differs from its
/// oracle's; the first difference goes to `first_diff`.
int CountDifferences(const CatalogSnapshot& snapshot, const CubeCache* cache,
                     const std::vector<DateRange>& windows,
                     std::string* first_diff) {
  LevelOptimizer optimizer(nullptr, cache);
  int differences = 0;
  auto compare = [&](const char* name, const DateRange& window,
                     const QueryPlan& got, const QueryPlan& want) {
    if (got.cubes == want.cubes &&
        got.expected_cached == want.expected_cached) {
      return;
    }
    if (differences++ == 0) {
      *first_diff = std::string(name) + " " + window.ToString() +
                    "\n  got:    " + Describe(got) +
                    "\n  oracle: " + Describe(want);
    }
  };
  for (const DateRange& window : windows) {
    compare("plan", window, optimizer.Plan(snapshot, window),
            DayByDayPlan(snapshot, cache, window));
    compare("flat plan", window, optimizer.PlanFlat(snapshot, window),
            DayByDayFlatPlan(snapshot, cache, window));
  }
  return differences;
}

/// LRU cache holding a random `fraction` of the snapshot's cubes, each
/// under its own page, plus some under a page the snapshot does not
/// resolve them to (stale entries page validation must reject).
std::unique_ptr<CubeCache> RandomSubsetCache(const CatalogSnapshot& snapshot,
                                             const DateRange& coverage,
                                             double fraction, Rng* rng) {
  CacheOptions options;
  options.policy = CachePolicy::kLru;
  auto cache = std::make_unique<CubeCache>(options);
  DateRange all(coverage.first.year_start(), coverage.last.year_end());
  for (int level = 0; level < kNumLevels; ++level) {
    for (const CubeKey& key :
         snapshot.ExistingKeys(static_cast<Level>(level), all)) {
      double draw = rng->NextDouble();
      if (draw >= fraction && draw < 0.98) continue;
      PageId page = *snapshot.PageOf(key);
      if (draw >= fraction) page += 1000000;  // stale
      cache->Insert(key, page, /*encoded_bytes=*/16, DataCube(TinySchema()));
    }
  }
  return cache;
}

TEST(LevelOptimizerDifferentialTest, MatchesDayByDayPlanOnRealIndexes) {
  TempDir dir("optimizer-diff");
  // Partial years at both ends and the 2020 leap year in between.
  const DateRange coverage(Date::FromYmd(2018, 11, 17),
                           Date::FromYmd(2021, 3, 9));
  Rng rng(20220101);
  for (int num_levels = 1; num_levels <= 4; ++num_levels) {
    TemporalIndexOptions options;
    options.schema = TinySchema();
    options.num_levels = num_levels;
    options.dir =
        env::JoinPath(dir.path(), "index" + std::to_string(num_levels));
    options.device = DeviceModel::None();
    auto created = TemporalIndex::Create(options);
    ASSERT_TRUE(created.ok());
    std::unique_ptr<TemporalIndex> index = std::move(created).value();
    for (Date d = coverage.first; d <= coverage.last; d = d.next()) {
      DataCube cube(TinySchema());
      cube.Add(0, 0, 0, 0, 1);
      ASSERT_TRUE(index->AppendDay(d, cube).ok());
    }
    CatalogSnapshot snapshot = index->Snapshot();
    const std::vector<DateRange> windows = WindowsAround(coverage, &rng, 250);

    CacheOptions recency;
    recency.byte_budget = snapshot.StorageStats().encoded_bytes / 20;
    CubeCache partial(recency);
    ASSERT_TRUE(partial.Warm(index.get()).ok());
    ASSERT_GT(partial.size(), 0u);

    CacheOptions daily_only;
    daily_only.byte_budget = snapshot.StorageStats().encoded_bytes / 5;
    daily_only.policy = CachePolicy::kAllDaily;
    CubeCache all_daily(daily_only);
    ASSERT_TRUE(all_daily.Warm(index.get()).ok());

    CubeCache warm{CacheOptions{}};
    ASSERT_TRUE(warm.Warm(index.get()).ok());
    ASSERT_EQ(warm.size(), snapshot.StorageStats().total_cubes);

    std::unique_ptr<CubeCache> lru =
        RandomSubsetCache(snapshot, coverage, 0.3, &rng);

    const std::pair<const char*, const CubeCache*> states[] = {
        {"no cache", nullptr},
        {"5% recency", &partial},
        {"20% all-daily recency", &all_daily},
        {"fully warm", &warm},
        {"LRU random subset", lru.get()}};
    for (const auto& [name, cache] : states) {
      std::string first_diff;
      EXPECT_EQ(CountDifferences(snapshot, cache, windows, &first_diff), 0)
          << num_levels << " levels, " << name << ": " << first_diff;
    }
  }
}

TEST(LevelOptimizerDifferentialTest, MatchesDayByDayPlanOnCatalogsWithGaps) {
  // Catalog versions built directly, so dailies and rollups can be missing
  // in combinations the append path never produces.
  const DateRange coverage(Date::FromYmd(2019, 8, 3),
                           Date::FromYmd(2021, 5, 26));
  Rng rng(7);
  for (int num_levels = 1; num_levels <= 4; ++num_levels) {
    for (double drop : {0.02, 0.15, 0.5}) {
      auto version = std::make_shared<CatalogVersion>();
      version->epoch = 1;
      version->first_day = coverage.first;
      version->last_day = coverage.last;
      PageId next_page = 0;
      const DateRange all(coverage.first.year_start(),
                          coverage.last.year_end());
      for (int level = 0; level < num_levels; ++level) {
        auto map = std::make_shared<CatalogVersion::LevelMap>();
        for (const CubeKey& key :
             KeysCoveredBy(static_cast<Level>(level), all)) {
          if (!key.range().Overlaps(coverage) || rng.NextDouble() < drop) {
            continue;
          }
          CubeLoc loc;
          loc.first_page = next_page++;
          (*map)[key.start] = loc;
        }
        version->levels[level] = std::move(map);
      }
      CatalogSnapshot snapshot(version);
      const std::vector<DateRange> windows =
          WindowsAround(coverage, &rng, 150);
      for (double fraction : {0.0, 0.4, 0.9, 1.0}) {
        std::unique_ptr<CubeCache> cache =
            RandomSubsetCache(snapshot, coverage, fraction, &rng);
        std::string first_diff;
        EXPECT_EQ(CountDifferences(snapshot, cache.get(), windows, &first_diff),
                  0)
            << num_levels << " levels, drop " << drop << ", cached "
            << fraction << ": " << first_diff;
      }
      std::string first_diff;
      EXPECT_EQ(CountDifferences(snapshot, nullptr, windows, &first_diff), 0)
          << num_levels << " levels, drop " << drop << ", no cache: "
          << first_diff;
    }
  }
}

}  // namespace
}  // namespace rased
