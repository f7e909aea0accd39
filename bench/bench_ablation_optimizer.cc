// Ablation — level optimizer exactness and cost (DESIGN.md §3.1).
//
// RASED's optimizer is an exact nested cover over the time hierarchy.
// This ablation compares it against (a) the flat all-daily plan and (b) a
// simple greedy top-down cover (grab fully contained yearly cubes, then
// monthly, then weekly, then daily — with no cache awareness), measuring
// plan size, expected disk fetches and the wall time of planning itself,
// with no cache, a 5% recency cache and a fully warm cache.
//
// Usage: bench_ablation_optimizer [--quick] [key=value ...]
//   --quick: fewer windows and timing repetitions (CI smoke gate). Fails
//            if an optimized plan expects more disk fetches than the flat
//            plan of the same window.

#include "bench_common.h"
#include "index/temporal_key.h"
#include "util/clock.h"

using namespace rased;
using namespace rased::bench;

namespace {

// Greedy top-down cover, the "obvious" heuristic a first implementation
// would use. Correct but cache-oblivious and not always minimal.
std::vector<CubeKey> GreedyCover(const TemporalIndex& index,
                                 const DateRange& range) {
  std::vector<CubeKey> cover;
  std::vector<DateRange> pending = {range};
  for (Level level : {Level::kYearly, Level::kMonthly, Level::kWeekly,
                      Level::kDaily}) {
    std::vector<DateRange> next;
    for (const DateRange& gap : pending) {
      if (gap.empty()) continue;
      std::vector<CubeKey> keys;
      for (const CubeKey& key : KeysCoveredBy(level, gap)) {
        if (index.Contains(key)) keys.push_back(key);
      }
      if (keys.empty()) {
        next.push_back(gap);
        continue;
      }
      // Contiguous keys at one level; gaps remain before and after.
      cover.insert(cover.end(), keys.begin(), keys.end());
      next.push_back(DateRange(gap.first, keys.front().range().first.prev()));
      next.push_back(DateRange(keys.back().range().last.next(), gap.last));
    }
    pending = std::move(next);
  }
  return cover;
}

/// Mean cubes, expected disk fetches and wall microseconds per plan.
struct PlanCost {
  double cubes = 0;
  double disk = 0;
  double micros = 0;
};

/// Plans every window once for its size, then `reps` more times for the
/// wall time, and averages over the windows.
template <typename PlanFn>
PlanCost MeasurePlans(const std::vector<DateRange>& windows, int reps,
                      PlanFn plan, std::vector<size_t>* disk_per_window) {
  PlanCost cost;
  disk_per_window->clear();
  for (const DateRange& window : windows) {
    QueryPlan result = plan(window);
    cost.cubes += static_cast<double>(result.cubes.size());
    cost.disk += static_cast<double>(result.expected_disk());
    disk_per_window->push_back(result.expected_disk());
  }
  StopWatch watch;
  for (int r = 0; r < reps; ++r) {
    for (const DateRange& window : windows) plan(window);
  }
  const double n = static_cast<double>(windows.size());
  cost.cubes /= n;
  cost.disk /= n;
  cost.micros = static_cast<double>(watch.ElapsedMicros()) / (n * reps);
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  // Config wants key=value pairs; the mode flag is ours, not its.
  bool quick = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      quick = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  BenchEnv env = BenchEnv::FromArgs(static_cast<int>(args.size()),
                                    args.data());
  if (quick) env.queries_per_point = 8;
  const int reps = quick ? 5 : 50;
  auto index = OpenOrBuildIndex(env, /*num_levels=*/4);
  auto world = MakeWorld(env);

  CacheOptions partial_options;
  partial_options.byte_budget = BudgetFraction(*index, 0.05);
  CubeCache partial(partial_options);
  CubeCache warm{CacheOptions{}};  // 2 GiB: every cube of the index
  for (CubeCache* cache : {&partial, &warm}) {
    Status s = cache->Warm(index.get());
    RASED_CHECK(s.ok()) << s.ToString();
  }

  struct CacheCase {
    const char* name;
    const CubeCache* cache;
    double fraction;
  };
  const CacheCase cases[] = {{"none", nullptr, 0.0},
                             {"5% recency", &partial, 0.05},
                             {"warm", &warm, 1.0}};

  PrintHeader("Ablation: level optimizer",
              "means over " + std::to_string(env.queries_per_point) +
                  " random windows: cubes and expected disk fetches per "
                  "plan, wall us per plan (" +
                  std::to_string(reps) + " repetitions)");
  PrintRow({"window", "cache", "flat cubes", "flat disk", "flat us",
            "greedy cubes", "opt cubes", "opt disk", "opt us"});

  int gate_failures = 0;
  for (int years : {1, 4, 16}) {
    Rng rng(env.seed + 900 + static_cast<uint64_t>(years));
    std::vector<DateRange> windows;
    double greedy_cubes = 0;
    for (int i = 0; i < env.queries_per_point; ++i) {
      AnalysisQuery q = RandomCellQuery(env, *world, rng, years * 365);
      windows.push_back(q.range.Intersect(index->coverage()));
      greedy_cubes +=
          static_cast<double>(GreedyCover(*index, windows.back()).size());
    }
    greedy_cubes /= static_cast<double>(windows.size());

    for (const CacheCase& c : cases) {
      LevelOptimizer optimizer(index.get(), c.cache);
      std::vector<size_t> flat_disk, opt_disk;
      PlanCost flat = MeasurePlans(
          windows, reps,
          [&](const DateRange& w) { return optimizer.PlanFlat(w); },
          &flat_disk);
      PlanCost opt = MeasurePlans(
          windows, reps, [&](const DateRange& w) { return optimizer.Plan(w); },
          &opt_disk);
      for (size_t i = 0; i < windows.size(); ++i) {
        if (opt_disk[i] > flat_disk[i]) {
          ++gate_failures;
          std::fprintf(stderr,
                       "optimized plan of %s (%s cache) expects %zu disk "
                       "fetches, flat plan %zu\n",
                       windows[i].ToString().c_str(), c.name, opt_disk[i],
                       flat_disk[i]);
        }
      }
      PrintRow({StrFormat("%d year%s", years, years > 1 ? "s" : ""), c.name,
                FmtCount(flat.cubes), FmtCount(flat.disk),
                StrFormat("%.2f", flat.micros), FmtCount(greedy_cubes),
                FmtCount(opt.cubes), FmtCount(opt.disk),
                StrFormat("%.2f", opt.micros)});
      PrintJsonLine("ablation_optimizer",
                    {{"years", static_cast<double>(years)},
                     {"cache_fraction", c.fraction},
                     {"flat_cubes", flat.cubes},
                     {"flat_disk", flat.disk},
                     {"flat_plan_us", flat.micros},
                     {"greedy_cubes", greedy_cubes},
                     {"opt_cubes", opt.cubes},
                     {"opt_disk", opt.disk},
                     {"opt_plan_us", opt.micros}});
    }
  }
  RASED_CHECK(gate_failures == 0)
      << gate_failures
      << " optimized plans expect more disk fetches than the flat plan";

  std::printf(
      "\nExpected: greedy and the optimizer agree on cube counts without a\n"
      "cache (the hierarchy nests cleanly), but only the cache-aware\n"
      "optimizer drives expected disk fetches toward zero by preferring\n"
      "resident cubes. Planning time grows with the hierarchy nodes\n"
      "visited: a warm or uncached window plans in microseconds however\n"
      "many days it spans; the flat plan pays per day.\n");
  return 0;
}
