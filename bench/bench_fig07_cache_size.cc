// Figure 7 — Setting RASED cache size.
//
// Query response time as a function of the cube cache size, for query
// loads spanning 1, 3, 6 and 12 months. The paper sweeps 128 MB .. 4 GB,
// "which can fit from 32 to 1,000 data cubes"; the cache budget is in
// bytes now, so the sweep sets byte budgets with room for the same cube
// counts at this index's mean encoded cube size, and labels them with
// the paper-scale byte equivalents (slots x 4.4 MB paper cubes). Dense
// cube sizes would not do: adaptive compression makes cubes small enough
// that even the smallest such budget holds most of the index, which
// flattens the curve the figure is about.

#include "bench_common.h"

using namespace rased;
using namespace rased::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::FromArgs(argc, argv);
  auto index = OpenOrBuildIndex(env, /*num_levels=*/4);
  auto world = MakeWorld(env);

  const int kSlotSweep[] = {32, 64, 128, 256, 512, 1000};
  const int kSpansMonths[] = {1, 3, 6, 12};

  PrintHeader("Figure 7: query response time vs cache size",
              "RASED full system; device model " +
                  StrFormat("%lld us/page;",
                            static_cast<long long>(
                                env.device.read_latency_us)) +
                  " each point = mean of " +
                  std::to_string(env.queries_per_point) +
                  " single-cell queries");
  PrintRow({"cache (cubes)", "paper equiv", "1 month", "3 months",
            "6 months", "12 months"});

  for (int slots : kSlotSweep) {
    CacheOptions cache_options;
    cache_options.byte_budget =
        BudgetForEncodedCubes(*index, static_cast<size_t>(slots));
    cache_options.policy = CachePolicy::kRasedRecency;
    CubeCache cache(cache_options);
    Status s = cache.Warm(index.get());
    RASED_CHECK(s.ok()) << s.ToString();
    index->pager()->ResetStats();

    QueryExecutor executor(index.get(), &cache, world.get());
    std::vector<std::string> row = {
        std::to_string(slots),
        StrFormat("%.0f MB", slots * 4.39),  // 549,000-cell paper cubes
    };
    for (int months : kSpansMonths) {
      // Same query set for every cache size, so rows are comparable.
      Rng rng(env.seed + static_cast<uint64_t>(months));
      QueryLoadResult r = RunQueryLoad(&executor, env, *world, rng,
                                       env.queries_per_point, months * 30);
      row.push_back(FmtMillis(r.mean_millis));
    }
    PrintRow(row);
  }

  std::printf(
      "\nExpected shape (paper): response time falls as the cache grows and\n"
      "saturates once the working set fits; longer windows saturate at\n"
      "larger cache sizes (512 MB / 1 GB / 2 GB for 3/6/12 months).\n");
  return 0;
}
