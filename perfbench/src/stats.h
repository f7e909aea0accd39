#ifndef RASED_PERFBENCH_STATS_H_
#define RASED_PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds. The benchmark times calls that take a
/// few microseconds, below the resolution of util/clock.h's NowMicros.
int64_t NowNanos();

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
/// Takes a copy so callers keep their sample order.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The process's peak resident set (VmHWM) in bytes, from /proc/self/status.
uint64_t PeakRssBytes();

/// Machine-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor gave to other guests (steal). Logged beside
/// each run so a slow run on a busy host can be told from a slow program.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Total size of the regular files under `dir`, recursively.
uint64_t DirBytes(const std::string& dir);

}  // namespace perfbench

#endif  // RASED_PERFBENCH_STATS_H_
