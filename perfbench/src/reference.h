#ifndef RASED_PERFBENCH_REFERENCE_H_
#define RASED_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "collect/update_record.h"
#include "cube/data_cube.h"
#include "geo/world_map.h"
#include "osm/road_types.h"
#include "synth/synth_options.h"
#include "util/date.h"
#include "util/thread_annotations.h"

namespace perfbench {

/// The dashboard panels of the paper's Figures 2-5 plus the sample view.
/// A panel is a request template whose window trails the newest day.
enum class Panel {
  kCountryYear = 0,     // trailing-year totals per country (/api/query)
  kLeadingElements,     // country x element type, leading countries
  kRoadTypes,           // road types of one country, trailing year
  kTimeSeries,          // daily series with Percentage(*), two countries
  kOverview,            // whole-history country x update type
  kSqlCountry,          // kCountryYear again, through /api/sql
  kSample,              // bounding-box sample updates (/api/sample)
};
inline constexpr int kNumPanels = 7;

/// Expected rows of an analysis answer: row label -> count. A label joins
/// the grouped fields the dashboard renders, in a fixed order
/// ("country=Germany|element_type=way"); an ungrouped answer has the
/// single label "". Zero counts are absent, as in the dashboard's output.
using Rows = std::map<std::string, uint64_t>;

/// One Section VIII single-cell query: one value per dimension.
struct CellQuery {
  rased::DateRange range;
  rased::ZoneId country = 0;
  uint32_t element_type = 0;
  uint32_t road_type = 0;
  uint32_t update_type = 0;
  uint64_t expected = 0;  // filled in as days are folded
};

/// The independent reference the benchmark checks every answer against.
/// It never touches the index, cache, optimizer or executor: day cubes
/// come straight from CubeSynthesizer::DayCube, or are counted here from
/// UpdateGenerator::GenerateDayRecords, and each day is folded into
/// prefix sums for every panel and into the expected count of every cell
/// query covering it. Days must be folded in order, starting at
/// `first_day`. Thread-safe: a producer thread may fold days while client
/// threads ask for expected answers.
class Reference {
 public:
  Reference(const rased::CubeSchema& schema,
            const rased::SynthOptions& synth, uint64_t seed,
            rased::Date first_day);

  /// Names and geography, built independently of the instance.
  const rased::WorldMap& world() const { return *world_; }
  std::string RoadTypeName(uint32_t id) const { return roads_.Name(
      static_cast<rased::RoadTypeId>(id)); }

  // ---- seeded panel choices (fixed per seed) ----
  const std::vector<rased::ZoneId>& leading() const { return leading_; }
  const rased::BoundingBox& sample_box() const { return sample_box_; }
  static constexpr size_t kSampleSize = 100;

  /// The request target of `panel` with its window ending on `newest`.
  std::string Target(Panel panel, rased::Date newest) const;

  /// Cell queries: `count` seeded queries with windows of 1 day to 5 years
  /// (log-uniform) placed uniformly inside `coverage`. Must be called
  /// before the first day is folded.
  void MakeCellQueries(size_t count, const rased::DateRange& coverage);
  const std::vector<CellQuery>& cell_queries() const { return cells_; }
  std::string CellTarget(const CellQuery& q) const;

  // ---- folding ----
  void AddDayCube(rased::Date day, const rased::DataCube& cube)
      RASED_EXCLUDES(mu_);
  /// Counts `records` into a day cube the way the documented ingest
  /// contract does (country, its continent and US state; road types past
  /// the schema in "other"). With `crawled`, update types take the daily
  /// crawler's provisional classification: "new" stays, every other kind
  /// lands in the provisional-update slot.
  void AddDayRecords(rased::Date day,
                     const std::vector<rased::UpdateRecord>& records,
                     bool crawled) RASED_EXCLUDES(mu_);
  /// Changeset ids of every record folded through AddDayRecords.
  bool KnownChangeset(uint64_t id) const RASED_EXCLUDES(mu_);

  // ---- expected answers ----
  /// Expected rows of an analysis panel ending on `newest` (folded).
  Rows Expected(Panel panel, rased::Date newest) const RASED_EXCLUDES(mu_);
  /// Road-network size of a zone: the Percentage(*) denominator.
  uint64_t RoadNetworkSize(rased::ZoneId zone) const {
    return world_->zone(zone).road_network_size;
  }
  /// Zone id for a rendered country name (-1 if unknown).
  int ZoneByName(const std::string& name) const;


 private:
  /// The days a panel's window covers when it ends on `newest`.
  static rased::DateRange Window(Panel panel, rased::Date newest,
                                 rased::Date first_day);
  void FoldLocked(rased::Date day, const rased::DataCube& cube)
      RASED_REQUIRES(mu_);
  std::string CountryParam(const std::vector<rased::ZoneId>& ids) const;

  const rased::CubeSchema schema_;
  const rased::Date first_day_;
  std::unique_ptr<rased::WorldMap> world_;
  rased::RoadTypeTable roads_;
  std::vector<rased::ZoneId> leading_;
  rased::ZoneId road_country_ = 0;
  rased::ZoneId series_[2] = {0, 0};
  rased::BoundingBox sample_box_;
  std::vector<bool> partition_;      // country-kind zones + (unknown)
  std::vector<int> leading_slot_;    // zone -> index into leading_, or -1
  uint64_t seed_;

  // Prefix sums over folded days, row-major [day][width]; row 0 is the
  // empty prefix. Time-series values are kept per day, not summed.
  size_t w_country_, w_leading_, w_roads_, w_overview_;

  mutable rased::Mutex mu_;
  std::vector<uint64_t> country_ RASED_GUARDED_BY(mu_);
  std::vector<uint64_t> leading_sum_ RASED_GUARDED_BY(mu_);
  std::vector<uint64_t> roads_sum_ RASED_GUARDED_BY(mu_);
  std::vector<uint64_t> overview_ RASED_GUARDED_BY(mu_);
  std::vector<uint64_t> series_day_ RASED_GUARDED_BY(mu_);
  std::unordered_set<uint64_t> changesets_ RASED_GUARDED_BY(mu_);
  int32_t days_ RASED_GUARDED_BY(mu_) = 0;
  /// Written only while folding (under mu_); read by clients once the
  /// instance is built and no more days fold.
  std::vector<CellQuery> cells_;
};

}  // namespace perfbench

#endif  // RASED_PERFBENCH_REFERENCE_H_
