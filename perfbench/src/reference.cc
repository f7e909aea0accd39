#include "reference.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "http_client.h"
#include "synth/activity_model.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/str_util.h"

namespace perfbench {

using rased::Date;
using rased::DateRange;
using rased::ZoneId;

namespace {

constexpr int kTrailingYear = 365;
constexpr int kSeriesDays = 90;
constexpr size_t kLeading = 5;

const char* ElementName(uint32_t e) {
  static const char* kNames[] = {"node", "way", "relation"};
  return e < 3 ? kNames[e] : "?";
}

/// Update-type names as /api/query accepts and renders them.
const char* UpdateParamName(uint32_t update_type) {
  static const char* kNames[] = {"new", "delete", "geometry", "metadata"};
  return update_type < 4 ? kNames[update_type] : "?";
}

}  // namespace

Reference::Reference(const rased::CubeSchema& schema,
                     const rased::SynthOptions& synth, uint64_t seed,
                     Date first_day)
    : schema_(schema),
      first_day_(first_day),
      world_(std::make_unique<rased::WorldMap>(schema.num_countries)),
      roads_(schema.num_road_types),
      seed_(seed) {
  rased::ActivityModel model(synth, world_.get(), schema.num_road_types);
  model.InitRoadNetworkSizes(world_.get());

  // Leading countries by activity weight; the panels that name countries
  // draw them from the leaders with the benchmark seed.
  std::vector<ZoneId> ranked = world_->country_ids();
  std::stable_sort(ranked.begin(), ranked.end(), [&](ZoneId a, ZoneId b) {
    return model.CountryWeight(a) > model.CountryWeight(b);
  });
  leading_.assign(ranked.begin(),
                  ranked.begin() + static_cast<long>(kLeading));
  rased::Rng rng(seed ^ 0x9a4e15ull);
  std::vector<ZoneId> top(ranked.begin(), ranked.begin() + 10);
  rng.Shuffle(top);
  road_country_ = top[0];
  series_[0] = top[1];
  series_[1] = top[2];
  // The sample box: the most active country's bounds (a sample's cost
  // grows with the records in its box, so every seed samples the same
  // country), snapped inward to a quarter degree so the printed request
  // and the check agree exactly.
  const rased::BoundingBox& b = world_->zone(leading_[0]).bounds;
  sample_box_ = rased::BoundingBox{std::ceil(b.min_lat * 4) / 4,
                                   std::ceil(b.min_lon * 4) / 4,
                                   std::floor(b.max_lat * 4) / 4,
                                   std::floor(b.max_lon * 4) / 4};

  partition_.assign(schema.num_countries, false);
  partition_[rased::kZoneUnknown] = true;
  for (ZoneId id : world_->country_ids()) partition_[id] = true;
  leading_slot_.assign(schema.num_countries, -1);
  for (size_t i = 0; i < leading_.size(); ++i) {
    leading_slot_[leading_[i]] = static_cast<int>(i);
  }

  w_country_ = schema.num_countries;
  w_leading_ = kLeading * schema.num_element_types;
  w_roads_ = schema.num_road_types;
  w_overview_ = static_cast<size_t>(schema.num_countries) *
                schema.num_update_types;
  rased::MutexLock lock(&mu_);
  country_.assign(w_country_, 0);
  leading_sum_.assign(w_leading_, 0);
  roads_sum_.assign(w_roads_, 0);
  overview_.assign(w_overview_, 0);
}

std::string Reference::CountryParam(const std::vector<ZoneId>& ids) const {
  std::string out;
  for (ZoneId id : ids) {
    if (!out.empty()) out += ",";
    out += UrlEncode(world_->zone(id).name);
  }
  return out;
}

DateRange Reference::Window(Panel panel, Date newest, Date first_day) {
  Date first = first_day;
  switch (panel) {
    case Panel::kTimeSeries:
      first = newest.AddDays(-(kSeriesDays - 1));
      break;
    case Panel::kOverview:
      break;
    default:
      first = newest.AddDays(-(kTrailingYear - 1));
  }
  return DateRange(std::max(first, first_day), newest);
}

std::string Reference::Target(Panel panel, Date newest) const {
  DateRange w = Window(panel, newest, first_day_);
  std::string span =
      "from=" + w.first.ToString() + "&to=" + w.last.ToString();
  switch (panel) {
    case Panel::kCountryYear:
      return "/api/query?" + span + "&group=country";
    case Panel::kLeadingElements:
      return "/api/query?" + span + "&countries=" + CountryParam(leading_) +
             "&group=country,element_type";
    case Panel::kRoadTypes:
      return "/api/query?" + span + "&countries=" +
             CountryParam({road_country_}) + "&group=road_type";
    case Panel::kTimeSeries:
      return "/api/query?" + span + "&countries=" +
             CountryParam({series_[0], series_[1]}) +
             "&group=date&percentage=1";
    case Panel::kOverview:
      return "/api/query?" + span + "&group=country,update_type";
    case Panel::kSqlCountry:
      return "/api/sql?q=" +
             UrlEncode("SELECT Country, COUNT(*) FROM UpdateList U WHERE "
                       "U.Date BETWEEN '" + w.first.ToString() + "' AND '" +
                       w.last.ToString() + "' GROUP BY Country");
    case Panel::kSample:
      return rased::StrFormat(
          "/api/sample?min_lat=%.2f&min_lon=%.2f&max_lat=%.2f&max_lon=%.2f"
          "&n=%zu",
          sample_box_.min_lat, sample_box_.min_lon, sample_box_.max_lat,
          sample_box_.max_lon, kSampleSize);
  }
  return "";
}

void Reference::MakeCellQueries(size_t count, const DateRange& coverage) {
  rased::Rng rng(seed_ ^ 0xce11ull);
  const auto& countries = world_->country_ids();
  const double max_span = std::min(5 * 365 + 1, coverage.num_days());
  cells_.resize(count);
  for (CellQuery& q : cells_) {
    q.country = countries[rng.Uniform(countries.size())];
    q.element_type = static_cast<uint32_t>(rng.Uniform(
        schema_.num_element_types));
    // Road types 0 and 1 are "(none)" and the "other" bucket, which the
    // dashboard's road_types parameter cannot name.
    q.road_type = 2 + static_cast<uint32_t>(
                          rng.Uniform(schema_.num_road_types - 2));
    q.update_type = static_cast<uint32_t>(rng.Uniform(
        schema_.num_update_types));
    int span = static_cast<int>(std::exp(rng.NextDouble() *
                                         std::log(max_span)));
    span = std::clamp(span, 1, coverage.num_days());
    Date first = coverage.first.AddDays(static_cast<int>(
        rng.Uniform(static_cast<uint64_t>(coverage.num_days() - span + 1))));
    q.range = DateRange(first, first.AddDays(span - 1));
    q.expected = 0;
  }
}

std::string Reference::CellTarget(const CellQuery& q) const {
  return "/api/query?from=" + q.range.first.ToString() +
         "&to=" + q.range.last.ToString() +
         "&countries=" + UrlEncode(world_->zone(q.country).name) +
         "&element_types=" + ElementName(q.element_type) +
         "&road_types=" + UrlEncode(RoadTypeName(q.road_type)) +
         "&update_types=" + UpdateParamName(q.update_type);
}

void Reference::AddDayCube(Date day, const rased::DataCube& cube) {
  rased::MutexLock lock(&mu_);
  RASED_CHECK(day == first_day_.AddDays(days_))
      << "reference days must fold in order";
  FoldLocked(day, cube);
}

void Reference::AddDayRecords(Date day,
                              const std::vector<rased::UpdateRecord>& records,
                              bool crawled) {
  rased::DataCube cube(schema_);
  for (const rased::UpdateRecord& r : records) {
    uint32_t e = static_cast<uint32_t>(r.element_type);
    uint32_t u = static_cast<uint32_t>(r.update_type);
    if (crawled && r.update_type != rased::UpdateType::kNew) {
      u = static_cast<uint32_t>(rased::kProvisionalUpdate);
    }
    uint32_t rt = r.road_type < schema_.num_road_types ? r.road_type : 1u;
    rased::WorldMap::ZoneSet zones =
        world_->ZonesForCountry(r.country, rased::LatLon{r.lat, r.lon});
    if (zones.count == 0) {
      cube.Add(e, rased::kZoneUnknown, rt, u);
      continue;
    }
    for (int i = 0; i < zones.count; ++i) cube.Add(e, zones.ids[i], rt, u);
  }
  rased::MutexLock lock(&mu_);
  RASED_CHECK(day == first_day_.AddDays(days_))
      << "reference days must fold in order";
  for (const rased::UpdateRecord& r : records) {
    changesets_.insert(r.changeset_id);
  }
  FoldLocked(day, cube);
}

void Reference::FoldLocked(Date day, const rased::DataCube& cube) {
  const size_t base_c = country_.size() - w_country_;
  const size_t base_l = leading_sum_.size() - w_leading_;
  const size_t base_r = roads_sum_.size() - w_roads_;
  const size_t base_o = overview_.size() - w_overview_;
  // Start the new prefix row from the previous one.
  country_.insert(country_.end(), country_.begin() + base_c,
                  country_.begin() + base_c + w_country_);
  leading_sum_.insert(leading_sum_.end(), leading_sum_.begin() + base_l,
                      leading_sum_.begin() + base_l + w_leading_);
  roads_sum_.insert(roads_sum_.end(), roads_sum_.begin() + base_r,
                    roads_sum_.begin() + base_r + w_roads_);
  overview_.insert(overview_.end(), overview_.begin() + base_o,
                   overview_.begin() + base_o + w_overview_);
  uint64_t* c_row = country_.data() + country_.size() - w_country_;
  uint64_t* l_row = leading_sum_.data() + leading_sum_.size() - w_leading_;
  uint64_t* r_row = roads_sum_.data() + roads_sum_.size() - w_roads_;
  uint64_t* o_row = overview_.data() + overview_.size() - w_overview_;
  uint64_t series[2] = {0, 0};

  const uint32_t ne = schema_.num_element_types, nc = schema_.num_countries,
                 nr = schema_.num_road_types, nu = schema_.num_update_types;
  for (uint32_t e = 0; e < ne; ++e) {
    for (uint32_t c = 0; c < nc; ++c) {
      const bool in_partition = partition_[c];
      const int lead = leading_slot_[c];
      for (uint32_t r = 0; r < nr; ++r) {
        for (uint32_t u = 0; u < nu; ++u) {
          uint64_t v = cube.Get(e, c, r, u);
          if (v == 0) continue;
          if (in_partition) {
            c_row[c] += v;
            o_row[c * nu + u] += v;
          }
          if (lead >= 0) l_row[static_cast<size_t>(lead) * ne + e] += v;
          if (c == road_country_) r_row[r] += v;
          if (c == series_[0]) series[0] += v;
          if (c == series_[1]) series[1] += v;
        }
      }
    }
  }
  series_day_.push_back(series[0]);
  series_day_.push_back(series[1]);

  for (CellQuery& q : cells_) {
    if (q.range.Contains(day)) {
      q.expected += cube.Get(q.element_type, q.country, q.road_type,
                             q.update_type);
    }
  }
  ++days_;
}

bool Reference::KnownChangeset(uint64_t id) const {
  rased::MutexLock lock(&mu_);
  return changesets_.count(id) > 0;
}

int Reference::ZoneByName(const std::string& name) const {
  auto id = world_->FindByName(name);
  return id.ok() ? static_cast<int>(id.value()) : -1;
}

Rows Reference::Expected(Panel panel, Date newest) const {
  DateRange w = Window(panel, newest, first_day_);
  Rows rows;
  rased::MutexLock lock(&mu_);
  RASED_CHECK(newest - first_day_ < days_) << "window past the folded days";
  // Prefix row i covers the first i folded days.
  const size_t hi = static_cast<size_t>(w.last - first_day_) + 1;
  const size_t lo = static_cast<size_t>(w.first - first_day_);
  auto span = [&](const std::vector<uint64_t>& prefix, size_t width,
                  size_t i) {
    return prefix[hi * width + i] - prefix[lo * width + i];
  };
  auto put = [&rows](std::string label, uint64_t count) {
    if (count != 0) rows[std::move(label)] = count;
  };
  auto country = [this](uint32_t id) {
    return "country=" + world_->zone(static_cast<ZoneId>(id)).name;
  };
  switch (panel) {
    case Panel::kCountryYear:
    case Panel::kSqlCountry:
      for (uint32_t c = 0; c < w_country_; ++c) {
        put(country(c), span(country_, w_country_, c));
      }
      break;
    case Panel::kLeadingElements:
      for (size_t i = 0; i < leading_.size(); ++i) {
        for (uint32_t e = 0; e < schema_.num_element_types; ++e) {
          put(country(leading_[i]) + "|element_type=" + ElementName(e),
              span(leading_sum_, w_leading_,
                   i * schema_.num_element_types + e));
        }
      }
      break;
    case Panel::kRoadTypes:
      for (uint32_t r = 0; r < w_roads_; ++r) {
        put("road_type=" + RoadTypeName(r), span(roads_sum_, w_roads_, r));
      }
      break;
    case Panel::kTimeSeries:
      for (Date d = w.first; d <= w.last; d = d.next()) {
        size_t i = static_cast<size_t>(d - first_day_);
        for (int k = 0; k < 2; ++k) {
          put(country(series_[k]) + "|date=" + d.ToString(),
              series_day_[2 * i + static_cast<size_t>(k)]);
        }
      }
      break;
    case Panel::kOverview:
      for (uint32_t c = 0; c < schema_.num_countries; ++c) {
        for (uint32_t u = 0; u < schema_.num_update_types; ++u) {
          put(country(c) + "|update_type=" + UpdateParamName(u),
              span(overview_, w_overview_, c * schema_.num_update_types + u));
        }
      }
      break;
    case Panel::kSample:
      break;
  }
  return rows;
}

}  // namespace perfbench
