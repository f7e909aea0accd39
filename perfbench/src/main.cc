// The RASED dashboard benchmark. Builds a synthetic 16-year instance,
// boots a real DashboardService on loopback and drives one workload over
// HTTP from in-process closed-loop clients, checking every answer against
// an independent reference. With --trace 1 it then replays the same
// requests and ingest days in-process, timing the public call into each
// layer. The last stdout line is the result object; see perfbench/README.md.
//
//   rased_perfbench --workload panels-warm|cells-cold|ingest-mixed
//                   --seed N --seconds S --trace 0|1 --data DIR

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rased.h"
#include "cube/agg_kernels.h"
#include "dashboard/dashboard_service.h"
#include "dashboard/http_server.h"
#include "dashboard/render.h"
#include "http_client.h"
#include "index/cube_builder.h"
#include "json.h"
#include "obs/build_info.h"
#include "query/sql_parser.h"
#include "reference.h"
#include "stats.h"
#include "synth/cube_synthesizer.h"
#include "synth/update_generator.h"
#include "util/random.h"
#include "util/str_util.h"

namespace perfbench {
namespace {

using rased::Date;
using rased::DateRange;

// ---- fixed make-up of the inputs (README "Inputs") ----
const Date kBaseFirst = Date::FromYmd(2006, 1, 1);
const Date kRecordsFirst = Date::FromYmd(2021, 1, 1);  // warehouse-stocked
const Date kBaseLast = Date::FromYmd(2021, 12, 31);
constexpr double kBaseUpdatesPerDay = 40.0;
constexpr int kMaxWorkers = 4;
constexpr int kCpus = 1;  // the system under test runs on this many CPUs
constexpr size_t kCellPool = 4096;
constexpr double kColdBudgetFraction = 0.05;
constexpr int kSetupRepeats = 3;
constexpr int kTailDays = 365;         // idle ingest after a read workload
constexpr size_t kReplayRequests = 2000;
constexpr int kReplayIngestDays = 150;  // ingest days of a traced replay
constexpr int kSampleCalls = 50;        // sample layer on cells-cold
constexpr int kStoreDays = 365;         // ingest-mixed sizes its store here
// How far the replayed mean execute time may stray from the mean the
// server measured for the same requests (README "Tolerance").
constexpr double kExecuteTolerance = 0.35;

enum class Workload { kPanelsWarm, kCellsCold, kIngestMixed };

/// Closed-loop client threads. The read-only workloads run one, a single
/// dashboard user, so each request is timed alone: with two sharing the
/// one CPU, a request's time was mostly the other client's panel, and
/// which panels overlapped depended on the seeded panel orders.
/// `ingest-mixed` runs two readers beside the writer.
int ClientsFor(Workload w) { return w == Workload::kIngestMixed ? 2 : 1; }

struct Args {
  std::string workload_name;
  Workload workload = Workload::kPanelsWarm;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
};

void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void Log(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::fputs("[perfbench] ", stderr);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
}

[[noreturn]] void Die(const std::string& message) {
  Log("error: %s", message.c_str());
  std::exit(2);
}

void Expect(const rased::Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args->workload_name = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--data") {
      args->data_dir = value;
    } else {
      return false;
    }
  }
  if (args->workload_name == "panels-warm") {
    args->workload = Workload::kPanelsWarm;
  } else if (args->workload_name == "cells-cold") {
    args->workload = Workload::kCellsCold;
  } else if (args->workload_name == "ingest-mixed") {
    args->workload = Workload::kIngestMixed;
  } else {
    return false;
  }
  return args->seconds > 0 && !args->data_dir.empty();
}

/// The CPUs the process was confined to, and the rest of those it may use.
struct CpuSplit {
  int confined = 1;
  cpu_set_t rest;
  int rest_count = 0;
};

/// Confines the calling thread, and so every thread it starts later, to
/// the first `max_cpus` CPUs it may run on. On a shared virtual machine
/// the figures of a process spread over several virtual CPUs swing with
/// the host's load (README "Steadiness").
CpuSplit ConfineToCpus(int max_cpus) {
  CpuSplit split;
  CPU_ZERO(&split.rest);
  cpu_set_t allowed, confined;
  CPU_ZERO(&confined);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    split.confined = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    return split;
  }
  int n = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (n < max_cpus) {
      CPU_SET(cpu, &confined);
      ++n;
    } else {
      CPU_SET(cpu, &split.rest);
      ++split.rest_count;
    }
  }
  if (sched_setaffinity(0, sizeof(confined), &confined) != 0) {
    split.confined = CPU_COUNT(&allowed);
    split.rest_count = 0;
    return split;
  }
  split.confined = n;
  return split;
}

rased::SynthOptions SynthFor(uint64_t seed) {
  rased::SynthOptions synth;
  synth.seed = seed;
  synth.period = DateRange(kBaseFirst, kBaseLast);
  synth.base_updates_per_day = kBaseUpdatesPerDay;
  return synth;
}

rased::RasedOptions OptionsFor(const std::string& dir, uint64_t budget) {
  rased::RasedOptions options;
  options.dir = dir;
  options.schema = rased::CubeSchema::BenchScale();
  options.cache.byte_budget = budget;
  return options;
}

// ---------------------------------------------------------------------------
// Answer checking

/// Counters every answer check feeds; shared by all client threads.
struct CheckLog {
  std::mutex mu;
  uint64_t mismatches = 0;

  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (++mismatches <= 5) Log("MISMATCH %s", what.c_str());
  }
};

/// What one analysis response reported about its own execution.
struct AnswerStats {
  int64_t cpu_micros = 0;  // the executor's own wall time, server side
  int64_t total_micros = 0;
  uint64_t cubes_total = 0, cubes_from_cache = 0, cubes_from_disk = 0;
  uint64_t page_reads = 0;
};

/// Rebuilds the label -> count map from a rendered analysis answer, and
/// checks each Percentage(*) value against the reference denominator.
bool ReadRows(const Reference& ref, const JsonValue& doc, Rows* rows,
              std::string* error) {
  const JsonValue* list = doc.Find("rows");
  if (list == nullptr || !list->is_array()) {
    *error = "no rows array";
    return false;
  }
  static const char* kFields[] = {"country", "date", "element_type",
                                  "road_type", "update_type"};
  for (const JsonValue& row : list->items) {
    std::string label;
    for (const char* field : kFields) {
      const JsonValue* v = row.Find(field);
      if (v == nullptr) continue;
      if (!label.empty()) label += "|";
      label += std::string(field) + "=" + v->text;
    }
    const JsonValue* count = row.Find("count");
    if (count == nullptr) {
      *error = "row without count";
      return false;
    }
    if (!rows->emplace(label, count->AsUint()).second) {
      *error = "duplicate row " + label;
      return false;
    }
    if (const JsonValue* pct = row.Find("percentage")) {
      const JsonValue* country = row.Find("country");
      int zone = country == nullptr ? -1 : ref.ZoneByName(country->text);
      if (zone < 0) {
        *error = "percentage row without a known country";
        return false;
      }
      uint64_t size = ref.RoadNetworkSize(static_cast<rased::ZoneId>(zone));
      double want = size > 0 ? 100.0 * static_cast<double>(count->AsUint()) /
                                   static_cast<double>(size)
                             : 0.0;
      // The dashboard prints doubles with six significant digits.
      if (std::abs(pct->AsDouble() - want) > 1e-5 * std::abs(want) + 1e-12) {
        *error = rased::StrFormat("percentage %s for %s, want %.9g",
                                  pct->text.c_str(), label.c_str(), want);
        return false;
      }
    }
  }
  return true;
}

std::string DescribeDiff(const Rows& got, const Rows& want) {
  for (const auto& [label, count] : want) {
    auto it = got.find(label);
    uint64_t g = it == got.end() ? 0 : it->second;
    if (g != count) {
      return rased::StrFormat("'%s' got %llu want %llu", label.c_str(),
                              static_cast<unsigned long long>(g),
                              static_cast<unsigned long long>(count));
    }
  }
  for (const auto& [label, count] : got) {
    if (want.count(label) == 0) return "unexpected row '" + label + "'";
  }
  return "rows differ";
}

/// Checks an analysis answer body against `want`; fills `stats`.
bool CheckAnalysis(const Reference& ref, const std::string& body,
                   const Rows& want, AnswerStats* stats, std::string* error) {
  JsonValue doc;
  if (!ParseJson(body, &doc, error)) return false;
  Rows got;
  if (!ReadRows(ref, doc, &got, error)) return false;
  if (got != want) {
    *error = DescribeDiff(got, want);
    return false;
  }
  if (stats != nullptr) {
    const JsonValue* s = doc.Find("stats");
    if (s == nullptr) {
      *error = "no stats object";
      return false;
    }
    auto field = [s](const char* name) {
      const JsonValue* v = s->Find(name);
      return v == nullptr ? uint64_t{0} : v->AsUint();
    };
    stats->cpu_micros = static_cast<int64_t>(field("cpu_micros"));
    stats->total_micros = static_cast<int64_t>(field("total_micros"));
    stats->cubes_total = field("cubes_total");
    stats->cubes_from_cache = field("cubes_from_cache");
    stats->cubes_from_disk = field("cubes_from_disk");
    stats->page_reads = field("page_reads");
  }
  return true;
}

/// Checks a /api/sample answer: exactly n records, each inside the box,
/// dated inside the stocked days, from a changeset the generator made.
bool CheckSample(const Reference& ref, const std::string& body, Date newest,
                 std::string* error) {
  JsonValue doc;
  if (!ParseJson(body, &doc, error)) return false;
  const JsonValue* list = doc.Find("samples");
  if (list == nullptr || !list->is_array()) {
    *error = "no samples array";
    return false;
  }
  if (list->items.size() != Reference::kSampleSize) {
    *error = rased::StrFormat("%zu samples, want %zu", list->items.size(),
                              Reference::kSampleSize);
    return false;
  }
  const rased::BoundingBox& box = ref.sample_box();
  for (const JsonValue& r : list->items) {
    const JsonValue *lat = r.Find("lat"), *lon = r.Find("lon"),
                    *date = r.Find("date"), *cs = r.Find("changeset");
    if (lat == nullptr || lon == nullptr || date == nullptr || cs == nullptr) {
      *error = "sample record missing a field";
      return false;
    }
    if (!box.Contains(rased::LatLon{lat->AsDouble(), lon->AsDouble()})) {
      *error = "sample outside the box";
      return false;
    }
    auto d = Date::Parse(date->text);
    if (!d.ok() || d.value() < kRecordsFirst || d.value() > newest) {
      *error = "sample dated " + date->text + " outside the stocked days";
      return false;
    }
    if (!ref.KnownChangeset(cs->AsUint())) {
      *error = "sample from unknown changeset " + cs->text;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Requests

/// One request of the closed loop, as issued and as answered.
struct Request {
  int16_t panel = -1;       // Panel, or -1 for a cell query
  uint32_t cell = 0;        // index into the cell pool
  int32_t newest = 0;       // days since epoch of the window's last day
  double latency_ms = 0;
  int64_t done_ns = 0;      // completion time since the phase started
  bool ok = false;
  AnswerStats stats;
};

bool IsAnalysis(const Request& r) {
  return r.panel != static_cast<int>(Panel::kSample);
}

std::string TargetOf(const Reference& ref, const Request& r) {
  if (r.panel < 0) return ref.CellTarget(ref.cell_queries()[r.cell]);
  return ref.Target(static_cast<Panel>(r.panel), Date::FromDays(r.newest));
}

/// The newest day queries may name, and the newest day handed to the
/// writer. A day's records reach the warehouse before its publication
/// returns, so samples may hold records of the day being published.
struct Progress {
  std::atomic<int32_t> published{kBaseLast.days_since_epoch()};
  std::atomic<int32_t> handed{kBaseLast.days_since_epoch()};
};

/// Sends one request, checks the answer, and fills in the outcome. An
/// analysis window ends on the newest published day as it stands when the
/// request is sent.
void Issue(const Reference& ref, int port, const Progress& progress,
           Request* r, CheckLog* checks) {
  r->newest = progress.published.load();
  std::string target = TargetOf(ref, *r);
  HttpReply reply = HttpGet(port, target);
  r->latency_ms = static_cast<double>(reply.latency_ns) / 1e6;
  if (!reply.ok || reply.status != 200) {
    checks->Fail(target + ": " +
                 (reply.ok ? "HTTP " + std::to_string(reply.status) + " " +
                                 reply.body.substr(0, 200)
                           : reply.error));
    return;
  }
  r->ok = true;
  std::string error;
  bool good;
  if (!IsAnalysis(*r)) {
    good = CheckSample(ref, reply.body,
                       Date::FromDays(progress.handed.load()), &error);
  } else {
    Rows want;
    if (r->panel < 0) {
      uint64_t count = ref.cell_queries()[r->cell].expected;
      if (count != 0) want[""] = count;
    } else {
      want = ref.Expected(static_cast<Panel>(r->panel),
                          Date::FromDays(r->newest));
    }
    good = CheckAnalysis(ref, reply.body, want, &r->stats, &error);
  }
  if (!good) checks->Fail(target + ": " + error);
}

/// Runs the closed loop: `clients` threads, each waiting for its answer
/// before sending the next request, whole rounds until the deadline.
/// `next_round` fills one round of requests for a client.
template <typename NextRound>
std::vector<Request> ClosedLoop(const Reference& ref, int port,
                                const Progress& progress, int clients,
                                double seconds, CheckLog* checks,
                                NextRound next_round, double* elapsed_s) {
  std::vector<std::vector<Request>> done(clients);
  const int64_t start = NowNanos();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Request> round;
      while (NowNanos() < deadline) {
        round.clear();
        next_round(c, &round);
        for (Request& r : round) {
          Issue(ref, port, progress, &r, checks);
          r.done_ns = NowNanos() - start;
          done[c].push_back(r);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *elapsed_s = static_cast<double>(NowNanos() - start) / 1e9;
  std::vector<Request> all;
  for (auto& v : done) all.insert(all.end(), v.begin(), v.end());
  return all;
}

// ---------------------------------------------------------------------------
// Instance set-up

struct Instance {
  std::unique_ptr<rased::Rased> rased;
  std::unique_ptr<rased::DashboardService> service;
};

/// Builds the 16-year instance in `dir`: day cubes straight from the
/// synthesizer up to 2020, then one year of generated records through
/// IngestDayRecords so the warehouse holds the last year's updates. Every
/// day is folded into the reference too; that time is not set-up.
double BuildInstance(const std::string& dir, uint64_t seed, Reference* ref,
                     uint64_t* encoded_bytes, uint64_t* total_cubes) {
  const int64_t start = NowNanos();
  int64_t reference_ns = 0;
  rased::RasedOptions options = OptionsFor(dir, 0);
  auto created = rased::Rased::Create(options);
  Expect(created.status(), "create instance");
  std::unique_ptr<rased::Rased> rased = std::move(created).value();
  rased::SynthOptions synth = SynthFor(seed);
  rased::UpdateGenerator gen(synth, &rased->world(), rased->road_types());
  gen.activity().InitRoadNetworkSizes(rased->mutable_world());
  rased::CubeSynthesizer cubes(synth, &rased->world(), options.schema);
  for (Date d = kBaseFirst; d <= kBaseLast; d = d.next()) {
    if (d < kRecordsFirst) {
      rased::DataCube cube = cubes.DayCube(d);
      Expect(rased->IngestDayCube(d, cube), "ingest day cube");
      const int64_t t = NowNanos();
      ref->AddDayCube(d, cube);
      reference_ns += NowNanos() - t;
    } else {
      std::vector<rased::UpdateRecord> records = gen.GenerateDayRecords(d);
      Expect(rased->IngestDayRecords(d, records), "ingest day records");
      const int64_t t = NowNanos();
      ref->AddDayRecords(d, records, /*crawled=*/false);
      reference_ns += NowNanos() - t;
    }
  }
  Expect(rased->Sync(), "sync");
  rased::IndexStorageStats st = rased->index()->StorageStats();
  *encoded_bytes = st.encoded_bytes;
  *total_cubes = st.total_cubes;
  rased.reset();
  return static_cast<double>(NowNanos() - start - reference_ns) / 1e9;
}

/// Opens the built instance with `budget` and warms its cache.
std::unique_ptr<rased::Rased> OpenWarm(const std::string& dir,
                                       uint64_t budget) {
  auto opened = rased::Rased::Open(OptionsFor(dir, budget));
  Expect(opened.status(), "open instance");
  Expect(opened.value()->WarmCache(), "warm cache");
  return std::move(opened).value();
}

void StopInstance(Instance* inst) {
  if (inst->service != nullptr) inst->service->Stop();
  inst->service.reset();
  inst->rased.reset();
}

// ---------------------------------------------------------------------------
// Ingest

/// One day's crawler input, generated ahead of the writer.
struct Day {
  Date date;
  rased::DayArtifacts artifacts;
  size_t records = 0;
};

/// Generates day artifacts after the base period, in order, and folds the
/// same records into the reference (with the daily crawler's provisional
/// update types) before the day can be published.
class DayFeed {
 public:
  DayFeed(uint64_t seed, Reference* ref)
      : world_(rased::CubeSchema::BenchScale().num_countries),
        roads_(rased::CubeSchema::BenchScale().num_road_types),
        gen_(SynthFor(seed), &world_, &roads_),
        ref_(ref),
        next_(kBaseLast.next()) {}

  Day Next() {
    Day day;
    day.date = next_;
    next_ = next_.next();
    std::vector<rased::UpdateRecord> records = gen_.GenerateDayRecords(day.date);
    day.records = records.size();
    day.artifacts = gen_.GenerateDayArtifacts(day.date);
    ref_->AddDayRecords(day.date, records, /*crawled=*/true);
    return day;
  }

 private:
  rased::WorldMap world_;
  rased::RoadTypeTable roads_;
  rased::UpdateGenerator gen_;
  Reference* ref_;
  Date next_;
};

/// After a publication: the new day is visible with exactly the records
/// generated for it, and the catalog epoch has grown.
void CheckPublished(const rased::Rased& rased, const Day& day,
                    uint64_t epoch_before, CheckLog* checks) {
  uint64_t epoch = rased.index()->epoch();
  if (epoch <= epoch_before) {
    checks->Fail("epoch did not grow publishing " + day.date.ToString());
  }
  rased::AnalysisQuery q;
  q.range = DateRange(day.date, day.date);
  auto result = rased.Query(q);
  uint64_t total = 0;
  if (result.ok()) {
    for (const auto& row : result.value().rows) total += row.count;
  }
  if (!result.ok() || total != day.records) {
    checks->Fail(rased::StrFormat("day %s total %llu, generated %zu",
                                  day.date.ToString().c_str(),
                                  static_cast<unsigned long long>(total),
                                  day.records));
  }
}

struct IngestLog {
  std::vector<double> publish_ms;
  int days = 0;
  size_t records = 0;
  double ingest_s = 0;  // sum of IngestDailyArtifacts wall time
};

/// Publishes `day` through the daily pipeline and times the call.
void PublishDay(rased::Rased* rased, const Day& day, IngestLog* log,
                CheckLog* checks) {
  uint64_t epoch = rased->index()->epoch();
  const int64_t t = NowNanos();
  rased::Status s = rased->IngestDailyArtifacts(
      day.date, day.artifacts.osc_xml, day.artifacts.changesets_xml);
  const double ms = static_cast<double>(NowNanos() - t) / 1e6;
  if (!s.ok()) {
    checks->Fail("ingest " + day.date.ToString() + ": " + s.ToString());
    return;
  }
  log->publish_ms.push_back(ms);
  log->ingest_s += ms / 1e3;
  ++log->days;
  log->records += day.records;
  CheckPublished(*rased, day, epoch, checks);
}

// ---------------------------------------------------------------------------
// Property checks over HTTP (after the timed phase; not timed)

uint64_t TotalOf(const Rows& rows) {
  uint64_t sum = 0;
  for (const auto& [label, count] : rows) sum += count;
  return sum;
}

class PropertyChecker {
 public:
  PropertyChecker(const Reference& ref, int port, CheckLog* checks)
      : ref_(ref), port_(port), checks_(checks) {}

  int requests() const { return requests_; }

  /// Runs every property on windows ending at `newest`.
  void Run(Date newest, uint64_t seed) {
    DateRange year(newest.AddDays(-364), newest);
    // Grouped rows sum to the ungrouped total, which matches the reference.
    uint64_t total = Total(year, "");
    uint64_t want = TotalOf(ref_.Expected(Panel::kCountryYear, newest));
    if (total != want) {
      Fail(rased::StrFormat("year total %llu, reference %llu",
                            static_cast<unsigned long long>(total),
                            static_cast<unsigned long long>(want)));
    }
    for (const char* g : {"country", "element_type", "road_type",
                          "update_type"}) {
      uint64_t grouped = TotalOf(Get(Span(year) + "&group=" + g));
      if (grouped != total) Fail(std::string("group=") + g + " rows sum");
    }
    // A window's counts equal the sum of its two halves.
    rased::Rng rng(seed ^ 0x4a1full);
    for (int i = 0; i < 4; ++i) {
      int span = 2 + static_cast<int>(rng.Uniform(3000));
      Date last = newest.AddDays(-static_cast<int>(rng.Uniform(2000)));
      DateRange w(std::max(kBaseFirst, last.AddDays(-(span - 1))), last);
      Date mid = w.first.AddDays(w.num_days() / 2);
      std::string filter = i % 2 == 0 ? "" : "&countries=" +
          UrlEncode(ref_.world().zone(ref_.leading()[0]).name) +
          "&element_types=way&update_types=new";
      uint64_t whole = Total(w, filter);
      uint64_t halves = Total(DateRange(w.first, mid.prev()), filter) +
                        Total(DateRange(mid, w.last), filter);
      if (whole != halves) Fail("window " + w.ToString() + " != its halves");
    }
    // An explicitly filtered continent equals the sum of its countries.
    const rased::WorldMap& world = ref_.world();
    for (const rased::Zone& z : world.zones()) {
      if (z.kind != rased::ZoneKind::kContinent) continue;
      std::string members;
      for (rased::ZoneId id : world.country_ids()) {
        if (world.zone(id).parent != z.id) continue;
        if (!members.empty()) members += ",";
        members += UrlEncode(world.zone(id).name);
      }
      if (members.empty()) continue;
      uint64_t continent = Total(year, "&countries=" + UrlEncode(z.name));
      uint64_t sum = TotalOf(
          Get(Span(year) + "&countries=" + members + "&group=country"));
      if (continent != sum) Fail("continent " + z.name + " != its members");
    }
    // Percentage(*) is the count over the country's road-network size
    // (ReadRows checks every percentage row), and /api/zones serves the
    // same denominators.
    Get(Span(year) + "&group=country&percentage=1");
    CheckZones();
  }

 private:
  void Fail(const std::string& what) { checks_->Fail("property: " + what); }

  static std::string Span(const DateRange& w) {
    return "/api/query?from=" + w.first.ToString() + "&to=" +
           w.last.ToString();
  }

  Rows Get(const std::string& target) {
    ++requests_;
    HttpReply reply = HttpGet(port_, target);
    Rows rows;
    JsonValue doc;
    std::string error;
    if (!reply.ok || reply.status != 200 ||
        !ParseJson(reply.body, &doc, &error) ||
        !ReadRows(ref_, doc, &rows, &error)) {
      Fail(target + ": " + (reply.ok ? error : reply.error));
    }
    return rows;
  }

  uint64_t Total(const DateRange& w, const std::string& filter) {
    return TotalOf(Get(Span(w) + filter));
  }

  void CheckZones() {
    ++requests_;
    HttpReply reply = HttpGet(port_, "/api/zones");
    JsonValue doc;
    std::string error;
    if (!reply.ok || !ParseJson(reply.body, &doc, &error)) {
      Fail("/api/zones unreadable");
      return;
    }
    const JsonValue* zones = doc.Find("zones");
    if (zones == nullptr || zones->items.size() != ref_.world().num_zones()) {
      Fail("/api/zones lists the wrong zones");
      return;
    }
    for (const JsonValue& z : zones->items) {
      const JsonValue *id = z.Find("id"), *size = z.Find("road_network_size");
      if (id == nullptr || size == nullptr ||
          size->AsUint() != ref_.RoadNetworkSize(
                                static_cast<rased::ZoneId>(id->AsUint()))) {
        Fail("road-network size differs from the reference");
        return;
      }
    }
  }

  const Reference& ref_;
  int port_;
  CheckLog* checks_;
  int requests_ = 0;
};

// ---------------------------------------------------------------------------
// Traced replay

/// Per-layer samples over the replay; each *_us figure is a mean in the end.
struct LayerTotals {
  std::vector<double> parse, execute, render, response_kb, unattributed,
      plan, probe, fetch, aggregate, alloc_kb, sample, overhead, client;
  std::vector<double> server_execute;  // the same requests' HTTP-phase cpu_micros
  uint64_t cubes_total = 0, cubes_cached = 0;
  uint64_t page_reads = 0, read_ops = 0, bytes_read = 0;
  int64_t device_us = 0;
  std::set<uint64_t> epochs;
  int analysis = 0;

  // Ingest layers, per replayed day.
  std::vector<double> crawl_ms, build_ms, append_ms, wh_append_ms,
      unattributed_ms, pages_written, pages_reused, encoded_kb;
};

double MsSince(int64_t t) { return static_cast<double>(NowNanos() - t) / 1e6; }
double UsSince(int64_t t) { return static_cast<double>(NowNanos() - t) / 1e3; }

/// Wall micros of the executor stage `name` in a query's own spans.
double SpanUs(const rased::QueryResult& result, const char* name) {
  for (const rased::TraceSpan& span : result.spans) {
    if (span.name == name) return static_cast<double>(span.wall_micros);
  }
  Die(std::string("query result without a '") + name + "' span");
}

/// Replays one recorded request in-process against `rased` twice: plain,
/// with parse, execute and render under one timer, and traced, with a timer
/// around each call. The two passes swap order from one request to the
/// next (`traced_first`), so neither gains from running second; traced
/// minus plain is the cost of the per-call timers. The executor's stages
/// (plan, cache probe, fetch, aggregate) are the spans the traced
/// Rased::Query recorded itself.
void ReplayRequest(const Reference& ref, rased::Rased* rased,
                   const rased::DashboardService& service,
                   const Request& r, bool traced_first, LayerTotals* t,
                   CheckLog* checks) {
  std::string target = TargetOf(ref, r);
  size_t qmark = target.find('?');
  rased::HttpRequest http;
  http.method = "GET";
  http.path = target.substr(0, qmark);
  http.params = rased::HttpServer::ParseQuery(target.substr(qmark + 1));
  rased::RenderContext ctx{&rased->world(), rased->road_types()};

  if (!IsAnalysis(r)) {
    const rased::BoundingBox& box = ref.sample_box();
    const int64_t s = NowNanos();
    auto samples = rased->SampleInBox(box, Reference::kSampleSize);
    t->sample.push_back(UsSince(s));
    if (!samples.ok() || samples.value().size() != Reference::kSampleSize) {
      checks->Fail("replayed sample " + target);
    }
    return;
  }

  const bool sql = http.path == "/api/sql";
  rased::SqlParser parser(&rased->world(), rased->road_types());
  auto parse = [&]() {
    return sql ? parser.Parse(http.Param("q"))
               : service.ParseQueryParams(http);
  };

  auto plain_pass = [&]() {
    const int64_t s = NowNanos();
    auto q = parse();
    if (!q.ok()) Die("replay parse: " + q.status().ToString());
    auto result = rased->Query(q.value());
    if (!result.ok()) Die("replay query: " + result.status().ToString());
    std::string body = rased::RenderJson(result.value(), q.value(), ctx);
    if (body.empty()) Die("empty render");
    return UsSince(s);
  };

  double parse_us = 0, execute_us = 0, render_us = 0, traced_us = 0;
  rased::QueryResult result;
  std::string body;
  auto traced_pass = [&]() {
    const int64_t w0 = NowNanos();
    int64_t s = NowNanos();
    auto q = parse();
    parse_us = UsSince(s);
    if (!q.ok()) Die("replay parse: " + q.status().ToString());
    s = NowNanos();
    auto queried = rased->Query(q.value());
    execute_us = UsSince(s);
    if (!queried.ok()) Die("replay query: " + queried.status().ToString());
    s = NowNanos();
    body = rased::RenderJson(queried.value(), q.value(), ctx);
    render_us = UsSince(s);
    traced_us = UsSince(w0);
    result = std::move(queried).value();
  };

  double plain_us = 0;
  if (traced_first) {
    traced_pass();
    plain_us = plain_pass();
  } else {
    plain_us = plain_pass();
    traced_pass();
  }

  Rows want;
  if (r.panel < 0) {
    uint64_t count = ref.cell_queries()[r.cell].expected;
    if (count != 0) want[""] = count;
  } else {
    want = ref.Expected(static_cast<Panel>(r.panel), Date::FromDays(r.newest));
  }
  std::string error;
  if (!CheckAnalysis(ref, body, want, nullptr, &error)) {
    checks->Fail("replayed " + target + ": " + error);
  }

  const rased::QueryStats& st = result.stats;
  ++t->analysis;
  t->parse.push_back(parse_us);
  t->execute.push_back(execute_us);
  t->render.push_back(render_us);
  t->response_kb.push_back(static_cast<double>(body.size()) / 1024.0);
  t->client.push_back(r.latency_ms * 1e3);
  t->unattributed.push_back(r.latency_ms * 1e3 - parse_us - execute_us -
                            render_us);
  t->server_execute.push_back(static_cast<double>(r.stats.cpu_micros));
  t->plan.push_back(SpanUs(result, "plan"));
  t->probe.push_back(SpanUs(result, "cache_probe"));
  t->fetch.push_back(SpanUs(result, "fetch"));
  t->aggregate.push_back(SpanUs(result, "aggregate"));
  t->alloc_kb.push_back(static_cast<double>(st.alloc_bytes) / 1024.0);
  t->overhead.push_back(traced_us - plain_us);
  t->cubes_total += st.cubes_total;
  t->cubes_cached += st.cubes_from_cache;
  t->page_reads += st.io.page_reads;
  t->read_ops += st.io.read_ops;
  t->bytes_read += st.io.bytes_read;
  t->device_us += st.io.simulated_device_micros;
  t->epochs.insert(st.epoch);
}

/// Replays one ingest day through each layer's public call on `staged`
/// (crawl, cube build, index append, warehouse append), and through the
/// whole IngestDailyArtifacts on `whole`; the difference is the time no
/// ingest layer accounts for.
void ReplayDay(rased::Rased* staged, rased::Rased* whole, const Day& day,
               LayerTotals* t, CheckLog* checks) {
  const int64_t w = NowNanos();
  rased::Status s = whole->IngestDailyArtifacts(
      day.date, day.artifacts.osc_xml, day.artifacts.changesets_xml);
  const double whole_ms = MsSince(w);
  if (!s.ok()) checks->Fail("replayed ingest: " + s.ToString());

  rased::Pager* pager = staged->index()->pager();
  const rased::IoStats io0 = pager->stats();
  const uint64_t pages0 = pager->num_pages();
  const uint64_t enc0 = staged->index()->StorageStats().encoded_bytes;

  int64_t c = NowNanos();
  rased::ChangesetStore changesets;
  rased::Status st = changesets.AddFromXml(day.artifacts.changesets_xml);
  std::vector<rased::UpdateRecord> records;
  rased::DailyCrawler crawler(&staged->world(), staged->road_types());
  if (st.ok()) st = crawler.CrawlDiff(day.artifacts.osc_xml, changesets,
                                      &records);
  const double crawl_ms = MsSince(c);
  c = NowNanos();
  rased::CubeBuilder builder(staged->options().schema, &staged->world());
  rased::DataCube cube = builder.BuildCube(records);
  const double build_ms = MsSince(c);
  c = NowNanos();
  if (st.ok()) st = staged->index()->AppendDay(day.date, cube);
  const double append_ms = MsSince(c);
  c = NowNanos();
  if (st.ok()) st = staged->warehouse()->Append(records);
  const double wh_ms = MsSince(c);
  if (!st.ok()) checks->Fail("replayed ingest stages: " + st.ToString());
  if (records.size() != day.records) checks->Fail("crawl lost records");

  const rased::IoStats io = pager->stats() - io0;
  const uint64_t grown = pager->num_pages() - pages0;
  t->crawl_ms.push_back(crawl_ms);
  t->build_ms.push_back(build_ms);
  t->append_ms.push_back(append_ms);
  t->wh_append_ms.push_back(wh_ms);
  t->unattributed_ms.push_back(whole_ms - crawl_ms - build_ms - append_ms -
                               wh_ms);
  t->pages_written.push_back(static_cast<double>(io.page_writes));
  // Pages written without growing the file came from the free pool.
  t->pages_reused.push_back(static_cast<double>(
      io.page_writes > grown ? io.page_writes - grown : 0));
  t->encoded_kb.push_back(
      static_cast<double>(staged->index()->StorageStats().encoded_bytes -
                          enc0) / 1024.0);
}

/// Picks at most `limit` requests, evenly spread, keeping their order.
std::vector<Request> Thin(const std::vector<Request>& all, size_t limit) {
  if (all.size() <= limit) return all;
  std::vector<Request> out;
  for (size_t i = 0; i < limit; ++i) out.push_back(all[i * all.size() / limit]);
  return out;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name, unit;
  double value;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = rased::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += rased::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             i == 0 ? "" : ", ", metrics[i].name.c_str(),
                             metrics[i].value, metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  namespace fs = std::filesystem;
  const std::string base_dir = args.data_dir + "/base";
  const std::string stage_dir = args.data_dir + "/replay_staged";
  const std::string whole_dir = args.data_dir + "/replay_whole";
  std::error_code ec;
  fs::remove_all(args.data_dir, ec);
  fs::create_directories(args.data_dir, ec);
  if (ec) Die("cannot create " + args.data_dir);

  const CpuSplit cpus = ConfineToCpus(kCpus);
  const int workers = std::min(kMaxWorkers, cpus.confined);
  const rased::BuildInfo build = rased::MakeBuildInfo(
      rased::Avx2DispatchLabel(rased::kernels::Avx2CompiledIn(),
                               rased::kernels::Avx2Active()));
  std::printf("BUILD {\"version\": \"%s\", \"git_sha\": \"%s\", "
              "\"compiler\": \"%s\", \"avx2\": \"%s\"}\n",
              build.version.c_str(), build.git_sha.c_str(),
              build.compiler.c_str(), build.avx2.c_str());

  // ---- inputs and the instance ----
  const rased::CubeSchema schema = rased::CubeSchema::BenchScale();
  Reference ref(schema, SynthFor(args.seed), args.seed, kBaseFirst);
  if (args.workload == Workload::kCellsCold) {
    ref.MakeCellQueries(kCellPool, DateRange(kBaseFirst, kBaseLast));
  }
  uint64_t encoded = 0, total_cubes = 0;
  const double build_s =
      BuildInstance(base_dir, args.seed, &ref, &encoded, &total_cubes);
  Log("built %llu cubes, %.1f MB encoded, in %.2f s",
      static_cast<unsigned long long>(total_cubes),
      static_cast<double>(encoded) / 1e6, build_s);
  if (args.trace) {
    fs::copy(base_dir, stage_dir, fs::copy_options::recursive, ec);
    if (!ec) fs::copy(base_dir, whole_dir, fs::copy_options::recursive, ec);
    if (ec) Die("cannot copy the instance for the replay");
  }

  // The cold workload's budget is a fixed share of the index's own
  // measured encoded footprint; the others run the default budget.
  const uint64_t budget =
      args.workload == Workload::kCellsCold
          ? static_cast<uint64_t>(kColdBudgetFraction *
                                  static_cast<double>(encoded))
          : rased::CacheOptions{}.byte_budget;

  // Reopening and warming is repeated and its median taken; the service
  // starts once. (Starting a second service in one process after the first
  // instance is gone writes through the profiler's stale metric handles;
  // see CHANGES.md.)
  std::vector<double> open_s;
  Instance live;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t t = NowNanos();
    live.rased = OpenWarm(base_dir, budget);
    open_s.push_back(static_cast<double>(NowNanos() - t) / 1e9);
    if (i + 1 < kSetupRepeats) live.rased.reset();
  }
  const int64_t t_start = NowNanos();
  live.service = std::make_unique<rased::DashboardService>(live.rased.get());
  Expect(live.service->Start(0, workers), "start service");
  const double setup_s = build_s + Median(open_s) +
                         static_cast<double>(NowNanos() - t_start) / 1e9;
  rased::Rased* rased = live.rased.get();
  const int port = live.service->port();
  const uint64_t charged = rased->cache()->bytes_used();
  Log("serving on port %d with %d workers; cache %zu cubes, %.2f MB charged "
      "of %.2f MB budget; setup %.2f s",
      port, workers, rased->cache()->size(),
      static_cast<double>(charged) / 1e6, static_cast<double>(budget) / 1e6,
      setup_s);

  CheckLog checks;
  if (args.workload == Workload::kPanelsWarm &&
      rased->cache()->size() != total_cubes) {
    checks.Fail("precondition: panels-warm needs every cube cached");
  }

  // ---- the timed phase ----
  Progress progress;
  std::atomic<uint64_t> cell_cursor{0};
  rased::Rng order_rng(args.seed ^ 0x0de5ull);
  const int clients = ClientsFor(args.workload);
  std::vector<std::vector<int>> orders(clients);
  for (auto& o : orders) {
    for (int p = 0; p < kNumPanels; ++p) o.push_back(p);
    order_rng.Shuffle(o);
  }
  auto next_round = [&](int client, std::vector<Request>* round) {
    if (args.workload == Workload::kCellsCold) {
      for (int i = 0; i < kNumPanels; ++i) {
        Request r;
        r.cell = static_cast<uint32_t>(cell_cursor.fetch_add(1) % kCellPool);
        round->push_back(r);
      }
      return;
    }
    for (int p : orders[client]) {
      Request r;
      r.panel = static_cast<int16_t>(p);
      round->push_back(r);
    }
  };

  IngestLog ingest;
  uint64_t store_bytes = 0;  // ingest-mixed: after kStoreDays days
  std::vector<Day> replay_days;  // kept for the traced ingest replay
  DayFeed feed(args.seed, &ref);
  std::atomic<bool> stop_writer{false};
  std::thread producer, writer;
  std::mutex q_mu;
  std::condition_variable q_cv;
  std::deque<Day> queue;
  bool feed_done = false;
  if (args.workload == Workload::kIngestMixed) {
    // The producer generates days a few ahead; the writer hands each to
    // IngestDailyArtifacts as soon as the previous one has published.
    producer = std::thread([&] {
      // Generating the feed is the benchmark's work, not the system's: it
      // runs on the CPUs the system was not confined to, when there are any.
      if (cpus.rest_count > 0) {
        sched_setaffinity(0, sizeof(cpus.rest), &cpus.rest);
      }
      while (!stop_writer.load()) {
        Day day = feed.Next();
        std::unique_lock<std::mutex> lock(q_mu);
        q_cv.wait(lock, [&] { return queue.size() < 4 || stop_writer.load(); });
        queue.push_back(std::move(day));
        q_cv.notify_all();
      }
      std::lock_guard<std::mutex> lock(q_mu);
      feed_done = true;
      q_cv.notify_all();
    });
    writer = std::thread([&] {
      for (;;) {
        Day day;
        {
          std::unique_lock<std::mutex> lock(q_mu);
          q_cv.wait(lock, [&] { return !queue.empty() || feed_done; });
          if (queue.empty() || stop_writer.load()) return;
          day = std::move(queue.front());
          queue.pop_front();
          q_cv.notify_all();
        }
        progress.handed.store(day.date.days_since_epoch());
        PublishDay(rased, day, &ingest, &checks);
        progress.published.store(day.date.days_since_epoch());
        // The store is sized after a fixed number of days, so its figure
        // does not depend on how many days a run happens to publish.
        if (ingest.days == kStoreDays) store_bytes = DirBytes(base_dir);
        if (args.trace && static_cast<int>(replay_days.size()) <
                              kReplayIngestDays) {
          replay_days.push_back(std::move(day));
        }
      }
    });
  }

  double elapsed_s = 0;
  const CpuTicks ticks0 = ReadCpuTicks();
  std::vector<Request> requests = ClosedLoop(
      ref, port, progress, clients, args.seconds, &checks, next_round,
      &elapsed_s);
  if (args.workload == Workload::kIngestMixed) {
    stop_writer.store(true);
    q_cv.notify_all();
    writer.join();
    {
      std::lock_guard<std::mutex> lock(q_mu);
      queue.clear();
      q_cv.notify_all();
    }
    producer.join();
  }
  const CpuTicks ticks1 = ReadCpuTicks();
  const double steal_pct =
      ticks1.total > ticks0.total
          ? 100.0 * static_cast<double>(ticks1.steal - ticks0.steal) /
                static_cast<double>(ticks1.total - ticks0.total)
          : 0.0;
  std::printf("HOST {\"steal_pct\": %.2f}\n", steal_pct);
  Log("timed phase: %zu requests in %.2f s, %d days published; host steal "
      "%.1f%% of CPU time",
      requests.size(), elapsed_s, ingest.days, steal_pct);

  // ---- answers, preconditions and properties ----
  // Query figures are taken over every request of the timed phase. Its
  // 1 s slices are logged too, to tell a burst of outside interference
  // from a slow program.
  uint64_t failed = 0, cubes_total = 0, cubes_disk = 0, page_reads = 0;
  std::vector<double> latency, modeled;
  // The last slice also holds the last round's overrun past the deadline.
  std::vector<int> per_second(
      static_cast<size_t>(std::max(1.0, std::floor(elapsed_s))), 0);
  for (const Request& r : requests) {
    if (!r.ok) {
      ++failed;
      continue;
    }
    latency.push_back(r.latency_ms);
    ++per_second[std::min(per_second.size() - 1,
                          static_cast<size_t>(r.done_ns / 1000000000))];
    if (!IsAnalysis(r)) continue;
    modeled.push_back(static_cast<double>(r.stats.total_micros) / 1e3);
    cubes_total += r.stats.cubes_total;
    cubes_disk += r.stats.cubes_from_disk;
    page_reads += r.stats.page_reads;
    // The executor runs inside the request's round trip: its own time can
    // not exceed what the client saw (plus a microsecond of rounding).
    if (static_cast<double>(r.stats.cpu_micros) > r.latency_ms * 1e3 + 1.0) {
      checks.Fail(rased::StrFormat(
          "server executed %lld us of a %.1f us round trip",
          static_cast<long long>(r.stats.cpu_micros), r.latency_ms * 1e3));
    }
  }
  const double qps = static_cast<double>(latency.size()) / elapsed_s;
  if (args.workload != Workload::kCellsCold) {
    // Where the time of the panel mix goes, panel by panel.
    std::string line;
    for (int p = 0; p < kNumPanels; ++p) {
      std::vector<double> ms, server_ms;
      for (const Request& r : requests) {
        if (!r.ok || r.panel != p) continue;
        ms.push_back(r.latency_ms);
        server_ms.push_back(static_cast<double>(r.stats.cpu_micros) / 1e3);
      }
      line += rased::StrFormat(" %d:%.2f/%.2f", p, Percentile(ms, 50),
                               Percentile(server_ms, 50));
    }
    Log("panel p50 client/server ms:%s", line.c_str());
  }
  Log("requests per 1 s slice: min %d, max %d; p50 %.3f ms, p99 %.3f ms",
      *std::min_element(per_second.begin(), per_second.end()),
      *std::max_element(per_second.begin(), per_second.end()),
      Percentile(latency, 50), Percentile(latency, 99));
  if (args.workload == Workload::kPanelsWarm &&
      (page_reads != 0 || rased->index()->pager()->stats().page_reads != 0)) {
    checks.Fail("precondition: panels-warm read pages after warming");
  }
  if (args.workload == Workload::kCellsCold &&
      2 * cubes_disk < cubes_total) {
    checks.Fail(rased::StrFormat(
        "precondition: cells-cold read only %llu of %llu cubes from the pager",
        static_cast<unsigned long long>(cubes_disk),
        static_cast<unsigned long long>(cubes_total)));
  }
  if (args.workload == Workload::kIngestMixed && ingest.days == 0) {
    checks.Fail("precondition: ingest-mixed published no day");
  }
  PropertyChecker properties(ref, port, &checks);
  properties.Run(Date::FromDays(progress.published.load()), args.seed);

  std::vector<Metric> metrics;
  uint64_t attempted = requests.size() + static_cast<uint64_t>(ingest.days);
  if (!args.trace) {
    const uint64_t peak_rss = PeakRssBytes();
    if (args.workload != Workload::kIngestMixed || store_bytes == 0) {
      if (args.workload == Workload::kIngestMixed) {
        Log("fewer than %d days published; store sized at the end",
            kStoreDays);
      }
      store_bytes = DirBytes(base_dir);
    }
    // A read-only workload publishes its ingest figures from days fed
    // through the daily pipeline after the timed phase, with no readers.
    if (args.workload != Workload::kIngestMixed) {
      for (int i = 0; i < kTailDays; ++i) {
        Day day = feed.Next();
        PublishDay(rased, day, &ingest, &checks);
      }
      attempted += kTailDays;
    }
    Log("ingest: %d days, %zu records, %.3f s inside IngestDailyArtifacts",
        ingest.days, ingest.records, ingest.ingest_s);
    metrics = {
        {"setup_s", "s", setup_s},
        {"query_p50_ms", "ms", Percentile(latency, 50)},
        {"query_p99_ms", "ms", Percentile(latency, 99)},
        {"query_qps", "1/s", qps},
        {"query_modeled_ms", "ms", Mean(modeled)},
        {"peak_rss_mb", "MB", static_cast<double>(peak_rss) / 1048576.0},
        {"store_mb", "MB", static_cast<double>(store_bytes) / 1048576.0},
        {"ingest_days_per_s", "days/s",
         ingest.ingest_s > 0 ? ingest.days / ingest.ingest_s : 0.0},
        {"ingest_publish_ms_p50", "ms", Median(ingest.publish_ms)},
    };
    StopInstance(&live);
  } else {
    // ---- traced replay ----
    LayerTotals layers;
    std::vector<Request> ok_requests;
    for (const Request& r : requests) {
      if (r.ok) ok_requests.push_back(r);
    }
    if (args.workload != Workload::kIngestMixed) {
      for (const Request& r : Thin(ok_requests, kReplayRequests)) {
        ReplayRequest(ref, rased, *live.service, r,
                      layers.analysis % 2 == 0, &layers, &checks);
      }
      if (args.workload == Workload::kCellsCold) {
        // No cell request samples updates; time the sample layer alone.
        for (int i = 0; i < kSampleCalls; ++i) {
          Request r;
          r.panel = static_cast<int16_t>(Panel::kSample);
          r.newest = kBaseLast.days_since_epoch();
          ReplayRequest(ref, rased, *live.service, r,
                        layers.analysis % 2 == 0, &layers, &checks);
        }
      }
    }
    StopInstance(&live);

    auto staged = rased::Rased::Open(OptionsFor(stage_dir, budget));
    Expect(staged.status(), "open staged replay instance");
    auto whole = rased::Rased::Open(OptionsFor(whole_dir, budget));
    Expect(whole.status(), "open whole replay instance");
    if (args.workload == Workload::kIngestMixed) {
      // Readers replay against the instance that publishes, interleaved
      // with the days in the order they were published.
      Expect(whole.value()->WarmCache(), "warm replay cache");
      rased::DashboardService service(whole.value().get());
      std::sort(ok_requests.begin(), ok_requests.end(),
                [](const Request& a, const Request& b) {
                  return a.newest < b.newest;
                });
      const int32_t last = replay_days.empty()
                               ? kBaseLast.days_since_epoch()
                               : replay_days.back().date.days_since_epoch();
      std::vector<Request> window;
      for (const Request& r : ok_requests) {
        if (r.newest <= last) window.push_back(r);
      }
      window = Thin(window, kReplayRequests);
      size_t next = 0;
      auto replay_until = [&](int32_t day) {
        while (next < window.size() && window[next].newest <= day) {
          ReplayRequest(ref, whole.value().get(), service, window[next++],
                        layers.analysis % 2 == 0, &layers, &checks);
        }
      };
      replay_until(kBaseLast.days_since_epoch());
      for (const Day& day : replay_days) {
        ReplayDay(staged.value().get(), whole.value().get(), day, &layers,
                  &checks);
        replay_until(day.date.days_since_epoch());
      }
    } else {
      for (int i = 0; i < kReplayIngestDays; ++i) {
        Day day = feed.Next();
        ReplayDay(staged.value().get(), whole.value().get(), day, &layers,
                  &checks);
      }
    }
    staged.value().reset();
    whole.value().reset();

    const double n = std::max(1, layers.analysis);
    // dashboard.unattributed_us is the client latency left over after the
    // replayed layers, so the split adds up by definition. What is checked
    // is that the replay stands for the HTTP phase: the replayed execute
    // time agrees with what the server measured for the same requests.
    // On ingest-mixed the server shared its CPU with the writer, so there
    // it may only have been slower than the replay.
    const double client = Mean(layers.client);
    const double server = Mean(layers.server_execute);
    const double replayed = Mean(layers.execute);
    const bool too_slow = replayed > (1 + kExecuteTolerance) * server + 1.0;
    const bool too_fast = args.workload != Workload::kIngestMixed &&
                          replayed < (1 - kExecuteTolerance) * server - 1.0;
    if (layers.analysis > 0 && (too_slow || too_fast)) {
      checks.Fail(rased::StrFormat(
          "replayed execute %.1f us, the server measured %.1f us for the "
          "same requests", replayed, server));
    }
    Log("traced replay: %d analysis requests, %zu samples, %zu days; "
        "client %.1f us = parse %.1f + execute %.1f + render %.1f + "
        "unattributed %.1f; server-side execute %.1f us (replay/server %.3f)",
        layers.analysis, layers.sample.size(), layers.crawl_ms.size(), client,
        Mean(layers.parse), replayed, Mean(layers.render),
        Mean(layers.unattributed), server, server > 0 ? replayed / server : 0);
    metrics = {
        {"dashboard.parse_us", "us", Mean(layers.parse)},
        {"dashboard.render_us", "us", Mean(layers.render)},
        {"dashboard.response_kb", "KB", Mean(layers.response_kb)},
        {"dashboard.unattributed_us", "us", Mean(layers.unattributed)},
        {"query.execute_us", "us", Mean(layers.execute)},
        {"query.plan_us", "us", Mean(layers.plan)},
        {"query.cubes_per_query", "count",
         static_cast<double>(layers.cubes_total) / n},
        {"query.aggregate_us", "us", Mean(layers.aggregate)},
        {"query.alloc_kb", "KB", Mean(layers.alloc_kb)},
        {"cache.probe_us", "us", Mean(layers.probe)},
        {"cache.hit_ratio", "ratio",
         layers.cubes_total == 0
             ? 0.0
             : static_cast<double>(layers.cubes_cached) /
                   static_cast<double>(layers.cubes_total)},
        {"cache.charged_mb", "MB", static_cast<double>(charged) / 1048576.0},
        {"index.fetch_us", "us", Mean(layers.fetch)},
        {"pager.page_reads", "count", static_cast<double>(layers.page_reads) / n},
        {"pager.read_ops", "count", static_cast<double>(layers.read_ops) / n},
        {"pager.bytes_read_kb", "KB",
         static_cast<double>(layers.bytes_read) / 1024.0 / n},
        {"pager.device_ms", "ms", static_cast<double>(layers.device_us) / 1e3 / n},
        {"warehouse.sample_us", "us", Mean(layers.sample)},
        {"collect.crawl_ms", "ms", Mean(layers.crawl_ms)},
        {"index.cube_build_ms", "ms", Mean(layers.build_ms)},
        {"index.append_ms", "ms", Mean(layers.append_ms)},
        {"warehouse.append_ms", "ms", Mean(layers.wh_append_ms)},
        {"ingest.unattributed_ms", "ms", Mean(layers.unattributed_ms)},
        {"pager.pages_written", "count", Mean(layers.pages_written)},
        {"pager.pages_reused", "count", Mean(layers.pages_reused)},
        {"index.encoded_kb", "KB", Mean(layers.encoded_kb)},
        {"index.epochs_seen", "count",
         static_cast<double>(layers.epochs.size())},
        {"trace.overhead_us", "us", Mean(layers.overhead)},
    };
  }
  attempted += static_cast<uint64_t>(properties.requests());

  fs::remove_all(args.data_dir, ec);
  const bool correct = checks.mismatches == 0;
  if (!correct) {
    Log("%llu answers did not match", static_cast<unsigned long long>(
                                          checks.mismatches));
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rased_perfbench --workload "
                 "panels-warm|cells-cold|ingest-mixed --seed N --seconds S "
                 "--trace 0|1 --data DIR\n");
    return 2;
  }
  return perfbench::Run(args);
}
