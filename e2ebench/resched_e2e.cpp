// resched_e2e: driver of the end-to-end benchmark (see README.md).
//
// One process runs one workload. Its inputs are units -- short service
// streams (one run_service_step each) or campaign batches (one run_campaign
// each) -- whose count follows from --seconds and whose seeds follow from
// --seed. The process runs the first units as an untimed warm-up, then one
// timed rep over every unit, then a verify_incremental prefix step whose
// oracle must not trip. A host-speed calibration kernel is timed between
// consecutive units, so every unit is bracketed by two kernel runs. The
// process prints one JSON line with every rep's numbers and deterministic
// fingerprints; run.py turns those into metrics and checks them.
//
// The layers are the library's modules, measured from outside through
// their public functions:
//   sim         -- run_service_step / run_campaign (wall per rep),
//   algorithms  -- Scheduler::replan / Scheduler::schedule, through the
//                  TimedScheduler decorator below,
//   core        -- the FreeProfile state the decorator reads at each
//                  ReplanRequest boundary, plus ServiceStepResult counters,
//   generators  -- the campaign's InstanceGenerator (timed wrapper) and the
//                  service's churn counters.
// With --trace 1 the process runs an untraced and a traced rep over the same
// units, each sized to half of --seconds; the traced rep records spans into
// a preallocated buffer and per-call histograms.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "algorithms/scheduler.hpp"
#include "core/arena.hpp"
#include "core/profile_allocator.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"
#include "sim/campaign.hpp"
#include "sim/latency_recorder.hpp"
#include "sim/service_sim.hpp"
#include "util/prng.hpp"

namespace {

using namespace resched;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

// ---- minimal JSON output ----------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(key) + ':' + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, number(v));
  }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  [[nodiscard]] std::string json() const { return '{' + body_ + '}'; }

 private:
  std::string body_;
};

// JSON array of already-encoded values.
std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out + ']';
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Peak resident set of this process image (VmHWM). Unlike ru_maxrss it
// does not carry over the high-water mark of the process that exec'd us.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

// ---- spans ------------------------------------------------------------------

enum SpanName : std::uint8_t { kRep, kStep, kCampaign, kReplan, kSchedule,
                               kGenerate };
constexpr std::array<const char*, 6> kSpanNames{
    "rep", "step", "campaign", "replan", "schedule", "generate"};

struct Span {
  std::int64_t start = 0;
  std::int64_t end = -1;  // -1 while open
  std::int32_t parent = -1;
  std::uint32_t thread = 0;
  SpanName name = kRep;
};

std::atomic<std::uint32_t> g_thread_ids{0};
thread_local const std::uint32_t t_thread = g_thread_ids.fetch_add(1);
// Innermost open span on this thread; campaign workers start at -1 and
// parent their spans to the tracer's root (the campaign span).
thread_local std::int32_t t_parent = -1;

// Spans of one traced rep in a buffer preallocated once per process and
// claimed through an atomic cursor; beyond capacity spans are counted as
// dropped (the per-call histograms still see every call).
class Tracer {
 public:
  explicit Tracer(std::size_t capacity) : spans_(capacity) {}

  void reset() {
    next_.store(0);
    dropped_.store(0);
    root_ = -1;
  }

  std::int32_t open(SpanName name) {
    const std::int32_t index = claim();
    if (index >= 0)
      spans_[static_cast<std::size_t>(index)] =
          Span{now_ns(), -1, parent(), t_thread, name};
    return index;
  }
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end = now_ns();
  }
  void leaf(SpanName name, std::int64_t start, std::int64_t end) {
    const std::int32_t index = claim();
    if (index >= 0)
      spans_[static_cast<std::size_t>(index)] =
          Span{start, end, parent(), t_thread, name};
  }
  void set_root(std::int32_t index) { root_ = index; }

  [[nodiscard]] std::uint64_t recorded() const {
    return std::min<std::uint64_t>(next_.load(), spans_.size());
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(); }

  // Chrome trace_event JSON (chrome://tracing, Perfetto).
  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < recorded(); ++i) {
      const Span& s = spans_[i];
      if (s.end < 0) continue;
      out << (first ? "" : ",\n") << "{\"name\":\"" << kSpanNames[s.name]
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
          << ",\"ts\":" << number(static_cast<double>(s.start) / 1e3)
          << ",\"dur\":" << number(static_cast<double>(s.end - s.start) / 1e3)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
      first = false;
    }
    out << "]}\n";
  }

 private:
  std::int32_t claim() {
    const std::uint64_t index = next_.fetch_add(1);
    if (index >= spans_.size()) {
      dropped_.fetch_add(1);
      return -1;
    }
    return static_cast<std::int32_t>(index);
  }
  [[nodiscard]] std::int32_t parent() const {
    return t_parent >= 0 ? t_parent : root_;
  }

  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::int32_t root_ = -1;
};

constexpr std::size_t kSpanCapacity = 200000;

// A span around a scope; no-op without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name) : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    saved_ = t_parent;
    index_ = tracer_->open(name);
    if (index_ >= 0) t_parent = index_;
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    if (index_ >= 0) tracer_->close(index_);
    t_parent = saved_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  std::int32_t index_ = -1;
  std::int32_t saved_ = -1;
};

// ---- per-layer counters -----------------------------------------------------

constexpr std::array<const char*, 4> kCampaignSchedulers{
    "lsrc", "fcfs", "conservative", "easy"};

// Counters at the algorithms/core/generators boundaries of one rep. The
// campaign's workers share it, hence the mutex (one lock per scheduler or
// generator call, each of which runs for milliseconds).
struct Probe {
  std::mutex mutex;
  std::uint64_t calls = 0;
  std::uint64_t jobs = 0;
  std::uint64_t frames = 0;
  std::uint64_t index_builds = 0;
  std::uint64_t allocs = 0;
  double busy_s = 0.0;
  std::array<double, kCampaignSchedulers.size()> busy_by_scheduler{};
  LatencyRecorder call_ns;
  LatencyRecorder segments;
  // Campaign: wall ns each instance of the current batch spent inside
  // schedule(), summed over the algorithms that planned it
  // (share_instances hands every algorithm the same Instance object).
  std::unordered_map<const Instance*, std::int64_t> instance_ns;
  std::uint64_t generate_calls = 0;
  double generate_busy_s = 0.0;

  void reset() {
    calls = jobs = frames = index_builds = allocs = generate_calls = 0;
    busy_s = generate_busy_s = 0.0;
    busy_by_scheduler.fill(0.0);
    call_ns.reset();
    segments.reset();
    instance_ns.clear();
  }
};

// What the decorators report into; the campaign's registered factories
// can only reach it through a global.
struct Instrument {
  Probe probe;
  Tracer* tracer = nullptr;  // null: untraced rep
};
Instrument g_instrument;

std::size_t scheduler_slot(const std::string& name) {
  for (std::size_t i = 0; i < kCampaignSchedulers.size(); ++i)
    if (name == kCampaignSchedulers[i]) return i;
  throw std::invalid_argument("no busy slot for scheduler " + name);
}

// Upper bound on the segments of the free-capacity profile a batch
// schedule ends with: distinct breakpoints of its occupancy, plus one.
std::size_t occupancy_segments(const Instance& instance,
                               const Schedule& schedule) {
  std::vector<Time> points;
  points.reserve(2 * (instance.n() + instance.n_reservations()));
  for (const Job& job : instance.jobs()) {
    points.push_back(schedule.start(job.id));
    points.push_back(schedule.start(job.id) + job.p);
  }
  for (const Reservation& r : instance.reservations()) {
    points.push_back(r.start);
    points.push_back(r.end());
  }
  std::sort(points.begin(), points.end());
  return static_cast<std::size_t>(
             std::unique(points.begin(), points.end()) - points.begin()) +
         1;
}

// Timing decorator around Scheduler::schedule and Scheduler::replan. It
// forwards name() and capabilities(), so the service takes exactly the
// planning path it takes with the bare scheduler.
class TimedScheduler final : public Scheduler {
 public:
  // `registry_name` picks the per-scheduler busy counter.
  TimedScheduler(const std::string& registry_name,
                 std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)), slot_(scheduler_slot(registry_name)) {}

  [[nodiscard]] ScheduleOutcome schedule(
      const Instance& instance) const override {
    const std::uint64_t allocs_begin = alloc_count();
    const std::int64_t begin = now_ns();
    ScheduleOutcome outcome = inner_->schedule(instance);
    const std::int64_t end = now_ns();
    const std::uint64_t allocs = alloc_count() - allocs_begin;
    Instrument& ins = g_instrument;
    const std::size_t segments =
        ins.tracer != nullptr && outcome.ok()
            ? occupancy_segments(instance, outcome.value())
            : 0;
    if (ins.tracer != nullptr) ins.tracer->leaf(kSchedule, begin, end);
    record(begin, end, instance.n(), 0, 0, allocs, segments, &instance);
    return outcome;
  }

  [[nodiscard]] Schedule replan(const ReplanRequest& request) const override {
    const StepProfile& profile = request.free.profile();
    const std::size_t segments = profile.segment_count();
    const std::uint64_t builds_begin = profile.index_build_count();
    const std::size_t frames_begin = request.free.open_commits();
    const std::uint64_t allocs_begin = alloc_count();
    const std::int64_t begin = now_ns();
    Schedule plan = inner_->replan(request);
    const std::int64_t end = now_ns();
    const std::uint64_t allocs = alloc_count() - allocs_begin;
    if (g_instrument.tracer != nullptr)
      g_instrument.tracer->leaf(kReplan, begin, end);
    record(begin, end, request.queue.size(),
           request.free.open_commits() - frames_begin,
           request.free.profile().index_build_count() - builds_begin, allocs,
           segments, nullptr);
    return plan;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] Capabilities capabilities() const override {
    return inner_->capabilities();
  }

 private:
  void record(std::int64_t begin, std::int64_t end, std::size_t jobs,
              std::size_t frames, std::uint64_t builds, std::uint64_t allocs,
              std::size_t segments, const Instance* instance) const {
    Probe& p = g_instrument.probe;
    const std::lock_guard<std::mutex> lock(p.mutex);
    const double seconds = static_cast<double>(end - begin) * 1e-9;
    ++p.calls;
    p.jobs += jobs;
    p.frames += frames;
    p.index_builds += builds;
    p.allocs += allocs;
    p.busy_s += seconds;
    p.busy_by_scheduler[slot_] += seconds;
    p.call_ns.record(end - begin);
    if (segments > 0) p.segments.record(static_cast<std::int64_t>(segments));
    if (instance != nullptr) p.instance_ns[instance] += end - begin;
  }

  std::unique_ptr<Scheduler> inner_;
  std::size_t slot_;
};

// ---- workloads --------------------------------------------------------------

// A run's inputs are `units` independent units: short service streams (one
// run_service_step each) or campaign batches (one run_campaign each). Each
// unit is measured once, between two calibrations. Service streams last
// tens of milliseconds, so the calibrations around a stream see the host
// state it ran in, and a run measures hundreds of distinct streams; runs
// that repeated each stream and kept the best repeat spread no less.
struct WorkloadSpec {
  std::string name;
  bool campaign = false;
  // Seconds one unit takes, calibration included, on the 4-vCPU host the
  // bounds were set on. A run measures round(seconds / unit_s) units, so
  // its inputs follow from --seed and --seconds, never from host speed.
  double unit_s = 1.0;
  // How much more a unit slows than the calibration kernel when the host
  // slows: its times are divided by (kernel / kCalibrationRefS)^sensitivity.
  // Fitted on this host, per workload, as the exponent that left ten-seed
  // sets steadiest (README.md, "Host-speed calibration").
  double sensitivity = 1.0;
  // Service workloads.
  std::string scheduler;
  double rate = 0.0;  // jobs per kilotick
  double churn_rate = 0.0;
  ServicePhases phases;  // per stream
  ServicePhases verify_phases;
  // Campaign workload.
  std::size_t instances = 0;  // per batch
  std::size_t n = 0;
};

WorkloadSpec make_spec(const std::string& name, bool smoke) {
  WorkloadSpec spec;
  spec.name = name;
  // Smoke sizes keep every code path but finish in well under a second.
  const auto phases = [smoke](std::uint64_t warm, std::uint64_t measure,
                              std::uint64_t cool) {
    return smoke ? ServicePhases{warm / 10, measure / 10, cool / 10}
                 : ServicePhases{warm, measure, cool};
  };
  if (name == "svc_easy") {
    spec.scheduler = "easy";
    spec.rate = 90.0;
    spec.unit_s = 0.042;
    spec.sensitivity = 1.5;
    spec.phases = phases(200, 4000, 200);
  } else if (name == "svc_cons_knee") {
    spec.scheduler = "conservative";
    spec.rate = 110.0;
    spec.unit_s = 0.04;
    spec.sensitivity = 1.2;
    spec.phases = phases(2000, 20000, 2000);
  } else if (name == "svc_cons_churn") {
    spec.scheduler = "conservative";
    spec.rate = 100.0;
    spec.churn_rate = 20.0;
    spec.unit_s = 0.042;
    spec.sensitivity = 1.4;
    spec.phases = phases(2000, 20000, 2000);
  } else if (name == "campaign_batch") {
    spec.campaign = true;
    spec.unit_s = 0.3;
    spec.sensitivity = 1.2;
    spec.instances = smoke ? 8 : 64;
    spec.n = smoke ? 256 : 2048;
    return spec;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  spec.verify_phases = phases(2000, 20000, 2000);
  return spec;
}

constexpr std::size_t kMinUnits = 2;

std::size_t unit_count(const WorkloadSpec& spec, double seconds) {
  return std::max(kMinUnits,
                  static_cast<std::size_t>(std::llround(seconds / spec.unit_s)));
}

// The untimed warm-up runs the first units for about half a second (at
// least one unit, at most all of them).
std::size_t warmup_units(const WorkloadSpec& spec, std::size_t units) {
  constexpr double kWarmupS = 0.5;
  return std::clamp<std::size_t>(
      static_cast<std::size_t>(std::llround(kWarmupS / spec.unit_s)), 1, units);
}

LoadGenConfig service_load() {
  LoadGenConfig load;
  load.m = 128;
  load.p_min = 1;
  load.p_max = 300;
  load.log_uniform_p = true;
  load.width = WidthDistribution::kPowersOfTwo;
  load.alpha = Rational(1, 2);
  return load;
}

ServiceConfig service_config(const WorkloadSpec& spec,
                             const ServicePhases& phases) {
  ServiceConfig config;
  config.phases = phases;
  config.dispatch_window = 64;
  config.churn.events_per_kilotick = spec.churn_rate;
  return config;
}

Instance campaign_instance(std::size_t n, std::uint64_t seed) {
  WorkloadConfig workload;
  workload.n = n;
  workload.m = 128;
  workload.p_max = 500;
  workload.alpha = Rational(1, 2);
  AlphaReservationConfig resa;
  resa.count = 12;
  resa.horizon = 2000;
  resa.max_duration = 300;
  resa.alpha = Rational(1, 2);
  return with_alpha_restricted_reservations(random_workload(workload, seed),
                                            resa,
                                            seed ^ 0x9e3779b97f4a7c15ULL);
}

// ---- host-speed calibration -------------------------------------------------

// A fixed sort-and-hash kernel with its own generator, so no change to the
// library (its Prng included) can move it. It is timed between consecutive
// units, on as many threads as the units use, and each unit's times are
// reported as if the kernel around it had taken kCalibrationRefS. On a
// shared virtual machine the host's speed moves by tens of percent within
// seconds, and the kernel moves with it, while a change to the library
// moves only the units.
constexpr double kCalibrationRefS = 0.0022;  // the kernel on an idle host

double calibration_kernel() {
  std::uint64_t state = 0x5eed;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::vector<std::uint64_t> keys(std::size_t{1} << 14);
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  const std::int64_t begin = now_ns();
  std::uint64_t sink = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t& key : keys) key = next();
    std::sort(keys.begin(), keys.end());
    sink += keys[keys.size() / 2];
  }
  for (std::uint64_t i = 0; i < (1U << 12); ++i) table[next() & 0xfffff] += i;
  for (std::uint64_t i = 0; i < (1U << 13); ++i)
    sink += table.count(next() & 0xfffff);
  const std::int64_t end = now_ns();
  volatile std::uint64_t keep = sink;
  static_cast<void>(keep);
  return static_cast<double>(end - begin) * 1e-9;
}

// The mean kernel time over `threads` concurrent copies.
double calibrate(std::size_t threads) {
  std::vector<double> seconds(threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t)
    pool.emplace_back([&seconds, t] { seconds[t] = calibration_kernel(); });
  seconds[0] = calibration_kernel();
  for (std::thread& thread : pool) thread.join();
  double sum = 0.0;
  for (const double s : seconds) sum += s;
  return sum / static_cast<double>(threads);
}

// Kernel times between consecutive units: each unit's host speed is the
// geometric mean of the kernel times right before and right after it.
class Brackets {
 public:
  explicit Brackets(std::size_t threads)
      : threads_(threads), before_(calibrate(threads)) {}

  // Call right after a unit ends.
  double close_unit() {
    const double after = calibrate(threads_);
    const double unit = std::sqrt(before_ * after);
    before_ = after;
    return unit;
  }

 private:
  std::size_t threads_;
  double before_;
};

// ---- reps -------------------------------------------------------------------

double percentile_or_zero(const LatencyRecorder& r, double q) {
  return r.count() > 0 ? static_cast<double>(r.percentile(q)) : 0.0;
}

double median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(v.begin(), mid)) / 2.0;
}

// Closest-rank quantile, exact (no histogram buckets); 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const auto mid =
      v.begin() + static_cast<std::ptrdiff_t>(std::max<std::size_t>(rank, 1) - 1);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

// One unit as measured: a service step or a campaign batch, with the
// calibration kernel time around it (Brackets). Times are raw. A unit keeps
// only its latency summary, so the benchmark's own memory stays small beside
// the library's in peak_rss_mb.
struct Unit {
  double calibration_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t jobs = 0;
  // Decision latency: per scheduler invocation for the service, per
  // instance (all algorithms) for the campaign.
  std::uint64_t samples = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  // Campaign only: each instance's time, pooled across batches by the rep.
  std::vector<double> instance_ns;

  [[nodiscard]] double slowdown(double sensitivity) const {
    return std::pow(calibration_s / kCalibrationRefS, sensitivity);
  }

  [[nodiscard]] std::string json() const {
    return JsonObject()
        .num("calibration_s", calibration_s)
        .num("wall_s", wall_s)
        .count("jobs", jobs)
        .count("samples", samples)
        .num("p50_ns", p50_ns)
        .num("p99_ns", p99_ns)
        .json();
  }
};

struct Rep {
  std::string kind;  // warmup | timed | traced | one_thread
  std::vector<Unit> units;
  double wall_s = 0.0;  // sum over the units
  // End-to-end values at reference host speed, each unit's times divided by
  // its own slowdown. jobs_per_s is the median over the units, and so are
  // the services' percentiles; the median drops a unit whose host stall the
  // calibration missed. A campaign batch holds too few instances for a p99
  // of its own, so the campaign's scaled instance times are pooled.
  double jobs_per_s = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Outcome fingerprints, one per unit: what a user of the system sees;
  // pinned against the committed expected file.
  std::vector<std::string> outcome;
  // Planning-path counters, one per unit: deterministic within one build,
  // so equal across reps and between traced and untraced reps.
  std::vector<std::string> path;
  std::string layers;  // traced reps only

  void set_end_to_end(double sensitivity) {
    std::vector<double> rates;
    std::vector<double> p50;
    std::vector<double> p99;
    std::vector<double> pooled;
    for (const Unit& unit : units) {
      const double slowdown = unit.slowdown(sensitivity);
      rates.push_back(ratio(static_cast<double>(unit.jobs),
                            unit.wall_s / slowdown));
      p50.push_back(unit.p50_ns / slowdown);
      p99.push_back(unit.p99_ns / slowdown);
      for (const double ns : unit.instance_ns) pooled.push_back(ns / slowdown);
      samples += unit.samples;
    }
    jobs_per_s = median(rates);
    p50_ns = pooled.empty() ? median(p50) : quantile(pooled, 0.5);
    p99_ns = pooled.empty() ? median(p99) : quantile(pooled, 0.99);
  }

  [[nodiscard]] std::string json() const {
    JsonObject o;
    std::vector<std::string> units_json;
    for (const Unit& unit : units) units_json.push_back(unit.json());
    o.str("kind", kind)
        .num("wall_s", wall_s)
        .num("jobs_per_s", jobs_per_s)
        .num("p50_ns", p50_ns)
        .num("p99_ns", p99_ns)
        .count("samples", samples)
        .raw("units", json_array(units_json))
        .count("attempted", attempted)
        .count("failed", failed)
        .raw("outcome", json_array(outcome))
        .raw("path", json_array(path));
    if (!layers.empty()) o.raw("layers", layers);
    return o.json();
  }
};

std::string recorder_summary(const LatencyRecorder& r) {
  if (r.count() == 0) return quote("empty");
  const std::array<double, 3> qs{0.5, 0.99, 0.999};
  const std::vector<std::int64_t> p = r.percentiles(qs);
  return quote(std::to_string(r.count()) + " " + std::to_string(r.min()) +
               " " + std::to_string(r.max()) + " " + number(r.mean()) + " " +
               std::to_string(p[0]) + " " + std::to_string(p[1]) + " " +
               std::to_string(p[2]));
}

// Counters every rep's layer block carries, whichever layers it crosses.
void add_probe_layers(JsonObject& layers, const Probe& p) {
  layers.count("algorithms.calls", p.calls)
      .num("algorithms.call_ns_p50", percentile_or_zero(p.call_ns, 0.5))
      .num("algorithms.call_ns_p99", percentile_or_zero(p.call_ns, 0.99))
      .num("algorithms.busy_s", p.busy_s)
      .num("algorithms.jobs_per_call",
           ratio(static_cast<double>(p.jobs), static_cast<double>(p.calls)));
  for (std::size_t i = 0; i < kCampaignSchedulers.size(); ++i)
    layers.num(std::string("algorithms.busy_s.") + kCampaignSchedulers[i],
               p.busy_by_scheduler[i]);
  layers.num("core.profile_segments_p50", percentile_or_zero(p.segments, 0.5))
      .num("core.profile_segments_max", percentile_or_zero(p.segments, 1.0))
      .num("core.frames_per_call",
           ratio(static_cast<double>(p.frames), static_cast<double>(p.calls)))
      .num("core.index_builds_per_call",
           ratio(static_cast<double>(p.index_builds),
                 static_cast<double>(p.calls)))
      .num("core.allocs_per_call",
           ratio(static_cast<double>(p.allocs), static_cast<double>(p.calls)))
      .count("generators.generate_calls", p.generate_calls)
      .num("generators.generate_busy_s", p.generate_busy_s);
}

class Bench {
 public:
  Bench(WorkloadSpec spec, std::uint64_t seed, std::size_t units)
      : spec_(std::move(spec)) {
    Prng root(seed);
    for (std::size_t k = 0; k < units; ++k)
      unit_seeds_.push_back(root.fork_seed());
    if (spec_.campaign) {
      threads_ = std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                         1, 4);
      for (const char* name : kCampaignSchedulers) {
        register_scheduler(std::string("bench:") + name, [name] {
          return std::make_unique<TimedScheduler>(name, make_scheduler(name));
        });
        campaign_schedulers_.push_back(std::string("bench:") + name);
      }
      const std::size_t n = spec_.n;
      generator_ = [n](std::size_t, std::uint64_t seed) {
        const std::int64_t begin = now_ns();
        Instance instance = campaign_instance(n, seed);
        const std::int64_t end = now_ns();
        Instrument& ins = g_instrument;
        if (ins.tracer != nullptr) ins.tracer->leaf(kGenerate, begin, end);
        const std::lock_guard<std::mutex> lock(ins.probe.mutex);
        ++ins.probe.generate_calls;
        ins.probe.generate_busy_s += static_cast<double>(end - begin) * 1e-9;
        return instance;
      };
    } else {
      plain_ = make_scheduler(spec_.scheduler);
      timed_ = std::make_unique<TimedScheduler>(
          spec_.scheduler, make_scheduler(spec_.scheduler));
    }
  }

  void enable_tracing() { tracer_ = std::make_unique<Tracer>(kSpanCapacity); }
  [[nodiscard]] const Tracer& tracer() const { return *tracer_; }
  [[nodiscard]] std::size_t threads() const { return threads_; }

  // Runs the first `units` units.
  Rep run(const std::string& kind, std::size_t units) {
    const bool traced = kind == "traced";
    Instrument& ins = g_instrument;
    ins.probe.reset();
    ins.tracer = traced ? tracer_.get() : nullptr;
    if (traced) tracer_->reset();
    const std::span<const std::uint64_t> seeds(unit_seeds_.data(), units);
    Rep rep = spec_.campaign
                  ? run_campaign_rep(seeds, kind == "one_thread" ? 1 : threads_)
                  : run_service_rep(seeds, traced);
    rep.kind = kind;
    ins.tracer = nullptr;
    return rep;
  }

  // The oracle runs both planning paths per decision and trips
  // RESCHED_CHECK (an exception) on any divergence.
  void verify_prefix() const {
    if (spec_.campaign) return;
    ServiceConfig config = service_config(spec_, spec_.verify_phases);
    config.verify_incremental = true;
    config.record_wall_latency = false;
    static_cast<void>(run_service_step(*plain_, service_load(),
                                       unit_seeds_.front(), spec_.rate,
                                       config));
  }

 private:
  Rep run_service_rep(std::span<const std::uint64_t> seeds, bool traced) {
    const Scheduler& scheduler = traced ? *timed_ : *plain_;
    const ServiceConfig config = service_config(spec_, spec_.phases);
    Tracer* tracer = g_instrument.tracer;
    ScopedSpan rep_span(tracer, kRep);
    Rep rep;
    ServiceStepResult sum;  // counters summed over the streams
    Brackets brackets(1);
    for (const std::uint64_t seed : seeds) {
      ServiceStepResult r;
      double wall_s = 0.0;
      {
        ScopedSpan step_span(tracer, kStep);
        const std::int64_t begin = now_ns();
        r = run_service_step(scheduler, service_load(), seed, spec_.rate,
                             config);
        wall_s = static_cast<double>(now_ns() - begin) * 1e-9;
      }
      const double calibration_s = brackets.close_unit();
      rep.wall_s += wall_s;
      rep.units.push_back(Unit{calibration_s, wall_s, r.completed,
                               r.decision_ns.count(),
                               percentile_or_zero(r.decision_ns, 0.5),
                               percentile_or_zero(r.decision_ns, 0.99),
                               {}});
      // A measure-phase job fails when it is neither served nor cancelled.
      // That happens only when the backlog bail aborts the step; in a
      // drained step every job either completes or is cancelled by churn.
      const bool aborted =
          r.arrivals < spec_.phases.total() || r.end_queue_depth > 0;
      rep.attempted += spec_.phases.measure;
      rep.failed += aborted ? spec_.phases.measure - r.measured : 0;
      rep.outcome.push_back(
          JsonObject()
              .count("completed", r.completed)
              .count("canceled", r.canceled)
              .count("measured", r.measured)
              .num("sustained_rate", r.sustained_rate)
              .count("saturated", r.saturated ? 1 : 0)
              .count("peak_queue_depth", r.peak_queue_depth)
              .raw("wait_ticks", recorder_summary(r.wait_ticks))
              .raw("response_ticks", recorder_summary(r.response_ticks))
              .raw("queue_depth", recorder_summary(r.queue_depth))
              .count("churn_events", r.churn_events)
              .count("churn_skipped", r.churn_skipped)
              .json());
      rep.path.push_back(
          JsonObject()
              .count("decisions", r.decisions)
              .count("decisions_measured", r.decisions_measured)
              .count("decisions_incremental", r.decisions_incremental)
              .count("suffix_jobs_replanned", r.suffix_jobs_replanned)
              .count("plan_frames_rewound", r.plan_frames_rewound)
              .count("history_compactions", r.history_compactions)
              .count("compacted_segments", r.compacted_segments)
              .count("deferred_dispatches", r.deferred_dispatches)
              .count("decision_allocs", r.decision_allocs)
              .json());
      sum.completed += r.completed;
      sum.decisions += r.decisions;
      sum.decisions_measured += r.decisions_measured;
      sum.decision_allocs += r.decision_allocs;
      sum.plan_frames_rewound += r.plan_frames_rewound;
      sum.history_compactions += r.history_compactions;
      sum.compacted_segments += r.compacted_segments;
      sum.deferred_dispatches += r.deferred_dispatches;
      sum.churn_events += r.churn_events;
      sum.churn_skipped += r.churn_skipped;
    }
    rep.set_end_to_end(spec_.sensitivity);
    if (traced) {
      const Probe& p = g_instrument.probe;
      const double self_s = rep.wall_s - p.busy_s;
      JsonObject layers;
      add_probe_layers(layers, p);
      layers.count("core.plan_frames_rewound", sum.plan_frames_rewound)
          .count("core.history_compactions", sum.history_compactions)
          .count("core.compacted_segments", sum.compacted_segments)
          .num("sim.wall_s", rep.wall_s)
          .num("sim.self_s", self_s)
          .num("sim.self_frac", ratio(self_s, rep.wall_s))
          .num("sim.decisions_per_job",
               ratio(static_cast<double>(sum.decisions),
                     static_cast<double>(sum.completed)))
          .num("sim.allocs_per_decision",
               ratio(static_cast<double>(sum.decision_allocs),
                     static_cast<double>(sum.decisions_measured)))
          .count("sim.deferred_dispatches", sum.deferred_dispatches)
          .num("sim.worker_busy_frac", ratio(p.busy_s, rep.wall_s))
          .count("generators.churn_events", sum.churn_events)
          .count("generators.churn_skipped", sum.churn_skipped)
          .count("trace.spans", tracer_->recorded())
          .count("trace.dropped", tracer_->dropped());
      rep.layers = layers.json();
    }
    return rep;
  }

  Rep run_campaign_rep(std::span<const std::uint64_t> seeds,
                       std::size_t threads) {
    CampaignConfig config;
    config.instances = spec_.instances;
    config.threads = threads;
    config.schedulers = campaign_schedulers_;
    config.validate = true;
    config.share_instances = true;
    Tracer* tracer = g_instrument.tracer;
    Probe& p = g_instrument.probe;
    Rep rep;
    std::uint64_t calls = 0;
    std::uint64_t generate_calls = 0;
    ScopedSpan rep_span(tracer, kRep);
    Brackets brackets(threads);
    for (const std::uint64_t seed : seeds) {
      config.seed = seed;
      CampaignResult result;
      double wall_s = 0.0;
      {
        ScopedSpan campaign_span(tracer, kCampaign);
        if (tracer != nullptr) tracer->set_root(campaign_span.index());
        const std::int64_t begin = now_ns();
        result = run_campaign(generator_, config);
        wall_s = static_cast<double>(now_ns() - begin) * 1e-9;
      }
      const double calibration_s = brackets.close_unit();
      rep.wall_s += wall_s;
      rep.attempted += spec_.instances * campaign_schedulers_.size();
      std::uint64_t jobs = 0;
      for (CampaignCell& cell : result.cells) {
        jobs += cell.scheduled * spec_.n;
        rep.failed += cell.skipped;
        cell.scheduler.erase(0, std::strlen("bench:"));
      }
      Unit unit{calibration_s, wall_s, jobs, p.instance_ns.size(), 0.0, 0.0,
                {}};
      for (const auto& [instance, ns] : p.instance_ns)
        unit.instance_ns.push_back(static_cast<double>(ns));
      unit.p50_ns = quantile(unit.instance_ns, 0.5);
      unit.p99_ns = quantile(unit.instance_ns, 0.99);
      p.instance_ns.clear();
      rep.units.push_back(std::move(unit));
      rep.outcome.push_back(
          JsonObject().str("table", result.to_table(false).to_string()).json());
      rep.path.push_back(JsonObject()
                             .count("schedule_calls", p.calls - calls)
                             .count("generate_calls",
                                    p.generate_calls - generate_calls)
                             .json());
      calls = p.calls;
      generate_calls = p.generate_calls;
    }
    rep.set_end_to_end(spec_.sensitivity);
    if (tracer != nullptr) {
      const double thread_s = rep.wall_s * static_cast<double>(threads);
      const double self_s = thread_s - p.busy_s;
      std::uint64_t jobs = 0;
      for (const Unit& unit : rep.units) jobs += unit.jobs;
      JsonObject layers;
      add_probe_layers(layers, p);
      layers.count("core.plan_frames_rewound", 0)
          .count("core.history_compactions", 0)
          .count("core.compacted_segments", 0)
          .num("sim.wall_s", rep.wall_s)
          .num("sim.self_s", self_s)
          .num("sim.self_frac", ratio(self_s, thread_s))
          .num("sim.decisions_per_job",
               ratio(static_cast<double>(p.calls), static_cast<double>(jobs)))
          .num("sim.allocs_per_decision",
               ratio(static_cast<double>(p.allocs),
                     static_cast<double>(p.calls)))
          .count("sim.deferred_dispatches", 0)
          .num("sim.worker_busy_frac", ratio(p.busy_s, thread_s))
          .count("generators.churn_events", 0)
          .count("generators.churn_skipped", 0)
          .count("trace.spans", tracer->recorded())
          .count("trace.dropped", tracer->dropped());
      rep.layers = layers.json();
    }
    return rep;
  }

  WorkloadSpec spec_;
  std::size_t threads_ = 1;
  std::unique_ptr<Scheduler> plain_;
  std::unique_ptr<Scheduler> timed_;
  // Seeds of the units: service arrival (and churn) streams, or campaign
  // batches.
  std::vector<std::uint64_t> unit_seeds_;
  std::vector<std::string> campaign_schedulers_;
  InstanceGenerator generator_;
  std::unique_ptr<Tracer> tracer_;
};

// ---- main -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool setup_only = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty())
    throw std::invalid_argument("--workload is required");
  return args;
}

int run(const Args& args) {
  const WorkloadSpec spec = make_spec(args.workload, args.smoke);
  // A traced run measures two reps over the same units, so each gets half.
  const std::size_t units =
      unit_count(spec, args.trace ? args.seconds / 2 : args.seconds);
  Bench bench(spec, args.seed, units);
  if (args.trace) bench.enable_tracing();
  // Set-up ends here: run.py times spawn -> this line.
  std::cout << "ready" << std::endl;
  if (args.setup_only) return 0;

  std::vector<Rep> reps;
  reps.push_back(bench.run("warmup", warmup_units(spec, units)));
  reps.push_back(bench.run("timed", units));
  if (args.trace) {
    reps.push_back(bench.run("traced", units));
    if (!args.trace_out.empty())
      bench.tracer().write_chrome_trace(args.trace_out);
    if (bench.threads() > 1) reps.push_back(bench.run("one_thread", 1));
  }
  bench.verify_prefix();

  std::vector<std::string> reps_json;
  for (const Rep& rep : reps) reps_json.push_back(rep.json());
  std::cout << JsonObject()
                   .count("threads", bench.threads())
                   .count("peak_rss_kb", peak_rss_kb())
                   .raw("reps", json_array(reps_json))
                   .json()
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cout << JsonObject().str("error", e.what()).json() << std::endl;
    return 1;
  }
}
