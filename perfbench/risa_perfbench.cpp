// risa_perfbench -- the measuring program behind perfbench/run.py.
//
//   risa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out PREFIX]
//
// Runs one named workload (kWorkloads below) through sim::Engine::run_stream
// on the calling thread and prints one JSON object as its last stdout line:
// the metrics, the regime the run was in, the deterministic counts and the
// metrics fingerprint.  Every run also replays the repository's default seed
// (sim::kDefaultSeed) once; run.py checks both against perfbench/reference.json.
//
// --trace 0 (end-to-end): repeats "build the engine stack + arrival source,
//   run_stream" until S seconds have passed and reports the best repetition
//   (see best_of; the first repetition is a warmup and is not timed).
//   Afterwards the plan-free workloads are replayed once outside-in (see
//   replay) as a correctness cross-check on the engine's counts.
//
// --trace 1 (per layer): alternates profiled engine runs with timed and
//   untimed outside-in replays for S seconds and reports the median over
//   those rounds.  The replay builds its own
//   Cluster/Fabric/Router/CircuitTable and allocator, pulls the same source,
//   merges departures from its own LadderCalendar with the engine's rule
//   (departures strictly before the next arrival run first, so arrivals win
//   ties) and times every public call it makes.  The first timed replay
//   writes its spans to PREFIX.replay.json with common/trace_writer; the
//   lifecycle workload (faults, retries, migrations -- not replayable from
//   outside) takes its per-layer numbers from the engine's phase profile, a
//   Telemetry registry snapshot and a timed ArrivalSource wrapper instead,
//   and writes the engine's own telemetry trace to PREFIX.engine.json.
//
// Any disagreement between repetitions or between the replay and the engine
// is reported in "errors"; the program then exits with status 2.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cycle_clock.hpp"
#include "common/histogram.hpp"
#include "common/simd.hpp"
#include "common/trace_writer.hpp"
#include "core/registry.hpp"
#include "des/ladder_calendar.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/fault_plan.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/telemetry.hpp"
#include "topology/cluster.hpp"
#include "workload/arrival_source.hpp"
#include "workload/synthetic.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace {

using namespace risa;
using SteadyClock = std::chrono::steady_clock;

// ---- workloads ----------------------------------------------------------

struct WorkloadSpec {
  std::string_view name;
  const char* algorithm;
  std::size_t count;  ///< offered VMs per repetition
  double rho;         ///< stationary offered load; 0 = the paper's lifetimes
  bool lifecycle;     ///< MTBF box failures + retries + migration sweeps
};

// All four use the Table-1 cluster and the streamed §5.1 demand mix.  Short
// streams give many repetitions per run (see best_of); saturated_paper needs
// 1M VMs to reach >95% drops, and NALB at rho 1.3 fragments the cluster for
// ~100k arrivals before its inter-rack share stops depending on the seed.
constexpr WorkloadSpec kWorkloads[] = {
    {"steady_rho0.9", "RISA", 50'000, 0.9, false},
    {"saturated_paper", "RISA", 1'000'000, 0.0, false},
    {"overload_rho1.3_nalb", "NALB", 100'000, 1.3, false},
    {"lifecycle_rho0.9", "RISA", 50'000, 0.9, true},
};

/// Mean allocation units one §5.1 request asks for, per resource type
/// (exact average over the uniform integer core/RAM draws).
PerResource<double> mean_demand_units(const wl::SyntheticConfig& s,
                                      const UnitScale& scale) {
  PerResource<double> mean{0.0, 0.0, 0.0};
  for (std::int64_t c = s.min_cores; c <= s.max_cores; ++c) {
    mean[ResourceType::Cpu] +=
        static_cast<double>(scale.to_units(ResourceType::Cpu, c));
  }
  mean[ResourceType::Cpu] /= static_cast<double>(s.max_cores - s.min_cores + 1);
  const auto lo = static_cast<std::int64_t>(s.min_ram_gb);
  const auto hi = static_cast<std::int64_t>(s.max_ram_gb);
  for (std::int64_t g = lo; g <= hi; ++g) {
    mean[ResourceType::Ram] += static_cast<double>(
        scale.to_units(ResourceType::Ram, gb(static_cast<double>(g))));
  }
  mean[ResourceType::Ram] /= static_cast<double>(hi - lo + 1);
  mean[ResourceType::Storage] = static_cast<double>(
      scale.to_units(ResourceType::Storage, gb(s.storage_gb)));
  return mean;
}

/// Everything one run needs, derived from (workload, seed) alone.
struct Setup {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  sim::Scenario scenario;
  wl::SyntheticConfig synth;
  double capacity_vms = 0.0;  ///< binding-resource capacity in mean VMs
  double rho = 0.0;           ///< offered load of the stream as generated
};

Setup make_setup(const WorkloadSpec& spec, std::uint64_t seed) {
  Setup s;
  s.spec = &spec;
  s.seed = seed;
  s.scenario = sim::Scenario::paper_defaults();
  s.synth.count = spec.count;
  const topo::ClusterConfig& cc = s.scenario.cluster;
  const PerResource<double> mean = mean_demand_units(s.synth, cc.unit_scale);
  s.capacity_vms = std::numeric_limits<double>::infinity();
  for (ResourceType t : kAllResources) {
    s.capacity_vms = std::min(
        s.capacity_vms, static_cast<double>(cc.total_units(t)) / mean[t]);
  }
  wl::ArrivalModel& am = s.synth.arrivals;
  if (spec.rho > 0.0) {
    am.base_lifetime_tu = spec.rho * s.capacity_vms * am.mean_interarrival_tu;
    am.lifetime_increment_tu = 0.0;
  }
  // Mean lifetime over the whole stream (the paper model grows with i).
  double mean_life = 0.0;
  const std::size_t groups = (spec.count + am.increment_every - 1) /
                             am.increment_every;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t in_group =
        std::min(am.increment_every, spec.count - g * am.increment_every);
    mean_life += static_cast<double>(in_group) *
                 am.lifetime(g * am.increment_every);
  }
  mean_life /= static_cast<double>(spec.count);
  s.rho = mean_life / am.mean_interarrival_tu / s.capacity_vms;

  if (spec.lifecycle) {
    sim::MtbfSpec mtbf;
    mtbf.mtbf_tu = 2000.0;
    mtbf.mttr_tu = 500.0;
    mtbf.seed = seed ^ 0x9e3779b97f4a7c15ull;
    mtbf.horizon_tu =
        static_cast<double>(spec.count) * am.mean_interarrival_tu;
    mtbf.num_boxes = cc.total_boxes();
    s.scenario.faults = sim::compile_mtbf_plan(mtbf);
    s.scenario.faults.retry.max_attempts = 2;
    s.scenario.faults.retry.delay_tu = 25.0;
    s.scenario.migrations.period_tu = 250.0;
    s.scenario.migrations.per_sweep_budget = 8;
  }
  s.scenario.validate();
  return s;
}

// ---- small helpers ------------------------------------------------------

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Process-wide peak resident set (VmHWM) in MB; -1 when unreadable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

/// CycleClock ticks -> nanoseconds, calibrated once against steady_clock.
double calibrate_ns_per_tick() {
  const auto w0 = SteadyClock::now();
  const std::uint64_t c0 = CycleClock::now();
  while (seconds_since(w0) < 0.02) {
  }
  const std::uint64_t c1 = CycleClock::now();
  const double ns = seconds_since(w0) * 1e9;
  return ns / static_cast<double>(c1 - c0);
}

/// Cost of an empty span with the replay's clock: two back-to-back reads.
double timer_overhead_ns(double ns_per_tick) {
  constexpr int kSpans = 1 << 20;
  std::uint64_t total = 0;
  for (int i = 0; i < kSpans; ++i) {
    const std::uint64_t a = CycleClock::now();
    const std::uint64_t b = CycleClock::now();
    total += b - a;
  }
  return static_cast<double>(total) / kSpans * ns_per_tick;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// Ordered (name -> {value, unit}) list printed as the "metrics" object.
struct MetricList {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(std::string name, double value, std::string unit) {
    items.emplace_back(std::move(name), std::make_pair(value, std::move(unit)));
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << '{';
    for (std::size_t i = 0; i < items.size(); ++i) {
      const double v = std::isfinite(items[i].second.first)
                           ? items[i].second.first : 0.0;
      os << (i ? "," : "") << '"' << items[i].first << "\":{\"value\":" << v
         << ",\"unit\":\"" << items[i].second.second << "\"}";
    }
    os << '}';
    return os.str();
  }
};

// ---- end-to-end engine repetitions -----------------------------------

struct EngineRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  double sched_p50_ns = 0.0;
  double sched_p99_ns = 0.0;
  std::uint64_t try_place_calls = 0;
  sim::SimMetrics m;
  std::string fingerprint;
};

/// One user-visible run: construct the stack and the source (set-up), then
/// replay the stream.  `source_wrap` optionally interposes on the source.
template <typename WrapFn>
EngineRun run_engine(const Setup& s, bool profile, sim::Telemetry* tel,
                     WrapFn&& source_wrap) {
  EngineRun r;
  const auto t0 = SteadyClock::now();
  sim::Engine engine(s.scenario, s.spec->algorithm);
  wl::SyntheticStreamSource source(s.synth, s.seed);
  r.setup_s = seconds_since(t0);

  Log2Histogram latency(256);  // 1/256 relative resolution
  engine.set_latency_histogram(&latency);
  engine.set_profiling(profile);
  engine.set_telemetry(tel);
  wl::ArrivalSource& feed = source_wrap(source);
  const auto t1 = SteadyClock::now();
  r.m = engine.run_stream(feed, std::string(s.spec->name));
  r.run_s = seconds_since(t1);
  r.try_place_calls = static_cast<std::uint64_t>(latency.total());
  if (latency.total() > 0) {
    r.sched_p50_ns = latency.percentile(50.0);
    r.sched_p99_ns = latency.percentile(99.0);
  }
  r.fingerprint = sim::metrics_fingerprint(r.m);
  return r;
}

EngineRun run_engine(const Setup& s, bool profile, sim::Telemetry* tel) {
  return run_engine(s, profile, tel,
                    [](wl::ArrivalSource& src) -> wl::ArrivalSource& {
                      return src;
                    });
}

/// ArrivalSource wrapper timing next_batch from outside the engine (the
/// lifecycle workload's workload.* numbers).
class TimedSource final : public wl::ArrivalSource {
 public:
  explicit TimedSource(wl::ArrivalSource& inner) : inner_(inner) {}
  std::size_t next_batch(std::span<wl::ArrivalItem> out) override {
    const std::uint64_t a = CycleClock::now();
    const std::size_t n = inner_.next_batch(out);
    ticks += CycleClock::now() - a;
    ++calls;
    items += n;
    return n;
  }
  void rewind() override { inner_.rewind(); }
  [[nodiscard]] std::uint64_t size_hint() const noexcept override {
    return inner_.size_hint();
  }
  void save_position(std::ostream& os) const override {
    inner_.save_position(os);
  }
  void restore_position(std::istream& is) override {
    inner_.restore_position(is);
  }

  std::uint64_t ticks = 0;
  std::uint64_t calls = 0;
  std::uint64_t items = 0;

 private:
  wl::ArrivalSource& inner_;
};

// ---- outside-in replay ------------------------------------------------

/// Per-layer tallies of one replay.  Timings are raw CycleClock ticks.
struct ReplayStats {
  std::uint64_t offered = 0, placed = 0, dropped = 0, inter_rack = 0;
  std::uint64_t fallback = 0, drop_no_compute = 0, drop_no_network = 0;
  std::uint64_t stranded_drops = 0;
  std::uint64_t circuits = 0, inter_rack_circuits = 0;
  std::uint64_t next_batch_calls = 0, release_calls = 0;
  std::uint64_t push_calls = 0, pop_calls = 0, peak_depth = 0;
  std::uint64_t source_ticks = 0, core_ticks = 0, des_ticks = 0;
  Log2Histogram place_ok{256}, place_drop{256}, release{256};
  Log2Histogram push{256}, pop{256};
  double wall_s = 0.0;
};

/// Spans of one detailed batch, emitted parent-first when the batch ends
/// (the trace reader requires spans in start order, parents first).
class SpanSink {
 public:
  SpanSink(TraceWriter& writer, double ns_per_tick, std::uint64_t base)
      : w_(writer), us_per_tick_(ns_per_tick * 1e-3), base_(base) {}

  void child(const char* name, std::uint64_t a, std::uint64_t b) {
    children_.push_back({name, a, b});
  }
  void batch(std::uint64_t a, std::uint64_t b, const ReplayStats& st,
             std::size_t depth) {
    w_.span("replay.batch", "perfbench", us(a), us(b) - us(a), kTid);
    for (const Child& c : children_) {
      w_.span(c.name, "perfbench", us(c.a), us(c.b) - us(c.a), kTid);
    }
    children_.clear();
    w_.counter("replay.placed", "perfbench", us(b),
               static_cast<double>(st.placed));
    w_.counter("replay.dropped", "perfbench", us(b),
               static_cast<double>(st.dropped));
    w_.counter("des.depth", "perfbench", us(b), static_cast<double>(depth));
  }

 private:
  struct Child {
    const char* name;
    std::uint64_t a, b;
  };
  static constexpr std::uint32_t kTid = 1;
  // Dyadic rounding (1/1024 us): sums of two such values are exact doubles,
  // so a child rounded from inside its parent's tick interval stays inside
  // the parent's rounded interval -- the strict-nesting check holds.
  [[nodiscard]] double us(std::uint64_t t) const {
    return std::round(static_cast<double>(t - base_) * us_per_tick_ * 1024.0) /
           1024.0;
  }

  TraceWriter& w_;
  double us_per_tick_;
  std::uint64_t base_;
  std::vector<Child> children_;
};

/// Times one call when Timed; a plain call otherwise (the untimed replay is
/// the tracing-overhead baseline and must carry no clock reads at all).
template <bool Timed>
struct Probe {
  SpanSink* sink = nullptr;  ///< non-null inside a detailed batch
  std::uint64_t last = 0;    ///< ticks of the most recent timed call
  template <typename F>
  auto operator()(const char* name, std::uint64_t& ticks, Log2Histogram* hist,
                  F&& fn) {
    if constexpr (!Timed) {
      return fn();
    } else {
      const std::uint64_t a = CycleClock::now();
      auto out = fn();
      const std::uint64_t b = CycleClock::now();
      last = b - a;
      ticks += b - a;
      if (hist != nullptr) hist->add(static_cast<double>(b - a));
      if (sink != nullptr) sink->child(name, a, b);
      return out;
    }
  }
};

/// Replays the plan-free stream through the layers' public calls (see file
/// comment).  `trace` (Timed only) receives the spans of ~8 batches spread
/// evenly over the stream.
template <bool Timed>
ReplayStats replay(const Setup& s, SpanSink* trace) {
  ReplayStats st;
  const auto w0 = SteadyClock::now();
  const sim::Scenario& sc = s.scenario;
  topo::Cluster cluster(sc.cluster);
  net::Fabric fabric(sc.cluster, sc.fabric);
  net::Router router(fabric);
  net::CircuitTable circuits(router);
  core::AllocContext ctx;
  ctx.cluster = &cluster;
  ctx.fabric = &fabric;
  ctx.router = &router;
  ctx.circuits = &circuits;
  ctx.bandwidth = sc.bandwidth;
  const std::unique_ptr<core::Allocator> alloc =
      core::make_allocator(s.spec->algorithm, ctx, sc.allocator);
  wl::SyntheticStreamSource source(s.synth, s.seed);
  const UnitScale& scale = sc.cluster.unit_scale;

  des::LadderCalendar<std::uint32_t> calendar;  // payload: slot index
  std::vector<core::Placement> slots;
  std::vector<std::uint32_t> free_slots;
  std::vector<wl::ArrivalItem> ring(1024);
  Probe<Timed> probe;
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, s.spec->count / ring.size() / 8);

  // One des.pop span covers the head query and, when a departure is due,
  // its pop: the ladder surfaces buckets inside next_time(), so timing the
  // cursor-bump pop alone would miss the dequeue work.
  constexpr std::uint32_t kNoneDue = ~std::uint32_t{0};
  auto depart_before = [&](SimTime limit) {
    while (true) {
      const std::uint32_t slot = probe("des.pop", st.des_ticks, nullptr, [&] {
        return !calendar.empty() && calendar.next_time() < limit
                   ? calendar.pop().payload
                   : kNoneDue;
      });
      if (slot == kNoneDue) return;
      if constexpr (Timed) st.pop.add(static_cast<double>(probe.last));
      ++st.pop_calls;
      probe("core.release", st.core_ticks, &st.release, [&] {
        alloc->release(slots[slot]);
        return 0;
      });
      ++st.release_calls;
      free_slots.push_back(slot);
    }
  };

  for (std::uint64_t batch = 0;; ++batch) {
    const bool detailed = Timed && trace != nullptr && batch % stride == 0;
    probe.sink = detailed ? trace : nullptr;
    const std::uint64_t batch_t0 = detailed ? CycleClock::now() : 0;
    const std::size_t n =
        probe("workload.next_batch", st.source_ticks, nullptr,
              [&] { return source.next_batch(ring); });
    ++st.next_batch_calls;
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      const wl::VmRequest& vm = ring[i].vm;
      ++st.offered;
      depart_before(vm.arrival);
      auto placed = probe("core.try_place", st.core_ticks, nullptr,
                          [&] { return alloc->try_place(vm); });
      if constexpr (Timed) {
        // Routed by outcome: success and drop are different code paths.
        (placed.ok() ? st.place_ok : st.place_drop)
            .add(static_cast<double>(probe.last));
      }
      if (placed.ok()) {
        ++st.placed;
        std::uint32_t slot;
        if (free_slots.empty()) {
          slot = static_cast<std::uint32_t>(slots.size());
          slots.push_back(std::move(placed.value()));
        } else {
          slot = free_slots.back();
          free_slots.pop_back();
          slots[slot] = std::move(placed.value());
        }
        const core::Placement& p = slots[slot];
        const RackId cpu = p.rack(ResourceType::Cpu);
        const RackId ram = p.rack(ResourceType::Ram);
        const RackId sto = p.rack(ResourceType::Storage);
        st.inter_rack += cpu != ram;
        st.circuits += 2;
        st.inter_rack_circuits += (cpu != ram) + (ram != sto);
        st.fallback += p.used_fallback;
        probe("des.push", st.des_ticks, &st.push, [&] {
          calendar.push(vm.arrival + vm.lifetime, slot);
          return 0;
        });
        ++st.push_calls;
        st.peak_depth = std::max<std::uint64_t>(st.peak_depth, calendar.size());
      } else {
        ++st.dropped;
        if (placed.error() == core::DropReason::NoComputeResources) {
          ++st.drop_no_compute;
        } else {
          ++st.drop_no_network;
        }
        // Stranded: the cluster as a whole had room in every type.
        const UnitVector need = vm.units(scale);
        bool covered = true;
        for (ResourceType t : kAllResources) {
          covered = covered && cluster.total_available(t) >= need[t];
        }
        st.stranded_drops += covered;
      }
    }
    if (detailed) {
      trace->batch(batch_t0, CycleClock::now(), st, calendar.size());
    }
  }
  probe.sink = nullptr;
  depart_before(std::numeric_limits<SimTime>::infinity());
  st.wall_s = seconds_since(w0);
  return st;
}

double pct(const Log2Histogram& h, double p, double ns_per_tick) {
  return h.total() > 0 ? h.percentile(p) * ns_per_tick : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Deterministic counts of a run, compared across repetitions and against
/// perfbench/reference.json.
struct Counts {
  std::uint64_t offered = 0, placed = 0, dropped = 0, inter_rack = 0;
  std::uint64_t events = 0, killed = 0, requeued = 0, retry_placed = 0;
  std::uint64_t migrated = 0;
  std::string fingerprint;

  static Counts of(const EngineRun& r) {
    const sim::SimMetrics& m = r.m;
    return {m.total_vms, m.placed, m.dropped, m.inter_rack_placements,
            m.events_executed, m.killed, m.requeued, m.retry_placed,
            m.migrated, r.fingerprint};
  }
  [[nodiscard]] bool operator==(const Counts&) const = default;
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os << "{\"offered\":" << offered << ",\"placed\":" << placed
       << ",\"dropped\":" << dropped << ",\"inter_rack\":" << inter_rack
       << ",\"events\":" << events << ",\"killed\":" << killed
       << ",\"requeued\":" << requeued << ",\"retry_placed\":" << retry_placed
       << ",\"migrated\":" << migrated << ",\"fingerprint\":\""
       << json_escape(fingerprint) << "\"}";
    return os.str();
  }
};

/// The replay must reproduce the engine's placement outcome exactly.
void check_replay(const ReplayStats& rs, const Counts& c,
                  std::vector<std::string>& errors) {
  if (rs.offered != c.offered || rs.placed != c.placed ||
      rs.dropped != c.dropped || rs.inter_rack != c.inter_rack) {
    std::ostringstream os;
    os << "replay placed/dropped/inter_rack " << rs.placed << '/'
       << rs.dropped << '/' << rs.inter_rack << " != engine " << c.placed
       << '/' << c.dropped << '/' << c.inter_rack;
    errors.push_back(os.str());
  }
}

void check_counts(const Counts& first, const Counts& now,
                  std::vector<std::string>& errors) {
  if (!(first == now)) {
    errors.push_back("repetitions disagree: " + first.json() + " vs " +
                     now.json());
  }
  if (now.placed + now.dropped != now.offered) {
    errors.push_back("placed + dropped != offered: " + now.json());
  }
}

/// Phase profile as seconds plus the attributed share of the run's wall.
void add_phases(MetricList& out, const sim::SimMetrics& m) {
  using sim::Phase;
  const std::pair<const char*, Phase> phases[] = {
      {"sim.phase.source_pull_s", Phase::SourcePull},
      {"sim.phase.admission_s", Phase::Admission},
      {"sim.phase.placement_s", Phase::Placement},
      {"sim.phase.calendar_s", Phase::Calendar},
      {"sim.phase.settlement_s", Phase::Settlement},
      {"sim.phase.ledger_s", Phase::Ledger},
      {"sim.phase.merge_s", Phase::Merge},
  };
  for (const auto& [name, p] : phases) out.add(name, m.profile[p], "s");
  out.add("sim.phase.attributed_share",
          ratio(m.profile.total(), m.sim_wall_seconds), "ratio");
}

void add_sim_counts(MetricList& out, const sim::SimMetrics& m) {
  out.add("sim.events", static_cast<double>(m.events_executed), "count");
  out.add("sim.killed", static_cast<double>(m.killed), "count");
  out.add("sim.requeued", static_cast<double>(m.requeued), "count");
  out.add("sim.retry_placed", static_cast<double>(m.retry_placed), "count");
  out.add("sim.migrated", static_cast<double>(m.migrated), "count");
}

void add_model_utilization(MetricList& out, const sim::SimMetrics& m) {
  out.add("topology.avg_util_cpu", m.avg_utilization[ResourceType::Cpu],
          "ratio");
  out.add("topology.avg_util_ram", m.avg_utilization[ResourceType::Ram],
          "ratio");
  out.add("topology.avg_util_storage",
          m.avg_utilization[ResourceType::Storage], "ratio");
}

/// Per-layer metrics of one plan-free round: a timed replay (layers), an
/// untimed replay (tracing-overhead baseline) and a profiled engine run.
MetricList plan_free_round(const EngineRun& eng,
                           const ReplayStats& rs, double untimed_wall_s,
                           double ns_per_tick, double timer_ns) {
  const double s_per_tick = ns_per_tick * 1e-9;
  const double tries = static_cast<double>(rs.offered);
  MetricList out;
  out.add("workload.next_batch_calls",
          static_cast<double>(rs.next_batch_calls), "count");
  out.add("workload.busy_s", static_cast<double>(rs.source_ticks) * s_per_tick,
          "s");
  out.add("workload.ns_per_vm",
          ratio(static_cast<double>(rs.source_ticks) * ns_per_tick, tries),
          "ns");
  out.add("core.try_place_calls", tries, "count");
  out.add("core.placed", static_cast<double>(rs.placed), "count");
  out.add("core.dropped", static_cast<double>(rs.dropped), "count");
  out.add("core.place_success_ratio",
          ratio(static_cast<double>(rs.placed), tries), "ratio");
  out.add("core.place_ok_p50_ns", pct(rs.place_ok, 50, ns_per_tick), "ns");
  out.add("core.place_ok_p99_ns", pct(rs.place_ok, 99, ns_per_tick), "ns");
  out.add("core.place_drop_p50_ns", pct(rs.place_drop, 50, ns_per_tick), "ns");
  out.add("core.place_drop_p99_ns", pct(rs.place_drop, 99, ns_per_tick), "ns");
  out.add("core.release_calls", static_cast<double>(rs.release_calls),
          "count");
  out.add("core.release_p50_ns", pct(rs.release, 50, ns_per_tick), "ns");
  out.add("core.release_p99_ns", pct(rs.release, 99, ns_per_tick), "ns");
  out.add("core.busy_s", static_cast<double>(rs.core_ticks) * s_per_tick, "s");
  out.add("core.drop_no_compute", static_cast<double>(rs.drop_no_compute),
          "count");
  out.add("core.drop_no_network", static_cast<double>(rs.drop_no_network),
          "count");
  out.add("core.fallback_placements", static_cast<double>(rs.fallback),
          "count");
  out.add("des.push_calls", static_cast<double>(rs.push_calls), "count");
  out.add("des.pop_calls", static_cast<double>(rs.pop_calls), "count");
  out.add("des.push_p50_ns", pct(rs.push, 50, ns_per_tick), "ns");
  out.add("des.pop_p50_ns", pct(rs.pop, 50, ns_per_tick), "ns");
  out.add("des.peak_depth", static_cast<double>(rs.peak_depth), "count");
  out.add("des.busy_s", static_cast<double>(rs.des_ticks) * s_per_tick, "s");
  out.add("topology.stranded_drop_share",
          ratio(static_cast<double>(rs.stranded_drops),
                static_cast<double>(rs.dropped)),
          "ratio");
  add_model_utilization(out, eng.m);
  out.add("network.inter_rack_circuit_share",
          ratio(static_cast<double>(rs.inter_rack_circuits),
                static_cast<double>(rs.circuits)),
          "ratio");
  out.add("network.avg_intra_util", eng.m.avg_intra_net_utilization, "ratio");
  out.add("network.avg_inter_util", eng.m.avg_inter_net_utilization, "ratio");
  add_phases(out, eng.m);
  add_sim_counts(out, eng.m);
  out.add("bench.timer_overhead_ns", timer_ns, "ns");
  out.add("bench.trace_overhead_share", rs.wall_s / untimed_wall_s - 1.0,
          "ratio");
  return out;
}

/// Per-layer metrics of one lifecycle round, read from the outside of the
/// engine: a timed source wrapper, the phase profile and the telemetry
/// registry.  Values a replay would be needed for are reported as -1.
MetricList lifecycle_round(const EngineRun& eng, const TimedSource& src,
                           MetricsRegistry& reg, double peak_depth,
                           double untraced_run_s, double ns_per_tick,
                           double timer_ns) {
  constexpr double kNotObservable = -1.0;
  const sim::SimMetrics& m = eng.m;
  auto counter = [&](std::string_view name) {
    return static_cast<double>(reg.counter_value(reg.counter(name)));
  };
  const double tries = static_cast<double>(eng.try_place_calls);
  const double placed = counter("vm.admitted") + counter("vm.retry_placed");
  const double injected =
      static_cast<double>(m.events_executed - m.total_vms);
  const double source_s = static_cast<double>(src.ticks) * ns_per_tick * 1e-9;
  MetricList out;
  out.add("workload.next_batch_calls", static_cast<double>(src.calls),
          "count");
  out.add("workload.busy_s", source_s, "s");
  out.add("workload.ns_per_vm",
          ratio(source_s * 1e9, static_cast<double>(src.items)), "ns");
  out.add("core.try_place_calls", tries, "count");
  out.add("core.placed", placed, "count");
  out.add("core.dropped", tries - placed, "count");
  out.add("core.place_success_ratio", ratio(placed, tries), "ratio");
  out.add("core.place_ok_p50_ns", eng.sched_p50_ns, "ns");
  out.add("core.place_ok_p99_ns", eng.sched_p99_ns, "ns");
  out.add("core.place_drop_p50_ns", kNotObservable, "ns");
  out.add("core.place_drop_p99_ns", kNotObservable, "ns");
  out.add("core.release_calls", placed, "count");
  out.add("core.release_p50_ns", kNotObservable, "ns");
  out.add("core.release_p99_ns", kNotObservable, "ns");
  out.add("core.busy_s",
          m.profile[sim::Phase::Placement] + m.profile[sim::Phase::Settlement],
          "s");
  out.add("core.drop_no_compute", counter("vm.dropped.no-compute"), "count");
  out.add("core.drop_no_network", counter("vm.dropped.no-network"), "count");
  out.add("core.fallback_placements",
          static_cast<double>(m.fallback_placements), "count");
  out.add("des.push_calls", injected, "count");
  out.add("des.pop_calls", injected, "count");
  out.add("des.push_p50_ns", kNotObservable, "ns");
  out.add("des.pop_p50_ns", kNotObservable, "ns");
  out.add("des.peak_depth", peak_depth, "count");
  out.add("des.busy_s", m.profile[sim::Phase::Calendar], "s");
  out.add("topology.stranded_drop_share", kNotObservable, "ratio");
  add_model_utilization(out, m);
  out.add("network.inter_rack_circuit_share", kNotObservable, "ratio");
  out.add("network.avg_intra_util", m.avg_intra_net_utilization, "ratio");
  out.add("network.avg_inter_util", m.avg_inter_net_utilization, "ratio");
  add_phases(out, m);
  add_sim_counts(out, m);
  out.add("bench.timer_overhead_ns", timer_ns, "ns");
  out.add("bench.trace_overhead_share", eng.run_s / untraced_run_s - 1.0,
          "ratio");
  return out;
}

/// Element-wise median of rounds that list the same metrics in one order.
MetricList median_of(const std::vector<MetricList>& rounds) {
  MetricList out = rounds.front();
  for (std::size_t i = 0; i < out.items.size(); ++i) {
    std::vector<double> v;
    for (const MetricList& r : rounds) v.push_back(r.items[i].second.first);
    out.items[i].second.first = median(std::move(v));
  }
  return out;
}

/// Timing statistic over a run's repetitions: the best one (the highest
/// rate, the lowest time).  Other tenants of a shared host only ever slow a
/// repetition, in bursts that last seconds, so the best repetition tracks the
/// program's own speed far more steadily than the median does
/// (perfbench/README.md, "Statistics").
double best_of(const std::vector<double>& v, bool higher_is_better) {
  if (v.empty()) return 0.0;
  return higher_is_better ? *std::max_element(v.begin(), v.end())
                          : *std::min_element(v.begin(), v.end());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string trace_out = "perfbench_trace";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k(argv[i]);
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + std::string(k));
    }
  }
  if ((argc - 1) % 2 != 0 || a.workload.empty() || !have_seed ||
      a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument(
        "usage: risa_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 [--trace-out PREFIX]");
  }
  return a;
}

/// What one invocation measured, plus what the correctness gate needs.
struct Outcome {
  MetricList metrics;
  EngineRun first;  ///< the regime and counts every later run must repeat
  Counts counts;
  std::uint64_t attempted = 0;  ///< offered VMs over every engine run
  std::size_t repetitions = 0;
  std::vector<std::string> errors;

  void record(const EngineRun& r) {
    if (attempted == 0) {
      first = r;
      counts = Counts::of(r);
    }
    check_counts(counts, Counts::of(r), errors);
    attempted += r.m.total_vms;
  }
};

/// --trace 0: user-visible runs, repeated for `seconds` after one warmup.
void measure_end_to_end(const Setup& s, double seconds, Outcome& out) {
  const auto start = SteadyClock::now();
  out.record(run_engine(s, false, nullptr));  // warmup: pages, pools, caches
  std::vector<double> setup_s, events_ps, placed_ps, p50, p99;
  while (out.repetitions < 3 || seconds_since(start) < seconds) {
    const EngineRun r = run_engine(s, false, nullptr);
    out.record(r);
    setup_s.push_back(r.setup_s);
    events_ps.push_back(static_cast<double>(r.m.events_executed) / r.run_s);
    placed_ps.push_back(static_cast<double>(r.m.placed) / r.run_s);
    p50.push_back(r.sched_p50_ns);
    p99.push_back(r.sched_p99_ns);
    ++out.repetitions;
  }
  const sim::SimMetrics& m = out.first.m;
  const double offered = static_cast<double>(m.total_vms);
  MetricList& mt = out.metrics;
  mt.add("events_per_s", best_of(events_ps, true), "events/s");
  mt.add("placed_vms_per_s", best_of(placed_ps, true), "VMs/s");
  mt.add("sched_p50_ns", best_of(p50, false), "ns");
  mt.add("sched_p99_ns", best_of(p99, false), "ns");
  mt.add("setup_s", best_of(setup_s, false), "s");
  mt.add("peak_rss_mb", peak_rss_mb(), "MB");
  mt.add("placed_fraction", static_cast<double>(m.placed) / offered, "ratio");
  mt.add("intra_rack_fraction",
         static_cast<double>(m.placed - m.inter_rack_placements) / offered,
         "ratio");
  mt.add("optical_power_w", m.avg_optical_power_w, "W");
  mt.add("cpu_ram_rtt_ns", m.cpu_ram_latency_ns.mean(), "ns");
  if (!s.spec->lifecycle) {
    check_replay(replay<false>(s, nullptr), out.counts, out.errors);
  }
}

/// --trace 1, plan-free workloads: profiled engine run + timed replay +
/// untimed replay per round; the first timed replay writes the trace.
void measure_replay_layers(const Setup& s, const Args& args,
                           double ns_per_tick, double timer_ns, Outcome& out) {
  const auto start = SteadyClock::now();
  std::vector<MetricList> rounds;
  while (rounds.empty() || seconds_since(start) < args.seconds) {
    const EngineRun eng = run_engine(s, true, nullptr);
    out.record(eng);
    ReplayStats rs;
    if (rounds.empty()) {
      TraceWriter writer(args.trace_out + ".replay.json");
      writer.process_name("perfbench replay / " + args.workload);
      writer.thread_name(1, "replay");
      SpanSink sink(writer, ns_per_tick, CycleClock::now());
      rs = replay<true>(s, &sink);
      writer.close();
      if (!writer.ok()) out.errors.push_back("replay trace not written");
    } else {
      rs = replay<true>(s, nullptr);
    }
    const ReplayStats plain = replay<false>(s, nullptr);
    check_replay(rs, out.counts, out.errors);
    check_replay(plain, out.counts, out.errors);
    rounds.push_back(
        plan_free_round(eng, rs, plain.wall_s, ns_per_tick, timer_ns));
  }
  out.repetitions = rounds.size();
  out.metrics = median_of(rounds);
}

/// --trace 1, lifecycle: profiled + telemetry-armed engine run behind a
/// timed source, and a plain engine run as the tracing-overhead baseline.
void measure_engine_layers(const Setup& s, const Args& args,
                           double ns_per_tick, double timer_ns, Outcome& out) {
  const auto start = SteadyClock::now();
  std::vector<MetricList> rounds;
  double peak_depth = -1.0;
  while (rounds.empty() || seconds_since(start) < args.seconds) {
    sim::TelemetryConfig tc;
    if (rounds.empty()) tc.trace_path = args.trace_out + ".engine.json";
    tc.categories = sim::kTraceCalendar | sim::kTraceLifecycle;
    tc.sample_cadence_tu = 100.0;
    sim::Telemetry tel(tc);
    std::unique_ptr<TimedSource> timed;
    const EngineRun eng = run_engine(
        s, true, &tel, [&](wl::ArrivalSource& src) -> wl::ArrivalSource& {
          timed = std::make_unique<TimedSource>(src);
          return *timed;
        });
    tel.close();
    out.record(eng);
    if (rounds.empty()) {
      // Calendar depth is sampled into the telemetry trace's counter track.
      for (const auto& c : sim::summarize_trace_file(tc.trace_path).counters) {
        if (c.name == "calendar_events") peak_depth = c.max;
      }
    }
    const EngineRun plain = run_engine(s, false, nullptr);
    out.record(plain);
    rounds.push_back(lifecycle_round(eng, *timed, tel.registry(), peak_depth,
                                     plain.run_s, ns_per_tick, timer_ns));
  }
  out.repetitions = rounds.size();
  out.metrics = median_of(rounds);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const WorkloadSpec* spec = nullptr;
    for (const WorkloadSpec& w : kWorkloads) {
      if (w.name == args.workload) spec = &w;
    }
    if (spec == nullptr) {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    const Setup setup = make_setup(*spec, args.seed);
    Outcome out;
    if (args.trace == 0) {
      measure_end_to_end(setup, args.seconds, out);
    } else {
      const double ns_per_tick = calibrate_ns_per_tick();
      const double timer_ns = timer_overhead_ns(ns_per_tick);
      if (spec->lifecycle) {
        measure_engine_layers(setup, args, ns_per_tick, timer_ns, out);
      } else {
        measure_replay_layers(setup, args, ns_per_tick, timer_ns, out);
      }
    }
    // The reference stream: replayed once by every run, whatever its seed,
    // and compared with perfbench/reference.json by run.py.
    const EngineRun check =
        run_engine(make_setup(*spec, sim::kDefaultSeed), false, nullptr);

    const sim::SimMetrics& m = out.first.m;
    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\":\"" << spec->name << "\",\"seed\":" << args.seed
       << ",\"trace\":" << args.trace << ",\"attempted\":" << out.attempted
       << ",\"repetitions\":" << out.repetitions
       << ",\"counts\":" << out.counts.json()
       << ",\"check_seed\":" << sim::kDefaultSeed
       << ",\"check_counts\":" << Counts::of(check).json()
       << ",\"regime\":{\"algorithm\":\"" << spec->algorithm
       << "\",\"lifecycle\":" << (spec->lifecycle ? "true" : "false")
       << ",\"rho\":" << setup.rho << ",\"capacity_vms\":"
       << setup.capacity_vms << ",\"offered_vms\":" << m.total_vms
       << ",\"events\":" << m.events_executed << ",\"placed\":" << m.placed
       << ",\"dropped\":" << m.dropped
       << ",\"drop_fraction\":" << m.drop_fraction()
       << ",\"inter_rack_fraction\":" << m.inter_rack_fraction();
    if (m.profile.recorded) {
      os << ",\"phase_share\":{";
      for (std::size_t p = 0; p < sim::kNumPhases; ++p) {
        os << (p ? "," : "") << '"' << sim::kPhaseNames[p] << "\":"
           << ratio(m.profile.seconds[p], m.profile.total());
      }
      os << '}';
    }
    os << "},\"build\":{\"compiler\":\"" << json_escape(PERFBENCH_COMPILER)
       << "\",\"flags\":\"" << json_escape(PERFBENCH_FLAGS)
       << "\",\"simd\":\"" << simd::kBackend << "\"},\"errors\":[";
    for (std::size_t i = 0; i < out.errors.size(); ++i) {
      os << (i ? "," : "") << '"' << json_escape(out.errors[i]) << '"';
    }
    os << "],\"metrics\":" << out.metrics.json() << '}';
    std::cout << os.str() << std::endl;
    return out.errors.empty() ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << "risa_perfbench: " << e.what() << '\n';
    return 1;
  }
}
