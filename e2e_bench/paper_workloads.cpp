// stereo_caps and sire_caps: the paper's Table II cells at paper scale,
// baseline plus two caps, through harness::run_power_cap_study.
//
// Set-up builds the application inputs (the stereo pair, the SIRE radar
// returns). Every cell of a pass borrows that one instance, since the
// workload's run() reads its inputs and never changes them.
#include <optional>

#include "apps/machine.hpp"
#include "apps/sar/workload.hpp"
#include "apps/stereo/workload.hpp"
#include "apps/trace.hpp"
#include "bench.hpp"
#include "cache/cache.hpp"
#include "cache/tlb.hpp"
#include "core/bmc.hpp"
#include "harness/experiment.hpp"
#include "pmu/counters.hpp"
#include "sim/hierarchy.hpp"
#include "sim/node.hpp"

namespace e2e {

namespace {

using namespace pcap;

/// Ops recorded for the cache/TLB replays (16 B each in memory).
constexpr std::size_t kRecordOps = 2'000'000;
/// Host-kernel runs and replays per probe; the median is reported.
constexpr int kProbeReps = 3;

/// Lends a prebuilt workload to one study cell.
class Borrowed final : public sim::Workload {
 public:
  explicit Borrowed(sim::Workload& inner) : inner_(&inner) {}
  std::string name() const override { return inner_->name(); }
  void run(sim::ExecutionContext& ctx) override { inner_->run(ctx); }

 private:
  sim::Workload* inner_;
};

/// Host narration that ends the kernel once the recording is full.
struct RecordingFull {};
class BoundedHost : public apps::HostMachine {
 public:
  BoundedHost(const apps::Trace& trace, std::size_t limit)
      : trace_(&trace), limit_(limit) {}
  void load(apps::Address) { check(); }
  void store(apps::Address) { check(); }
  void compute(std::uint64_t) { check(); }
  void load_stream(apps::Address, std::int64_t, std::uint64_t) { check(); }
  void store_stream(apps::Address, std::int64_t, std::uint64_t) { check(); }
  void rmw_stream(apps::Address, std::int64_t, std::uint64_t, std::uint64_t) {
    check();
  }
  void pattern_stream(std::span<const apps::StreamOp>, std::int64_t,
                      std::uint64_t, std::uint64_t) {
    check();
  }

 private:
  void check() const {
    if (trace_->size() >= limit_) throw RecordingFull{};
  }
  const apps::Trace* trace_;
  std::size_t limit_;
};
using Recorder = apps::RecordingMachine<BoundedHost>;

struct DataOp {
  std::uint64_t addr;
  bool store;
};

std::uint64_t cell_signature(double time_s, double energy_j,
                             const std::array<double, pmu::kEventCount>& c) {
  Digest d;
  d.add(time_s);
  d.add(energy_j);
  for (const double v : c) d.add(v);
  return d.value();
}

class PaperCaps : public Workload {
 public:
  PaperCaps(PaperApp app, std::vector<double> caps, std::uint64_t seed)
      : app_(app), caps_(std::move(caps)), seed_(seed) {}

  void setup() override { instance_ = build(); }

  PassResult run_pass() override {
    const harness::StudyConfig config = study_config();
    std::vector<Clock::time_point> cell_starts;
    const harness::WorkloadFactory factory = [&] {
      cell_starts.push_back(Clock::now());
      return std::make_unique<Borrowed>(*instance_);
    };
    const Clock::time_point start = Clock::now();
    const harness::StudyResult study =
        harness::run_power_cap_study(instance_->name(), factory, config);
    const Clock::time_point end = Clock::now();

    PassResult pass;
    pass.wall_s = seconds_between(start, end);
    for (std::size_t i = 0; i < cell_starts.size(); ++i) {
      const Clock::time_point next =
          i + 1 < cell_starts.size() ? cell_starts[i + 1] : end;
      pass.step_ms.push_back(1e3 * seconds_between(cell_starts[i], next));
    }
    std::vector<const harness::CellStats*> cells = {&study.baseline};
    for (const harness::CellStats& cell : study.capped) cells.push_back(&cell);
    check_cells(cells, pass);
    return pass;
  }

  PassResult run_traced_pass(SpanRecorder& spans, LayerSheet& sheet) override {
    const harness::StudyConfig config = study_config();
    std::vector<harness::CellStats> stats;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan pass_span(&spans, "harness.study");
      std::vector<std::optional<double>> caps = {std::nullopt};
      caps.insert(caps.end(), caps_.begin(), caps_.end());
      for (const std::optional<double> cap : caps) {
        stats.push_back(traced_cell(config, cap, spans, sheet));
      }
    }
    PassResult pass;
    pass.wall_s = seconds_between(start, Clock::now());
    std::vector<const harness::CellStats*> cells;
    for (const harness::CellStats& cell : stats) cells.push_back(&cell);
    check_cells(cells, pass);
    sheet.set("sim.ins", pass.sim_instructions);
    double simulated_s = 0.0;
    for (const harness::CellStats& cell : stats) simulated_s += cell.time_s;
    sheet.set("sim.simulated_s", simulated_s);
    cells_ = stats.size();
    return pass;
  }

  void probe_layers(SpanRecorder& spans, LayerSheet& sheet) override {
    std::vector<double> host_s;
    for (int r = 0; r < kProbeReps; ++r) {
      ScopedSpan span(&spans, "apps.host_kernels");
      const Clock::time_point t0 = Clock::now();
      run_on_host();
      host_s.push_back(seconds_between(t0, Clock::now()));
    }
    sheet.set("apps.host_s", median(host_s));
    const double ins = sheet.get("sim.ins");
    const double run_s = sheet.get("sim.run_s");
    sheet.set("sim.host_ns_per_ins", ins > 0 ? 1e9 * run_s / ins : 0.0);
    sheet.set("sim.self_s", run_s - sheet.get("core.bmc_s") -
                                static_cast<double>(cells_) * median(host_s));

    std::vector<DataOp> ops;
    {
      ScopedSpan span(&spans, "apps.record");
      apps::Trace trace;
      trace.ops.reserve(kRecordOps + 4096);
      BoundedHost inner(trace, kRecordOps);
      Recorder recorder(inner, trace);
      try {
        record(recorder);
      } catch (const RecordingFull&) {
      }
      for (const apps::TraceOp& op : trace.ops) {
        if (op.kind == apps::TraceOp::Kind::kLoad ||
            op.kind == apps::TraceOp::Kind::kStore) {
          ops.push_back({op.value, op.kind == apps::TraceOp::Kind::kStore});
        }
      }
    }
    sheet.set("cache.replay_accesses", static_cast<double>(ops.size()));
    const sim::HierarchyConfig hc = study_config().machine.hierarchy;
    sheet.set("sim.hierarchy_ns_per_access",
              replay(spans, "sim.hierarchy_replay", ops, [&] {
                pmu::CounterBank bank;
                sim::MemoryHierarchy hierarchy(hc, bank);
                for (const DataOp& op : ops) {
                  hierarchy.access(op.addr, op.store ? sim::AccessType::kStore
                                                     : sim::AccessType::kLoad);
                }
              }));
    sheet.set("cache.l1d_ns_per_access",
              replay(spans, "cache.l1d_replay", ops, [&] {
                cache::Cache l1d(hc.l1d);
                for (const DataOp& op : ops) l1d.access(op.addr, op.store);
              }));
    sheet.set("cache.dtlb_ns_per_lookup",
              replay(spans, "cache.dtlb_replay", ops, [&] {
                cache::Tlb dtlb(hc.dtlb);
                for (const DataOp& op : ops) dtlb.lookup(op.addr);
              }));
  }

 protected:
  virtual std::unique_ptr<sim::Workload> build() const = 0;
  /// The same kernels on apps::HostMachine: host arithmetic only.
  virtual void run_on_host() const = 0;
  /// Runs the kernels narrating to `m` until the recording is full.
  virtual void record(Recorder& m) const = 0;

  const sim::Workload& instance() const { return *instance_; }

 private:
  harness::StudyConfig study_config() const {
    harness::StudyConfig config;
    config.caps_w = caps_;
    config.repetitions = 1;
    config.seed = seed_;
    return config;
  }

  /// One cell as run_power_cap_study runs it (a fresh node and BMC, caches
  /// cold, cap set before the run), with the BMC behind a timing hook.
  harness::CellStats traced_cell(const harness::StudyConfig& config,
                                 std::optional<double> cap,
                                 SpanRecorder& spans, LayerSheet& sheet) {
    ScopedSpan cell_span(&spans, "harness.cell");
    sim::Node node(config.machine, config.seed);
    core::Bmc bmc(node, config.bmc);
    double bmc_s = 0.0;
    std::uint64_t ticks = 0;
    node.set_control_hook([&](sim::PlatformControl&) {
      const Clock::time_point t0 = Clock::now();
      bmc.on_control_tick();
      const Clock::time_point t1 = Clock::now();
      spans.add("core.bmc_tick", t0, t1);
      bmc_s += seconds_between(t0, t1);
      ++ticks;
    });
    node.hierarchy().flush_caches();
    node.hierarchy().flush_tlbs();
    bmc.set_cap(std::nullopt);
    bmc.set_cap(cap);
    Borrowed workload(*instance_);
    sim::RunReport report;
    {
      const Clock::time_point t0 = Clock::now();
      ScopedSpan run_span(&spans, "sim.node_run");
      report = node.run(workload);
      sheet.add("sim.run_s", seconds_between(t0, Clock::now()));
    }
    sheet.add("core.bmc_s", bmc_s);
    sheet.add("core.bmc_ticks", static_cast<double>(ticks));
    sheet.add("core.bmc_level_changes",
              static_cast<double>(bmc.level_changes()));
    sheet.set("core.bmc_max_level",
              std::max(sheet.get("core.bmc_max_level"),
                       static_cast<double>(bmc.max_level_reached())));
    bmc.set_cap(std::nullopt);
    node.set_control_hook(nullptr);

    const sim::MemoryHierarchy& h = node.hierarchy();
    const auto add_cache = [&](const char* level, const cache::CacheStats& s) {
      sheet.add(std::string("cache.") + level + ".accesses",
                static_cast<double>(s.accesses));
      sheet.add(std::string("cache.") + level + ".misses",
                static_cast<double>(s.misses));
    };
    add_cache("l1i", h.l1i().stats());
    add_cache("l1d", h.l1d().stats());
    add_cache("l2", h.l2().stats());
    add_cache("l3", h.l3().stats());
    sheet.add("cache.itlb.accesses", static_cast<double>(h.itlb().stats().accesses));
    sheet.add("cache.itlb.misses", static_cast<double>(h.itlb().stats().misses));
    sheet.add("cache.dtlb.accesses", static_cast<double>(h.dtlb().stats().accesses));
    sheet.add("cache.dtlb.misses", static_cast<double>(h.dtlb().stats().misses));
    sheet.add("mem.dram.accesses", static_cast<double>(h.dram().stats().accesses));

    // Averaged exactly as the study averages one repetition.
    harness::CellStats cell;
    cell.cap_w = cap;
    cell.repetitions = 1;
    cell.time_s = util::to_seconds(report.elapsed);
    cell.energy_j = report.energy_j;
    for (std::size_t i = 0; i < pmu::kEventCount; ++i) {
      cell.counters[i] = static_cast<double>(report.counters[i]);
    }
    return cell;
  }

  /// Operation checks, digest, signatures and error against the paper.
  /// cells[0] is the baseline, then the caps in descending order.
  void check_cells(const std::vector<const harness::CellStats*>& cells,
                   PassResult& pass) const {
    const harness::CellStats& base = *cells.front();
    const double base_ins = base.counter(pmu::Event::kTotIns);
    Digest digest;
    std::vector<PaperCell> paper;
    double previous_time = base.time_s;
    for (const harness::CellStats* cell : cells) {
      ++pass.attempted;
      const double ins = cell->counter(pmu::Event::kTotIns);
      const std::string label =
          cell->cap_w ? "cap " + std::to_string(*cell->cap_w) + " W"
                      : std::string("baseline");
      if (ins != base_ins) {
        pass.fail(label + ": committed instructions differ from baseline");
      } else if (cell->time_s < previous_time) {
        pass.fail(label + ": simulated time fell as the cap dropped");
      }
      previous_time = cell->time_s;
      pass.sim_instructions += ins;
      const std::uint64_t signature =
          cell_signature(cell->time_s, cell->energy_j, cell->counters);
      pass.signatures.push_back(signature);
      digest.add(signature);
      if (cell->cap_w) {
        paper.push_back({*cell->cap_w, cell->time_s / base.time_s,
                         cell->energy_j / base.energy_j});
      }
    }
    pass.digest = digest.value();
    paper_error(app_, paper, pass.paper_time_err, pass.paper_energy_err);
  }

  template <typename Body>
  double replay(SpanRecorder& spans, const char* name,
                const std::vector<DataOp>& ops, Body body) {
    std::vector<double> ns;
    for (int r = 0; r < kProbeReps; ++r) {
      ScopedSpan span(&spans, name);
      const Clock::time_point t0 = Clock::now();
      body();
      ns.push_back(1e9 * seconds_between(t0, Clock::now()) /
                   static_cast<double>(ops.empty() ? 1 : ops.size()));
    }
    return median(ns);
  }

  PaperApp app_;
  std::vector<double> caps_;
  std::uint64_t seed_;
  std::unique_ptr<sim::Workload> instance_;
  std::size_t cells_ = 0;
};

class StereoCaps final : public PaperCaps {
 public:
  explicit StereoCaps(std::uint64_t seed)
      : PaperCaps(PaperApp::kStereo, {135.0, 120.0}, seed) {}

 private:
  const apps::stereo::StereoWorkload& stereo() const {
    return static_cast<const apps::stereo::StereoWorkload&>(instance());
  }
  std::unique_ptr<sim::Workload> build() const override {
    return std::make_unique<apps::stereo::StereoWorkload>(
        apps::stereo::StereoParams::paper());
  }
  // Mirrors StereoWorkload::run with another narration policy.
  template <typename Machine>
  void kernels(Machine& m, bool record_anneal_only) const {
    const apps::stereo::StereoPair& pair = stereo().pair();
    const auto& params = stereo().params();
    const apps::Address left = m.alloc(pair.pixels() * sizeof(float));
    const apps::Address right = m.alloc(pair.pixels() * sizeof(float));
    const apps::Address volume = m.alloc(static_cast<std::uint64_t>(
        pair.max_disparity * pair.pixels() * sizeof(std::uint16_t)));
    const apps::Address disparity = m.alloc(pair.pixels());
    apps::HostMachine host;
    const apps::stereo::CostVolume vol =
        record_anneal_only
            ? apps::stereo::build_cost_volume(host, pair, params.window, left,
                                              right, volume)
            : apps::stereo::build_cost_volume(m, pair, params.window, left,
                                              right, volume);
    apps::stereo::anneal_disparity(m, vol, params.anneal, volume, disparity);
  }
  void run_on_host() const override {
    apps::HostMachine m;
    kernels(m, false);
  }
  // The annealer's irregular per-op stream is what dominates a cell.
  void record(Recorder& m) const override { kernels(m, true); }
};

class SireCaps final : public PaperCaps {
 public:
  explicit SireCaps(std::uint64_t seed)
      : PaperCaps(PaperApp::kSire, {125.0, 120.0}, seed) {}

 private:
  const apps::sar::SireWorkload& sire() const {
    return static_cast<const apps::sar::SireWorkload&>(instance());
  }
  std::unique_ptr<sim::Workload> build() const override {
    return std::make_unique<apps::sar::SireWorkload>(
        apps::sar::SireParams::paper());
  }
  void run_on_host() const override {
    apps::sar::run_sire_pipeline_host(sire().data(), sire().params());
  }
  void record(Recorder& m) const override {
    apps::sar::run_sire_pipeline(m, sire().data(), sire().params());
  }
};

}  // namespace

std::unique_ptr<Workload> make_stereo_caps(const Options& options) {
  return std::make_unique<StereoCaps>(options.seed);
}

std::unique_ptr<Workload> make_sire_caps(const Options& options) {
  return std::make_unique<SireCaps>(options.seed);
}

}  // namespace e2e
