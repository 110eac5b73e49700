// sched_sweep: harness::run_sched_study over all six policies x {1400,
// 1080} W on an 8-node one-lane rack, plus uniform and contention on a
// 4-node two-lane rack at 600 W, one study call per sweep cell. Also the
// job-class chunk model shared with fleet_10k.
#include <optional>
#include <stdexcept>
#include <tuple>

#include "bench.hpp"
#include "core/capped_runner.hpp"
#include "harness/sched_study.hpp"
#include "pmu/events.hpp"
#include "sched/amenability_table.hpp"
#include "sched/chunk_cache.hpp"
#include "sched/policy.hpp"
#include "sim/machine_config.hpp"
#include "sim/node.hpp"

namespace e2e {

using namespace pcap;

namespace {

/// Calls per class behind `sched.chunk_sim_ms`; the median is reported.
constexpr int kChunkProbeReps = 5;
/// Node seed of every chunk the model simulates. Chunk instruction counts
/// do not depend on it; the model's paper error does, by a few percent,
/// because a chunk spans only a few OS-noise periods.
constexpr std::uint64_t kModelSeed = 1;
/// Study seed of sched_sweep. run_sched_study draws the job stream from it,
/// and a 16-job stream's class mix sets the sweep's cost (3.0 to 7.1 s a
/// pass over seeds 1 to 5 on a 4-vCPU host), so a seed-driven stream would
/// time the seed rather than the code. Seed 1 is ext_scheduler_policies'
/// default.
constexpr std::uint64_t kSweepSeed = 1;

sched::ChunkKey chunk_key(sched::JobClass cls, std::optional<double> cap_w,
                          const sim::MachineConfig& machine) {
  sched::ChunkKey key;
  key.cls = cls;
  key.identity = sched::chunk_identity(cls, kModelSeed, 0);
  key.cap_bits = sched::ChunkKey::encode_cap(cap_w);
  key.thermal_bits = sched::thermal_identity_bits(machine);
  return key;
}

}  // namespace

double ChunkModel::chunk_instructions(const sched::JobSpec& job, int chunk) {
  const std::pair<int, std::uint64_t> id = {
      static_cast<int>(job.cls), sched::chunk_identity(job.cls, job.seed, chunk)};
  const auto it = per_chunk_.find(id);
  if (it != per_chunk_.end()) return it->second;
  sim::Node node(sim::MachineConfig::romley(), kModelSeed);
  core::CappedRunner runner(node);
  const auto workload = sched::make_chunk_workload(job.cls, job.seed, chunk);
  const double ins = static_cast<double>(
      runner.run(*workload, std::nullopt).counter(pmu::Event::kTotIns));
  per_chunk_.emplace(id, ins);
  return ins;
}

double ChunkModel::instructions(const std::vector<sched::JobRecord>& jobs) {
  double total = 0.0;
  for (const sched::JobRecord& job : jobs) {
    for (int c = 0; c < job.chunks_done; ++c) {
      total += chunk_instructions(job.spec, c);
    }
  }
  return total;
}

void ChunkModel::paper_error(double& time_err, double& energy_err) {
  if (paper_error_) {
    std::tie(time_err, energy_err) = *paper_error_;
    return;
  }
  const sim::MachineConfig machine = sim::MachineConfig::romley();
  const core::BmcConfig bmc;
  const auto cells = [&](sched::JobClass cls, std::vector<double> caps) {
    const sched::ChunkResult base = sched::simulate_chunk(
        machine, bmc, chunk_key(cls, std::nullopt, machine), kModelSeed, 0,
        kModelSeed);
    std::vector<PaperCell> out;
    for (const double cap : caps) {
      const sched::ChunkResult r = sched::simulate_chunk(
          machine, bmc, chunk_key(cls, cap, machine), kModelSeed, 0,
          kModelSeed);
      out.push_back({cap,
                     static_cast<double>(r.elapsed) /
                         static_cast<double>(base.elapsed),
                     r.energy_j / base.energy_j});
    }
    return out;
  };
  double stereo_time = 0.0, stereo_energy = 0.0;
  double sire_time = 0.0, sire_energy = 0.0;
  e2e::paper_error(PaperApp::kStereo,
                   cells(sched::JobClass::kStereoLike, {135.0, 120.0}),
                   stereo_time, stereo_energy);
  e2e::paper_error(PaperApp::kSire,
                   cells(sched::JobClass::kSireLike, {125.0, 120.0}),
                   sire_time, sire_energy);
  time_err = 0.5 * (stereo_time + sire_time);
  energy_err = 0.5 * (stereo_energy + sire_energy);
  paper_error_ = {time_err, energy_err};
}

double ChunkModel::chunk_sim_ms(SpanRecorder& spans) const {
  const sim::MachineConfig machine = sim::MachineConfig::romley();
  const core::BmcConfig bmc;
  double sum_ms = 0.0;
  for (int c = 0; c < sched::kJobClassCount; ++c) {
    const auto cls = static_cast<sched::JobClass>(c);
    const sched::ChunkKey key = chunk_key(cls, 120.0, machine);
    std::vector<double> ms;
    for (int r = 0; r < kChunkProbeReps; ++r) {
      ScopedSpan span(&spans, "sched.simulate_chunk");
      const Clock::time_point t0 = Clock::now();
      sched::simulate_chunk(machine, bmc, key, kModelSeed, 0, kModelSeed);
      ms.push_back(1e3 * seconds_between(t0, Clock::now()));
    }
    sum_ms += median(ms);
  }
  return sum_ms / sched::kJobClassCount;
}

namespace {

class SchedSweep final : public Workload {
 public:
  explicit SchedSweep(const Options& options)
      : table_path_(options.root + "/results/amenability_table.json") {
    wide_.node_count = 8;
    wide_.lanes_per_node = 1;
    wide_.policies = sched::policy_names();
    wide_.budgets_w = {1400.0, 1080.0};
    wide_.arrivals.job_count = 16;
    wide_.arrivals.deadline_fraction = 0.5;
    wide_.seed = kSweepSeed;

    corun_.node_count = 4;
    corun_.lanes_per_node = 2;
    corun_.policies = {"uniform", "contention"};
    corun_.budgets_w = {600.0};
    corun_.arrivals.job_count = 12;
    corun_.arrivals.class_weights = {1.0, 1.0, 0.0, 0.0};
    corun_.arrivals.min_chunks = 3;
    corun_.arrivals.max_chunks = 8;
    corun_.arrivals.deadline_fraction = 0.5;
    corun_.arrivals.deadline_factor = 0.6;
    corun_.seed = kSweepSeed;
  }

  void setup() override {
    table_ = sched::AmenabilityTable::load(table_path_);
    if (!table_ || !table_->complete()) {
      throw std::runtime_error("missing or incomplete amenability table " +
                               table_path_);
    }
  }

  PassResult run_pass() override { return sweep(nullptr, nullptr); }

  PassResult run_traced_pass(SpanRecorder& spans, LayerSheet& sheet) override {
    return sweep(&spans, &sheet);
  }

  void probe_layers(SpanRecorder& spans, LayerSheet& sheet) override {
    sheet.set("sched.chunk_sim_ms", model_.chunk_sim_ms(spans));
  }

 private:
  PassResult sweep(SpanRecorder* spans, LayerSheet* sheet) {
    PassResult pass;
    Digest digest;
    std::vector<double> cell_s;
    std::vector<sched::JobRecord> jobs;
    pushes_ = push_failures_ = 0.0;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan pass_span(spans, "harness.sched_sweep");
      for (const harness::SchedStudyConfig* study : {&wide_, &corun_}) {
        for (const double budget : study->budgets_w) {
          for (const std::string& policy : study->policies) {
            harness::SchedStudyConfig cell = *study;
            cell.table = &*table_;
            cell.policies = {policy};
            cell.budgets_w = {budget};
            const Clock::time_point t0 = Clock::now();
            std::vector<harness::SchedStudyRow> rows;
            {
              ScopedSpan span(spans, "sched.sweep_cell");
              rows = harness::run_sched_study(cell);
            }
            cell_s.push_back(seconds_between(t0, Clock::now()));
            check_cell(rows, policy, budget, pass, digest, sheet);
            if (rows.size() == 1) {
              jobs.insert(jobs.end(), rows.front().result.jobs.begin(),
                          rows.front().result.jobs.end());
            }
          }
        }
      }
    }
    pass.wall_s = seconds_between(start, Clock::now());
    for (const double s : cell_s) pass.step_ms.push_back(1e3 * s);
    pass.digest = digest.value();
    pass.sim_instructions = model_.instructions(jobs);
    model_.paper_error(pass.paper_time_err, pass.paper_energy_err);
    if (sheet) {
      sheet->set("sched.cell_s", median(cell_s));
      const double chunks = sheet->get("sched.chunks");
      sheet->set("sched.memo_hit_ratio",
                 chunks > 0 ? sheet->get("sched.memo_hits") / chunks : 0.0);
      sheet->set("ipmi.push_failure_ratio",
                 pushes_ > 0 ? push_failures_ / pushes_ : 0.0);
    }
    return pass;
  }

  void check_cell(const std::vector<harness::SchedStudyRow>& rows,
                  const std::string& policy, double budget, PassResult& pass,
                  Digest& digest, LayerSheet* sheet) {
    ++pass.attempted;
    const std::string label = policy + " @ " + std::to_string(budget) + " W";
    if (rows.size() != 1) {
      pass.fail(label + ": expected one study row");
      return;
    }
    const sched::ScheduleResult& r = rows.front().result;
    bool all_done = true;
    for (const sched::JobRecord& job : r.jobs) all_done = all_done && job.done();
    if (r.budget_violations != 0) {
      pass.fail(label + ": budget violated");
    } else if (!all_done) {
      pass.fail(label + ": jobs left unfinished");
    }
    Digest signature;
    signature.add(r.schedule_digest());
    signature.add(r.chunks);
    signature.add(r.memo_hits);
    signature.add(r.memo_misses);
    signature.add(r.corun_cells);
    pass.signatures.push_back(signature.value());
    digest.add(signature.value());
    if (sheet) {
      sheet->add("sched.chunks", static_cast<double>(r.chunks));
      sheet->add("sched.memo_hits", static_cast<double>(r.memo_hits));
      sheet->add("sched.memo_misses", static_cast<double>(r.memo_misses));
      sheet->add("sched.corun_cells", static_cast<double>(r.corun_cells));
      sheet->add("ipmi.retries", static_cast<double>(r.mgmt_retries));
      pushes_ += static_cast<double>(r.cap_updates + r.cap_update_failures);
      push_failures_ += static_cast<double>(r.cap_update_failures);
    }
  }

  std::string table_path_;
  ChunkModel model_;
  harness::SchedStudyConfig wide_;
  harness::SchedStudyConfig corun_;
  std::optional<sched::AmenabilityTable> table_;
  // Cap pushes (landed plus failed IPMI set-cap exchanges) of a pass.
  double pushes_ = 0.0;
  double push_failures_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_sched_sweep(const Options& options) {
  return std::make_unique<SchedSweep>(options);
}

}  // namespace e2e
