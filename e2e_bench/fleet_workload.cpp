// fleet_10k: fleet::DatacenterManager with 100 racks x 100 nodes running
// three weighted tenants x 300 jobs through the fleet_datacenter example's
// budget schedule, lossy management links and partition episode. Set-up
// builds the manager; a pass drives it with step() and finish(), as run()
// does, timing every step.
#include "bench.hpp"
#include "fleet/datacenter.hpp"

namespace e2e {

namespace {

using namespace pcap;

constexpr std::size_t kRacks = 100;
constexpr std::size_t kRackNodes = 100;
constexpr std::size_t kTenants = 3;
constexpr int kJobsPerTenant = 300;

fleet::FleetConfig fleet_config(std::uint64_t seed) {
  fleet::FleetConfig config;
  config.rack_nodes.assign(kRacks, kRackNodes);
  config.seed = seed;
  config.cap_grid_w = 8.0;

  const double nodes = static_cast<double>(kRacks * kRackNodes);
  config.schedule = fleet::BudgetSchedule(nodes * 160.0);
  config.schedule.add_phase(3e-3, nodes * 124.0);
  config.schedule.add_phase(6e-3, nodes * 160.0);
  config.schedule.add_event(4e-3, 5e-3, nodes * 118.0);

  ipmi::FaultSpec faults;
  faults.drop_rate = 0.02;
  faults.duplicate_rate = 0.01;
  faults.corrupt_rate = 0.01;
  config.rack_faults = faults;
  config.node_faults = faults;
  fleet::FleetConfig::PartitionEpisode episode;
  episode.rack = kRacks - 1;
  episode.start_s = 4.2e-3;
  episode.transactions = 150;
  config.partitions.push_back(episode);

  for (std::size_t t = 0; t < kTenants; ++t) {
    fleet::TenantSpec tenant;
    tenant.name = "tenant" + std::to_string(t);
    tenant.weight = t == 0 ? 2.0 : (t + 1 == kTenants ? 0.5 : 1.0);
    tenant.arrivals.job_count = kJobsPerTenant;
    tenant.arrivals.mean_interarrival_s = 150e-6;
    tenant.arrivals.min_chunks = 3;
    tenant.arrivals.max_chunks = 6;
    tenant.arrivals.class_weights = {1.0, 1.0, 0.5, 0.0};
    tenant.arrivals.seed = seed * 100 + t;
    config.tenants.push_back(tenant);
  }
  return config;
}

class Fleet10k final : public Workload {
 public:
  explicit Fleet10k(const Options& options)
      : config_(fleet_config(options.seed)) {}

  void setup() override {
    dc_ = std::make_unique<fleet::DatacenterManager>(config_);
  }

  PassResult run_pass() override { return drive(nullptr, nullptr); }

  PassResult run_traced_pass(SpanRecorder& spans, LayerSheet& sheet) override {
    return drive(&spans, &sheet);
  }

  void probe_layers(SpanRecorder& spans, LayerSheet& sheet) override {
    sheet.set("sched.chunk_sim_ms", model_.chunk_sim_ms(spans));
  }

 private:
  PassResult drive(SpanRecorder* spans, LayerSheet* sheet) {
    PassResult pass;
    fleet::FleetResult result;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan run_span(spans, "harness.fleet_run");
      Clock::time_point t0 = Clock::now();
      while (!dc_->done() && pass.step_ms.size() < config_.max_ticks) {
        {
          ScopedSpan span(spans, "fleet.step");
          dc_->step();
        }
        const Clock::time_point t1 = Clock::now();
        pass.step_ms.push_back(1e3 * seconds_between(t0, t1));
        t0 = t1;
      }
      ScopedSpan span(spans, "fleet.finish");
      result = dc_->finish();
    }
    pass.wall_s = seconds_between(start, Clock::now());
    dc_.reset();

    const bool conserved = result.dc_over_enforced_ticks == 0 &&
                           result.rack_over_enforced_ticks == 0 &&
                           result.actual_over_enforced_ticks == 0;
    for (const sched::JobRecord& job : result.jobs) {
      ++pass.attempted;
      if (!conserved) {
        pass.fail("job " + std::to_string(job.spec.id) +
                  ": budget conservation violated during its run");
      } else if (!job.done()) {
        pass.fail("job " + std::to_string(job.spec.id) + ": not completed");
      }
    }
    if (pass.attempted == 0) pass.fail("fleet ran no jobs");

    Digest signature;
    signature.add(result.schedule_digest());
    signature.add(static_cast<std::uint64_t>(result.ticks));
    signature.add(result.memo_hits);
    signature.add(result.memo_misses);
    signature.add(result.cap_pushes);
    signature.add(result.push_failures);
    signature.add(result.mgmt_retries);
    signature.add(result.admission_deferrals);
    pass.signatures.push_back(signature.value());
    pass.digest = result.schedule_digest();
    pass.sim_instructions = model_.instructions(result.jobs);
    model_.paper_error(pass.paper_time_err, pass.paper_energy_err);

    if (sheet) {
      sheet->set("fleet.ticks", static_cast<double>(result.ticks));
      sheet->set("fleet.memo_hits", static_cast<double>(result.memo_hits));
      sheet->set("fleet.memo_misses", static_cast<double>(result.memo_misses));
      sheet->set("fleet.cap_pushes", static_cast<double>(result.cap_pushes));
      sheet->set("fleet.admission_deferrals",
                 static_cast<double>(result.admission_deferrals));
      sheet->set("ipmi.retries", static_cast<double>(result.mgmt_retries));
      sheet->set("ipmi.push_failure_ratio",
                 result.cap_pushes > 0
                     ? static_cast<double>(result.push_failures) /
                           static_cast<double>(result.cap_pushes)
                     : 0.0);
    }
    return pass;
  }

  fleet::FleetConfig config_;
  ChunkModel model_;
  std::unique_ptr<fleet::DatacenterManager> dc_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_10k(const Options& options) {
  return std::make_unique<Fleet10k>(options);
}

}  // namespace e2e
