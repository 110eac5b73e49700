// End-to-end benchmark of the simulator: one workload per process.
//
//   pcap_e2e_bench --workload NAME --seed N --seconds N --trace 0|1
//                  [--root DIR]
//
// --trace 0 times passes of the workload until --seconds is used up and
// prints the end-to-end metrics; --trace 1 runs one untraced and one traced
// pass plus the layer probes and prints the per-layer metrics. The last line
// of standard output is one JSON object: correct, attempted, failed and
// metrics. README.md describes every metric.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace {

using namespace e2e;

constexpr const char* kUsage =
    "usage: pcap_e2e_bench --workload NAME --seed N --seconds N --trace 0|1 "
    "[--root DIR]\n"
    "  NAME: stereo_caps | sire_caps | sched_sweep | fleet_10k\n"
    "  --seed     non-negative integer; fixes every generated input\n"
    "  --seconds  measured time per run, 1..3600\n"
    "  --trace    0: end-to-end metrics, 1: traced run, per-layer metrics\n"
    "  --root     checkout root holding results/ (default: .)\n";

/// Set-up samples behind `setup_s`, at least; the median is reported.
constexpr std::size_t kSetupSamples = 7;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct WorkloadEntry {
  const char* name;
  std::unique_ptr<Workload> (*make)(const Options&);
};
constexpr WorkloadEntry kWorkloads[] = {
    {"stereo_caps", make_stereo_caps},
    {"sire_caps", make_sire_caps},
    {"sched_sweep", make_sched_sweep},
    {"fleet_10k", make_fleet_10k},
};

std::uint64_t parse_uint(std::string_view flag, std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw UsageError(std::string(flag) +
                     " expects a non-negative integer, got '" +
                     std::string(text) + "'");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options options;
  options.root = ".";
  std::set<std::string_view> seen;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    }
    if (arg.substr(0, 2) != "--") {
      throw UsageError("unexpected argument '" + std::string(arg) + "'");
    }
    std::string_view value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw UsageError(std::string(arg) + " needs a value");
    }
    if (!seen.insert(arg).second) {
      throw UsageError(std::string(arg) + " given twice");
    }
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = parse_uint(arg, value);
    } else if (arg == "--seconds") {
      const std::uint64_t s = parse_uint(arg, value);
      if (s < 1 || s > 3600) throw UsageError("--seconds must be in 1..3600");
      options.seconds = static_cast<int>(s);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") throw UsageError("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--root") {
      if (value.empty()) throw UsageError("--root needs a directory");
      options.root = value;
    } else {
      throw UsageError("unknown flag " + std::string(arg));
    }
  }
  for (const std::string_view required :
       {"--workload", "--seed", "--seconds", "--trace"}) {
    if (!seen.count(required)) {
      throw UsageError(std::string(required) + " is required");
    }
  }
  return options;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  for (const WorkloadEntry& entry : kWorkloads) {
    if (options.workload == entry.name) return entry.make(options);
  }
  throw UsageError("unknown workload '" + options.workload + "'");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Prints the result line: the last line of standard output.
void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<MetricSpec>& specs,
                  const std::function<double(const char*)>& value) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", specs[i].name, value(specs[i].name),
                specs[i].unit);
  }
  std::printf("}}\n");
}

void print_failures(const PassResult& pass) {
  for (const std::string& why : pass.failures) {
    std::printf("  FAILED %s\n", why.c_str());
  }
}

/// One set-up and pass, measured in a child process.
struct Sample {
  double setup_s = 0.0;
  double rss_mb = 0.0;
  PassResult pass;
};

void write_sample(std::FILE* out, const Sample& s) {
  const PassResult& p = s.pass;
  std::fprintf(out, "%.17g %.17g %.17g %.17g %.17g %.17g %llu %llu %llu %zu %zu %zu\n",
               s.setup_s, s.rss_mb, p.wall_s, p.sim_instructions,
               p.paper_time_err, p.paper_energy_err,
               static_cast<unsigned long long>(p.attempted),
               static_cast<unsigned long long>(p.failed),
               static_cast<unsigned long long>(p.digest), p.step_ms.size(),
               p.signatures.size(), p.failures.size());
  for (const double ms : p.step_ms) std::fprintf(out, "%.17g\n", ms);
  for (const std::uint64_t sig : p.signatures) {
    std::fprintf(out, "%llu\n", static_cast<unsigned long long>(sig));
  }
  for (const std::string& why : p.failures) std::fprintf(out, "%s\n", why.c_str());
}

bool read_sample(std::FILE* in, Sample& s) {
  PassResult& p = s.pass;
  unsigned long long attempted = 0, failed = 0, digest = 0;
  std::size_t steps = 0, signatures = 0, failures = 0;
  if (std::fscanf(in, "%lg %lg %lg %lg %lg %lg %llu %llu %llu %zu %zu %zu",
                  &s.setup_s, &s.rss_mb, &p.wall_s, &p.sim_instructions,
                  &p.paper_time_err, &p.paper_energy_err, &attempted, &failed,
                  &digest, &steps, &signatures, &failures) != 12) {
    return false;
  }
  p.attempted = attempted;
  p.failed = failed;
  p.digest = digest;
  p.step_ms.resize(steps);
  for (double& ms : p.step_ms) {
    if (std::fscanf(in, "%lg", &ms) != 1) return false;
  }
  p.signatures.resize(signatures);
  for (std::uint64_t& sig : p.signatures) {
    unsigned long long v = 0;
    if (std::fscanf(in, "%llu", &v) != 1) return false;
    sig = v;
  }
  std::fgetc(in);  // end of the last number's line
  char line[512];
  for (std::size_t i = 0; i < failures; ++i) {
    if (!std::fgets(line, sizeof line, in)) return false;
    line[std::strcspn(line, "\n")] = '\0';
    p.failures.emplace_back(line);
  }
  return true;
}

/// Runs one set-up, and a pass when `pass` is set, in a forked child and
/// returns what it measured. Every sample thus starts from the same state, a
/// process that has run nothing yet: passes run one after another in one
/// process inherit each other's heap layout, which moved fleet_10k's pass
/// time from 4.3-4.9 s (first pass) to 3.8-6.6 s (later passes) on a 4-vCPU
/// host.
Sample run_in_child(Workload& workload, bool pass) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::FILE* out = fdopen(fds[1], "w");
    try {
      if (out == nullptr) throw std::runtime_error("fdopen failed");
      Sample sample;
      const Clock::time_point t0 = Clock::now();
      workload.setup();
      sample.setup_s = seconds_between(t0, Clock::now());
      if (pass) sample.pass = workload.run_pass();
      sample.rss_mb = peak_rss_mb();
      write_sample(out, sample);
      if (std::fclose(out) != 0) throw std::runtime_error("pipe write failed");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pcap_e2e_bench: %s\n", e.what());
      code = 1;
    }
    _exit(code);  // skips the parent's atexit handlers and stdio buffers
  }
  close(fds[1]);
  std::FILE* in = fdopen(fds[0], "r");
  Sample sample;
  const bool read = in != nullptr && read_sample(in, sample);
  if (in != nullptr) {
    std::fclose(in);
  } else {
    close(fds[0]);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!read || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("pass process failed");
  }
  return sample;
}

int run_untraced(Workload& workload, const Options& options) {
  std::vector<double> setup_s, wall_s, mips, steps;
  std::uint64_t attempted = 0, failed = 0;
  std::set<std::uint64_t> digests;
  std::set<std::pair<double, double>> paper_errs;
  PassResult last;
  double rss_mb = 0.0;
  const Clock::time_point begin = Clock::now();
  double longest_s = 0.0;
  do {
    const Clock::time_point t0 = Clock::now();
    const Sample sample = run_in_child(workload, true);
    longest_s = std::max(longest_s, seconds_between(t0, Clock::now()));
    last = sample.pass;
    rss_mb = std::max(rss_mb, sample.rss_mb);
    setup_s.push_back(sample.setup_s);
    wall_s.push_back(last.wall_s);
    mips.push_back(last.sim_instructions / (last.wall_s * 1e6));
    steps.insert(steps.end(), last.step_ms.begin(), last.step_ms.end());
    attempted += last.attempted;
    failed += last.failed;
    digests.insert(last.digest);
    paper_errs.insert({last.paper_time_err, last.paper_energy_err});
    print_failures(last);
    std::printf("pass %zu: set-up %.6g s, wall %.6g s\n", wall_s.size(),
                setup_s.back(), last.wall_s);
  } while (seconds_between(begin, Clock::now()) + longest_s <= options.seconds);
  while (setup_s.size() < kSetupSamples) {
    setup_s.push_back(run_in_child(workload, false).setup_s);
  }
  if (digests.size() != 1 || paper_errs.size() != 1) {
    std::printf("  FAILED simulated results differ between passes\n");
    failed = std::min(attempted, failed + 1);
  }

  // p98, or the highest percentile with ten steps beyond it once a run has
  // more than 500 steps: a periodic round makes ~2% of fleet_10k's ticks
  // about four times slower, so p98 itself sits on the edge of that group.
  const double n = static_cast<double>(steps.size());
  const double p50 = pcap::util::percentile(steps, 50.0);
  const double p98 = pcap::util::percentile(
      steps, n > 11 ? std::max(98.0, 100.0 * (n - 11) / (n - 1)) : 98.0);
  std::printf("workload %s seed %llu: %zu passes, %zu set-ups, %zu steps\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), wall_s.size(),
              setup_s.size(), steps.size());
  std::printf("result digest %016llx\n",
              static_cast<unsigned long long>(*digests.begin()));
  std::printf("fail_ratio %llu/%llu = %.6g (failed operations / attempted)\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              attempted ? static_cast<double>(failed) / attempted : 0.0);
  std::printf("tick_ms_p98 over %zu steps (%zu beyond it)\n", steps.size(),
              static_cast<std::size_t>(std::count_if(
                  steps.begin(), steps.end(), [&](double s) { return s > p98; })));

  const auto value = [&](const char* name) -> double {
    const std::string n = name;
    if (n == "wall_s") return median(wall_s);
    if (n == "setup_s") return median(setup_s);
    if (n == "peak_rss_mb") return rss_mb;
    if (n == "sim_mips") return median(mips);
    if (n == "paper_time_err") return last.paper_time_err;
    if (n == "paper_energy_err") return last.paper_energy_err;
    if (n == "tick_ms_p50") return p50;
    if (n == "tick_ms_p98") return p98;
    throw std::logic_error("no value for end-to-end metric " + n);
  };
  for (const MetricSpec& spec : end_to_end_metrics()) {
    std::printf("  %-18s %.6g %s\n", spec.name, value(spec.name), spec.unit);
  }
  print_result(attempted, failed, end_to_end_metrics(), value);
  return 0;
}

int run_traced(Workload& workload, const Options& options) {
  SpanRecorder spans;
  LayerSheet sheet;
  // Both passes start from a process that has run nothing yet.
  const PassResult untraced = run_in_child(workload, true).pass;
  workload.setup();
  spans.set_run(1);
  const PassResult traced = workload.run_traced_pass(spans, sheet);
  spans.set_run(2);
  workload.probe_layers(spans, sheet);
  print_failures(untraced);
  print_failures(traced);

  std::uint64_t attempted = untraced.attempted + traced.attempted;
  std::uint64_t failed = untraced.failed + traced.failed;
  std::uint64_t mismatches = 0;
  if (untraced.signatures.size() != traced.signatures.size()) {
    mismatches = traced.signatures.size();
  } else {
    for (std::size_t i = 0; i < traced.signatures.size(); ++i) {
      mismatches += traced.signatures[i] != untraced.signatures[i];
    }
  }
  if (mismatches > 0) {
    std::printf("  FAILED %llu traced operations differ from the untraced pass\n",
                static_cast<unsigned long long>(mismatches));
    failed = std::min(attempted, failed + mismatches);
  }
  sheet.set("trace.overhead_s", traced.wall_s - untraced.wall_s);
  sheet.set("trace.spans", static_cast<double>(spans.spans().size()));

  const std::filesystem::path dir =
      std::filesystem::path(options.root) / ".bench_out";
  std::filesystem::create_directories(dir);
  const std::string spans_path =
      (dir / ("spans_" + options.workload + ".json")).string();
  spans.write_json(spans_path);

  std::printf("workload %s seed %llu, traced run: %zu spans in %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              spans.spans().size(), spans_path.c_str());
  std::printf("result digest %016llx\n",
              static_cast<unsigned long long>(traced.digest));
  std::printf("wall_s untraced %.6g s, traced %.6g s\n", untraced.wall_s,
              traced.wall_s);
  std::printf("self time by layer (traced pass and probes):\n");
  for (const auto& [layer, seconds] : spans.self_seconds_by_layer()) {
    std::printf("  %-8s %.6g s\n", layer.c_str(), seconds);
  }
  for (const MetricSpec& spec : per_layer_metrics()) {
    std::printf("  %-28s %.6g %s\n", spec.name, sheet.get(spec.name), spec.unit);
  }
  print_result(attempted, failed, per_layer_metrics(),
               [&](const char* name) { return sheet.get(name); });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::unique_ptr<Workload> workload;
  try {
    options = parse_options(argc, argv);
    workload = make_workload(options);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "pcap_e2e_bench: %s\n%s", e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcap_e2e_bench: %s\n", e.what());
    return 1;
  }
  try {
    return options.trace ? run_traced(*workload, options)
                         : run_untraced(*workload, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcap_e2e_bench: %s\n", e.what());
    return 1;
  }
}
