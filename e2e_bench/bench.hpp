// Shared vocabulary of the end-to-end benchmark: host timing, the span
// recorder used by the traced run, per-pass results, the per-layer metric
// sheet, and the workload interface the four workloads implement.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sched/job.hpp"
#include "util/stats.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- spans -----------------------------------------------------------------

/// One timed call into a layer. `parent` indexes the enclosing span (-1 at
/// the top); `run` identifies the pass the span belongs to. The layer is the
/// name's prefix before the first '.'.
struct Span {
  std::string name;
  double start_s = 0.0;  // host seconds since the recorder was created
  double end_s = 0.0;
  int parent = -1;
  int run = 0;
};

/// Keeps spans in memory; written out once, when the benchmark ends.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  void set_run(int run) { run_ = run; }
  int open(std::string name);
  void close(int index);
  /// Adds an already-timed child of the innermost open span.
  void add(std::string name, Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }
  /// Per layer: summed span time minus the part covered by child spans.
  std::map<std::string, double> self_seconds_by_layer() const;
  void write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int run_ = 0;
};

/// Opens a span for the enclosing scope; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name)
      : recorder_(recorder),
        index_(recorder ? recorder->open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

// --- results -----------------------------------------------------------------

/// Outcome of one pass over a workload.
struct PassResult {
  double wall_s = 0.0;             // host time of the pass (set-up excluded)
  std::vector<double> step_ms;     // host time of each step of the pass
  std::uint64_t attempted = 0;     // operations: cells, sweep cells or jobs
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check
  std::uint64_t digest = 0;        // result digest (equal in every pass)
  /// Per-operation signatures; the traced pass must reproduce them.
  std::vector<std::uint64_t> signatures;
  double sim_instructions = 0.0;   // simulated instructions delivered
  double paper_time_err = 0.0;     // simulated; see README.md
  double paper_energy_err = 0.0;

  void fail(std::string why) {
    ++failed;
    failures.push_back(std::move(why));
  }
};

/// Metric sheet of the traced run, pre-filled with every per-layer metric
/// at 0 (a layer the workload does not exercise reports no work).
class LayerSheet {
 public:
  LayerSheet();
  void set(std::string_view name, double value);
  void add(std::string_view name, double value);
  double get(std::string_view name) const;

 private:
  std::map<std::string, double, std::less<>> values_;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Every end-to-end metric (untraced runs) and per-layer metric (traced
/// runs), in print order. BENCHMARK.json lists the same names and units.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

// --- helpers -----------------------------------------------------------------

inline double median(const std::vector<double>& xs) {
  return pcap::util::percentile(xs, 50.0);
}

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word);
  void add(double value);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Mean over capped cells of |ln(simulated ratio / paper ratio)|, for time
/// and energy, against harness::paper_reference. `cells` holds
/// (cap W, time ratio to baseline, energy ratio to baseline).
struct PaperCell {
  double cap_w;
  double time_ratio;
  double energy_ratio;
};
enum class PaperApp { kStereo, kSire };
void paper_error(PaperApp app, const std::vector<PaperCell>& cells,
                 double& time_err, double& energy_err);

// --- workloads ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string root;  // checkout root (results/ lives there)
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs the next pass consumes. Timed as `setup_s`.
  virtual void setup() = 0;
  /// One pass through the library's public entry point, untraced.
  virtual PassResult run_pass() = 0;
  /// The same work split into finer public calls, each inside a span, with
  /// the per-layer counters of the pass written to `sheet`.
  virtual PassResult run_traced_pass(SpanRecorder& spans,
                                     LayerSheet& sheet) = 0;
  /// Layer probes of the traced run (host kernels, replays, chunk timings).
  virtual void probe_layers(SpanRecorder& spans, LayerSheet& sheet) = 0;
};

std::unique_ptr<Workload> make_stereo_caps(const Options& options);
std::unique_ptr<Workload> make_sire_caps(const Options& options);
std::unique_ptr<Workload> make_sched_sweep(const Options& options);
std::unique_ptr<Workload> make_fleet_10k(const Options& options);

/// The job-class chunk model that the sched and fleet workloads execute.
/// Its simulations run on first use; call it outside timed regions only.
class ChunkModel {
 public:
  /// Simulated instructions the completed chunks of `jobs` represent,
  /// memo replays included. Counts are memoised by chunk identity.
  double instructions(const std::vector<pcap::sched::JobRecord>& jobs);
  /// Error of the stereo-like and sire-like chunks against the paper's
  /// Stereo and SIRE cells, at the caps stereo_caps and sire_caps run.
  void paper_error(double& time_err, double& energy_err);
  /// Host ms of one sched::simulate_chunk at 120 W per job class (median
  /// of a few calls each), averaged over the classes.
  double chunk_sim_ms(SpanRecorder& spans) const;

 private:
  double chunk_instructions(const pcap::sched::JobSpec& job, int chunk);

  std::map<std::pair<int, std::uint64_t>, double> per_chunk_;
  std::optional<std::pair<double, double>> paper_error_;
};

}  // namespace e2e
