// Renders run reports as exact "key=value" lines (hex floats, integers) and
// digests value sequences with FNV-1a over their bit patterns, for the
// exact-output pin tests. A mismatch then diffs field by field, and the
// failure message prints the new rendering in full for re-capture.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "pmu/counters.hpp"
#include "sim/node.hpp"
#include "sim/smp_node.hpp"

namespace pcap::test {

inline std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// One "key=value" line per field, so a mismatch diffs field by field.
inline std::string line(const std::string& key, const std::string& value) {
  return key + "=" + value + "\n";
}

inline std::string render_counters(
    const std::string& prefix,
    const std::array<std::uint64_t, pmu::kEventCount>& counters) {
  std::string out;
  for (const pmu::Event e : pmu::all_events()) {
    out += line(prefix + std::string(pmu::event_name(e)),
                std::to_string(counters[pmu::index_of(e)]));
  }
  return out;
}

inline std::string render(const sim::RunReport& r) {
  return line("workload", r.workload) +
         line("elapsed", std::to_string(r.elapsed)) +
         line("energy_j", hex(r.energy_j)) +
         line("avg_power_w", hex(r.avg_power_w)) +
         line("peak_power_w", hex(r.peak_power_w)) +
         line("avg_frequency", std::to_string(r.avg_frequency)) +
         line("avg_duty", hex(r.avg_duty)) +
         line("final_temperature_c", hex(r.final_temperature_c)) +
         render_counters("", r.counters);
}

inline std::string render(const sim::SmpRunReport& r) {
  std::string out = line("elapsed", std::to_string(r.elapsed)) +
                    line("energy_j", hex(r.energy_j)) +
                    line("avg_power_w", hex(r.avg_power_w)) +
                    line("peak_power_w", hex(r.peak_power_w)) +
                    line("avg_frequency", std::to_string(r.avg_frequency)) +
                    render_counters("", r.counters);
  for (std::size_t i = 0; i < r.cores.size(); ++i) {
    const sim::SmpCoreReport& c = r.cores[i];
    const std::string prefix = "core" + std::to_string(i) + ".";
    out += line(prefix + "workload", c.workload) +
           line(prefix + "elapsed", std::to_string(c.elapsed)) +
           line(prefix + "energy_share_j", hex(c.energy_share_j)) +
           render_counters(prefix, c.counters);
  }
  return out;
}

/// FNV-1a over the bytes of every value added, bit patterns included.
class Fnv {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::string digest() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace pcap::test
