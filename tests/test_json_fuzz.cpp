// Fuzzes the JSON parser and the amenability v1/v2 loaders the way the IPMI
// fuzz suite fuzzes frames: every truncation, every single-byte change from
// a fixed alphabet of replacements (all eight bit flips plus every JSON
// structural character, a digit, a sign and an exponent), and seeded
// garbage, all derived
// from valid v1 and v2 documents. Each case must be rejected or load
// completely, and must never crash (the sanitizer CI step runs this suite
// under ASan and UBSan).
//
// "Loads completely" is checked as a fixpoint: a loaded table or learner
// serialises to a document that loads back and serialises identically, so
// nothing half-read survives into the loaded object.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "predict/learner.hpp"
#include "sched/amenability_table.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace pcap {
namespace {

using predict::OnlineAmenabilityLearner;
using sched::AmenabilityTable;
using sched::JobClass;

// A v1 table with two classes, and a v2 learner bootstrapped from it that
// has seen solo and co-run samples, so both documents carry every section.
AmenabilityTable seed_table() {
  AmenabilityTable table;
  for (JobClass cls : {JobClass::kSireLike, JobClass::kStereoLike}) {
    sched::ClassCurve curve;
    curve.cls = cls;
    curve.baseline_power_w = cls == JobClass::kSireLike ? 158.5 : 162.25;
    curve.baseline_time_s = 450e-6;
    curve.usable_floor_w = 130.0;
    for (double cap : {150.0, 120.0}) {
      core::AmenabilityPoint p;
      p.cap_w = cap;
      p.measured_power_w = cap - 1.5;
      p.slowdown = 1.0 + (160.0 - cap) / 10.0;
      p.energy_ratio = 1.0 + (160.0 - cap) / 40.0;
      p.cap_met = cap > 125.0;
      curve.points.push_back(p);
    }
    table.set_curve(curve);
  }
  return table;
}

std::string v1_text() { return util::json_to_string(seed_table().to_json()); }

// A three-cap grid keeps the v2 document, and so the fuzz, small.
predict::LearnerConfig grid() {
  predict::LearnerConfig config;
  config.caps_w = {150, 135, 120};
  return config;
}

std::string v2_text() {
  OnlineAmenabilityLearner learner(grid());
  learner.bootstrap(seed_table());
  sched::CoRunObservation obs;
  obs.cls = JobClass::kSireLike;
  obs.elapsed_s = 450e-6;
  learner.observe(obs, 155.0);  // uncapped
  obs.cap_w = 135.0;
  obs.elapsed_s = 2.0 * 450e-6;
  learner.observe(obs, 134.5);
  obs.co_resident = {JobClass::kStereoLike};
  obs.elapsed_s = 3.0 * 450e-6;
  learner.observe(obs, 134.5);
  return util::json_to_string(learner.to_json());
}

/// Runs one input through the parser and both loaders; returns a failure
/// description, or an empty string when every stage behaved. `parsed`
/// counts the inputs the parser accepted.
std::string check(const std::string& text, std::size_t* parsed = nullptr) {
  const std::optional<util::JsonValue> doc = util::parse_json(text);
  if (!doc) return "";
  if (parsed != nullptr) ++*parsed;
  // The parser loaded completely: what it read serialises and reparses to
  // the same serialisation.
  const std::string printed = util::json_to_string(*doc);
  const auto again = util::parse_json(printed);
  if (!again || util::json_to_string(*again) != printed) {
    return "parser round trip: " + printed;
  }

  if (const auto table = AmenabilityTable::from_json(*doc)) {
    const util::JsonValue out = table->to_json();
    const auto back = AmenabilityTable::from_json(out);
    if (!back || util::json_to_string(back->to_json()) !=
                     util::json_to_string(out)) {
      return "v1 table fixpoint: " + util::json_to_string(out);
    }
  }
  if (const auto learner = OnlineAmenabilityLearner::from_json(*doc, grid())) {
    const util::JsonValue out = learner->to_json();
    const auto back = OnlineAmenabilityLearner::from_json(out, grid());
    if (!back || util::json_to_string(back->to_json()) !=
                     util::json_to_string(out)) {
      return "learner fixpoint: " + util::json_to_string(out);
    }
  }
  return "";
}

std::vector<std::string> seeds() { return {v1_text(), v2_text()}; }

TEST(JsonFuzz, SeedDocumentsLoad) {
  const std::string v1 = v1_text();
  const std::string v2 = v2_text();
  const auto v1_doc = util::parse_json(v1);
  const auto v2_doc = util::parse_json(v2);
  ASSERT_TRUE(v1_doc && v2_doc);
  EXPECT_TRUE(AmenabilityTable::from_json(*v1_doc));
  EXPECT_TRUE(OnlineAmenabilityLearner::from_json(*v1_doc, grid()));
  const auto learner = OnlineAmenabilityLearner::from_json(*v2_doc, grid());
  ASSERT_TRUE(learner);
  EXPECT_EQ(learner->pair_samples(JobClass::kSireLike, JobClass::kStereoLike),
            1u);
  EXPECT_EQ(util::json_to_string(learner->to_json()), v2);
  EXPECT_EQ(check(v1), "");
  EXPECT_EQ(check(v2), "");
}

TEST(JsonFuzz, EveryTruncation) {
  for (const std::string& seed : seeds()) {
    for (std::size_t len = 0; len < seed.size(); ++len) {
      const std::string text = seed.substr(0, len);
      // A strict prefix of an object document is never a document.
      EXPECT_FALSE(util::parse_json(text)) << "prefix " << len;
      EXPECT_EQ(check(text), "") << "prefix " << len;
    }
  }
}

TEST(JsonFuzz, EverySingleByteChange) {
  const std::string replacements = "{}[]\",:.-e09";
  std::size_t parsed = 0;
  for (const std::string& seed : seeds()) {
    for (std::size_t i = 0; i < seed.size(); ++i) {
      std::string bytes;
      for (int bit = 0; bit < 8; ++bit) {
        bytes += static_cast<char>(seed[i] ^ (1 << bit));
      }
      bytes += replacements;
      for (const char b : bytes) {
        if (b == seed[i]) continue;
        std::string text = seed;
        text[i] = b;
        EXPECT_EQ(check(text, &parsed), "") << "byte " << i << " -> " << int(b);
      }
    }
  }
  // Some changes (a digit for a digit) still parse: the loaders saw
  // well-formed documents with odd values, not just syntax errors.
  EXPECT_GT(parsed, 0u);
}

TEST(JsonFuzz, SeededGarbage) {
  util::Rng rng(20240607);
  const std::string alphabet = "{}[]\",:.-+eE0123456789 \n\tabcdefnrstu\\";
  for (int round = 0; round < 2000; ++round) {
    std::string text;
    if (round % 2 == 0) {
      // Free-form: random bytes, mostly drawn from JSON's alphabet.
      const auto len = rng.below(160);
      for (std::uint64_t k = 0; k < len; ++k) {
        text += rng.below(4) == 0
                    ? static_cast<char>(rng.below(256))
                    : alphabet[rng.below(alphabet.size())];
      }
    } else {
      // Splice: overwrite a random span of a seed document.
      text = seeds()[rng.below(2)];
      const auto at = rng.below(text.size());
      const auto span = 1 + rng.below(12);
      for (std::uint64_t k = 0; k < span && at + k < text.size(); ++k) {
        text[at + k] = alphabet[rng.below(alphabet.size())];
      }
    }
    EXPECT_EQ(check(text), "") << "round " << round;
  }
}

TEST(JsonFuzz, DeepNestingIsRejectedNotOverflowed) {
  std::string deep(util::kMaxJsonDepth, '[');
  deep += std::string(util::kMaxJsonDepth, ']');
  EXPECT_TRUE(util::parse_json(deep));
  EXPECT_FALSE(util::parse_json("[" + deep + "]"));
  EXPECT_FALSE(util::parse_json(std::string(1000000, '[')));
  EXPECT_FALSE(util::parse_json(std::string(500000, '{') + "\"k\":"));
}

}  // namespace
}  // namespace pcap
