// The shared chunk runner (sched::ChunkRunner in src/sched/chunk_cache.*,
// DESIGN.md §12):
//  * two lanes of one node starting into the same co-run cell in one round
//    simulate that cell once, and each start counts as its own miss;
//  * a cell holding two members with one identity hands both starts the
//    first occurrence's result;
//  * mixed solo + co-run rounds under a memo capacity bound — including
//    two solo starts with one key, which both miss — return the same
//    outcomes, counters and evictions for any `jobs` value.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "sched/chunk_cache.hpp"
#include "sched/job.hpp"
#include "sched/scheduler.hpp"

namespace pcap::sched {
namespace {

SchedulerConfig runner_config(std::size_t jobs) {
  SchedulerConfig config;
  config.seed = 9;
  config.jobs = jobs;
  return config;
}

ChunkStart start_of(CoRunMember self, std::vector<CoRunMember> co_residents,
                    std::optional<double> cap_w) {
  ChunkStart start;
  start.self = self;
  start.co_residents = std::move(co_residents);
  start.cap_w = cap_w;
  return start;
}

/// The runner's counters, as a scheduler run would report them.
ScheduleResult counters(ChunkRunner& runner) {
  ScheduleResult result;
  runner.finish(result);
  return result;
}

void expect_same(const ChunkResult& a, const ChunkResult& b) {
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
}

TEST(ChunkRunner, TwoLanesIntoOneCellSimulateItOnce) {
  const CoRunMember sire = chunk_member(JobClass::kSireLike, 4, 0);
  const CoRunMember stereo = chunk_member(JobClass::kStereoLike, 3, 0);
  const std::vector<ChunkStart> round = {start_of(sire, {stereo}, 135.0),
                                         start_of(stereo, {sire}, 135.0)};

  ChunkRunner runner(runner_config(1));
  const std::vector<ChunkOutcome> first = runner.run(round);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_TRUE(first[0].corun);
  EXPECT_TRUE(first[1].corun);
  EXPECT_EQ(counters(runner).corun_cells, 1u);
  EXPECT_EQ(counters(runner).memo_misses, 2u);
  EXPECT_EQ(counters(runner).memo_hits, 0u);

  // Each start reads its own member of the one cell.
  const SchedulerConfig config = runner_config(1);
  CoRunKey key;
  key.cap_bits = ChunkKey::encode_cap(135.0);
  key.thermal_bits = thermal_identity_bits(config.machine);
  key.members = {sire, stereo};  // key_less order
  const std::vector<ChunkResult> cell = simulate_corun_cell(
      config.machine, config.bmc, key, config.seed, config.corun_quantum);
  expect_same(first[0].result, cell[0]);
  expect_same(first[1].result, cell[1]);

  // The next round replays the recorded cell: two per-start hits.
  const std::vector<ChunkOutcome> second = runner.run(round);
  EXPECT_EQ(counters(runner).corun_cells, 1u);
  EXPECT_EQ(counters(runner).memo_hits, 2u);
  expect_same(second[0].result, first[0].result);
  expect_same(second[1].result, first[1].result);
}

TEST(ChunkRunner, DuplicateIdentityMembersTakeTheFirstOccurrence) {
  // Same class and identity, different rebuild material: one cell key with
  // the member twice.
  const CoRunMember a = chunk_member(JobClass::kStereoLike, 3, 0);
  const CoRunMember b = chunk_member(JobClass::kStereoLike, 8, 2);
  ASSERT_TRUE(same_key(a, b));

  ChunkRunner runner(runner_config(1));
  const std::vector<ChunkOutcome> outcomes =
      runner.run({start_of(a, {b}, std::nullopt),
                  start_of(b, {a}, std::nullopt)});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(counters(runner).corun_cells, 1u);

  const SchedulerConfig config = runner_config(1);
  CoRunKey key;
  key.cap_bits = ChunkKey::encode_cap(std::nullopt);
  key.thermal_bits = thermal_identity_bits(config.machine);
  key.members = {a, b};
  const std::vector<ChunkResult> cell = simulate_corun_cell(
      config.machine, config.bmc, key, config.seed, config.corun_quantum);
  expect_same(outcomes[0].result, cell[0]);
  expect_same(outcomes[1].result, cell[0]);
}

TEST(ChunkRunner, MixedRoundsAreInvariantUnderJobs) {
  const CoRunMember sire = chunk_member(JobClass::kSireLike, 4, 0);
  const CoRunMember stereo = chunk_member(JobClass::kStereoLike, 3, 0);
  const CoRunMember stride = chunk_member(JobClass::kStrideLike, 5, 1);
  const std::vector<ChunkStart> round = {
      start_of(stride, {}, 125.0),
      start_of(sire, {stereo}, 135.0),
      start_of(stride, {}, 125.0),  // same solo key: both starts miss
      start_of(stereo, {sire}, 135.0),
      start_of(sire, {}, std::nullopt),
  };

  std::vector<std::vector<ChunkOutcome>> outcomes;
  std::vector<ScheduleResult> counts;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SchedulerConfig config = runner_config(jobs);
    config.memo_capacity = 2;
    ChunkRunner runner(config);
    outcomes.push_back(runner.run(round));
    outcomes.push_back(runner.run(round));
    counts.push_back(counters(runner));
  }

  // Round 1: five misses (one cell), commit stride, sire, then the cell;
  // the trim evicts stride. Round 2: stride misses twice, the cell and
  // sire hit (cell, then sire, in classify order), stride is re-inserted
  // and the trim evicts the cell — the least recently classified entry.
  const ScheduleResult& serial = counts[0];
  EXPECT_EQ(serial.memo_misses, 7u);
  EXPECT_EQ(serial.memo_hits, 3u);
  EXPECT_EQ(serial.corun_cells, 1u);
  EXPECT_EQ(serial.memo_evictions, 2u);
  const ScheduleResult& threaded = counts[1];
  EXPECT_EQ(threaded.memo_hits, serial.memo_hits);
  EXPECT_EQ(threaded.memo_misses, serial.memo_misses);
  EXPECT_EQ(threaded.corun_cells, serial.corun_cells);
  EXPECT_EQ(threaded.memo_evictions, serial.memo_evictions);

  for (std::size_t r = 0; r < 2; ++r) {
    const std::vector<ChunkOutcome>& want = outcomes[r];
    const std::vector<ChunkOutcome>& got = outcomes[2 + r];
    ASSERT_EQ(got.size(), round.size());
    for (std::size_t k = 0; k < round.size(); ++k) {
      EXPECT_EQ(got[k].corun, want[k].corun) << "start " << k;
      expect_same(got[k].result, want[k].result);
      expect_same(outcomes[r][k].result, outcomes[0][k].result);
    }
  }
  EXPECT_FALSE(outcomes[0][0].corun);
  EXPECT_TRUE(outcomes[0][1].corun);
  expect_same(outcomes[0][0].result, outcomes[0][2].result);
}

}  // namespace
}  // namespace pcap::sched
