// Golden digests of whole JSONL journal streams.
//
// Each case runs one fixed-seed simulation into a JsonlJournal and hashes
// the bytes with FNV-1a. The digests were recorded before the collective
// release and the S_crout ECDF were reworked for speed; any change to the
// engine's firing order, the comm engine's release order or the robust
// model's support must reproduce them bit for bit.
//   - CG-64 (class C) on Stampede, no fault, a fixed 10 ms interval with
//     tuning off: every `sample` line, and with it every S_crout value and
//     every judgement.
//   - LU-64 on Tardis with a compute hang and default tuning: interval
//     doubling (the ECDF's thin_half), the streak, the sweeps and the kill.
//   - The every-pattern synthetic profile on 32 ranks without detectors,
//     with rank spans journalled: the order in which every collective kind
//     releases its ranks.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "../workloads/kitchen_sink_profile.hpp"
#include "harness/runner.hpp"
#include "obs/journal.hpp"
#include "simmpi/world.hpp"
#include "workloads/synthetic.hpp"

namespace parastack {
namespace {

struct StreamDigest {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::size_t bytes = 0;
  std::size_t lines = 0;
};

StreamDigest digest(const std::string& stream) {
  StreamDigest d;
  for (const char c : stream) {
    d.hash ^= static_cast<unsigned char>(c);
    d.hash *= 0x100000001b3ULL;
    if (c == '\n') ++d.lines;
  }
  d.bytes = stream.size();
  return d;
}

bool contains(const std::string& journal, const char* ev) {
  return journal.find(std::string("\"ev\":\"") + ev + "\"") !=
         std::string::npos;
}

std::string journal_of_run(harness::RunConfig config,
                           harness::RunResult* result) {
  std::ostringstream out;
  obs::JsonlJournal journal(out);
  config.telemetry = &journal;
  *result = harness::run_one(config);
  return out.str();
}

struct Golden {
  const char* name;
  std::uint64_t hash;
  std::size_t bytes;
  std::size_t lines;
};

constexpr Golden kGolden[] = {
    {"cg64-stampede-10ms", 0x7958bfb9d8fa3a8dULL, 3270948, 18230},
    {"lu64-tardis-hang", 0xa82c5a0b88f3e1a5ULL, 210532, 1214},
    {"sink32-spans", 0x02b158d3f6ea459dULL, 2304909, 21286},
};

void expect_golden(const char* name, const std::string& journal) {
  const StreamDigest d = digest(journal);
  for (const Golden& g : kGolden) {
    if (std::string(name) != g.name) continue;
    EXPECT_TRUE(d.hash == g.hash && d.bytes == g.bytes && d.lines == g.lines)
        << name << ": measured {\"" << name << "\", 0x" << std::hex << d.hash
        << std::dec << "ULL, " << d.bytes << ", " << d.lines << "}";
    return;
  }
  ADD_FAILURE() << "no golden row for " << name;
}

TEST(JournalStreamGolden, CgDenseSamplingMatchesRecordedDigest) {
  harness::RunConfig config;
  config.bench = workloads::Bench::kCG;
  config.input = "C";  // class D's 15 MB journal takes seconds to write
  config.nranks = 64;
  config.platform = sim::Platform::stampede();
  config.seed = 1;
  config.parastack_config().initial_interval = sim::from_millis(10);
  config.parastack_config().enable_interval_tuning = false;
  harness::RunResult result;
  const std::string journal = journal_of_run(config, &result);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.parastack_detected());
  EXPECT_TRUE(contains(journal, "sample"));
  expect_golden("cg64-stampede-10ms", journal);
}

TEST(JournalStreamGolden, LuHangMatchesRecordedDigest) {
  harness::RunConfig config;
  config.bench = workloads::Bench::kLU;
  config.nranks = 64;
  config.platform = sim::Platform::tardis();
  config.seed = 1;
  config.fault = faults::FaultType::kComputeHang;
  harness::RunResult result;
  const std::string journal = journal_of_run(config, &result);
  EXPECT_TRUE(result.parastack_detected());
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(contains(journal, "interval_doubled"));
  EXPECT_TRUE(contains(journal, "hang"));
  expect_golden("lu64-tardis-hang", journal);
}

TEST(JournalStreamGolden, EveryCollectiveKindReleasesInRecordedOrder) {
  std::ostringstream out;
  obs::JsonlJournal journal(out, {/*record_rank_spans=*/true});
  simmpi::WorldConfig config;
  config.nranks = 32;
  config.seed = 1;
  simmpi::World world(
      config, workloads::make_factory(workloads::kitchen_sink_profile()));
  world.engine().set_telemetry(&journal);
  world.start();
  EXPECT_TRUE(world.run_until_done(sim::kNever));
  EXPECT_TRUE(contains(out.str(), "rank_span"));
  expect_golden("sink32-spans", out.str());
}

}  // namespace
}  // namespace parastack
