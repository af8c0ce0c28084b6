// Micro-benchmarks (google-benchmark) of the substrate primitives: event
// dispatch, p2p matching, collective fan-in, exact runs-test computation,
// ECDF queries, and the detector's per-sample cost. These bound how large a
// simulated campaign the harness can sustain.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/model.hpp"
#include "sim/engine.hpp"
#include "simmpi/comm_engine.hpp"
#include "stats/ecdf.hpp"
#include "stats/runs_test.hpp"
#include "util/rng.hpp"

namespace parastack {
namespace {

void BM_EngineDispatch(benchmark::State& state) {
  sim::Engine engine;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    engine.schedule_after(1, [&counter] { ++counter; });
    engine.step();
  }
  benchmark::DoNotOptimize(counter);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineDispatch);

void BM_EngineChurn(benchmark::State& state) {
  // Schedule/fire events with a standing population, closer to a real sim.
  const int population = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    state.ResumeTiming();
    for (int i = 0; i < population; ++i) {
      engine.schedule_at(i, [] {});
    }
    engine.run_until_idle();
  }
  state.SetItemsProcessed(state.iterations() * population);
}
BENCHMARK(BM_EngineChurn)->Arg(1024)->Arg(16384);

/// A rank that only takes what the CommEngine tells it.
struct NullOwner final : simmpi::RequestOwner {
  void on_completion_key(std::uint32_t, sim::Key) override {}
  void on_collective_done() override {}
};

void BM_P2pMatch(benchmark::State& state) {
  sim::Engine engine;
  const auto platform = sim::Platform::tianhe2();
  simmpi::CommEngine comm(engine, platform, 2);
  NullOwner sender;
  NullOwner receiver;
  // One tag for every pair: each iteration matches on the same channel, so
  // rank 1's channel list stays one entry and the loop times matching alone.
  for (auto _ : state) {
    comm.post_recv(1, 0, 0, receiver, 0);
    comm.post_send(0, 1, 0, 1024, sender, 0);
    engine.run_until_idle();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_P2pMatch);

void BM_CollectiveFanIn(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  sim::Engine engine;
  const auto platform = sim::Platform::tianhe2();
  simmpi::CommEngine comm(engine, platform, nranks);
  std::vector<NullOwner> ranks(static_cast<std::size_t>(nranks));
  for (auto _ : state) {
    for (simmpi::Rank r = 0; r < nranks; ++r) {
      comm.enter_collective(simmpi::MpiFunc::kAllreduce, r, 0, 64,
                            ranks[static_cast<std::size_t>(r)]);
    }
    engine.run_until_idle();
  }
  state.SetItemsProcessed(state.iterations() * nranks);
}
BENCHMARK(BM_CollectiveFanIn)->Arg(256)->Arg(4096);

void BM_RunsTestExact(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<double> samples;
  for (int i = 0; i < 32; ++i) samples.push_back(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::runs_test(samples));
  }
}
BENCHMARK(BM_RunsTestExact);

void BM_RunsTestNormalApprox(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<double> samples;
  for (int i = 0; i < 400; ++i) samples.push_back(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::runs_test(samples));
  }
}
BENCHMARK(BM_RunsTestNormalApprox);

void BM_EcdfQuantile(benchmark::State& state) {
  stats::EmpiricalCdf ecdf;
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    ecdf.add(0.1 * static_cast<double>(rng.uniform_int(11)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdf.quantile(0.06));
  }
}
BENCHMARK(BM_EcdfQuantile);

void BM_ModelDecision(benchmark::State& state) {
  // The ladder evaluation ParaStack performs on every sample.
  core::ScroutModel model;
  util::Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    model.add_sample(rng.uniform() < 0.1 ? 0.0
                                         : 0.1 * static_cast<double>(
                                                     5 + rng.uniform_int(6)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.decision(0.001));
  }
}
BENCHMARK(BM_ModelDecision);

}  // namespace
}  // namespace parastack

BENCHMARK_MAIN();
