#include "simmpi/world.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace parastack::simmpi {

World::World(WorldConfig config, const ProgramFactory& factory)
    : config_(std::move(config)),
      nnodes_((config_.nranks + config_.platform.cores_per_node - 1) /
              config_.platform.cores_per_node),
      rng_(config_.seed) {
  PS_CHECK(config_.nranks >= 1, "world needs at least one rank");
  PS_CHECK(config_.platform.cores_per_node >= 1, "cores_per_node >= 1");
  PS_CHECK(static_cast<bool>(factory), "world needs a program factory");
  PS_CHECK(config_.replay_actions.empty() ||
               config_.replay_actions.size() ==
                   static_cast<std::size_t>(config_.nranks),
           "replay_actions must cover every rank");
  if (config_.start_time > 0) engine_.advance_to(config_.start_time);
  comm_ =
      std::make_unique<CommEngine>(engine_, config_.platform, config_.nranks);
  ranks_.reserve(static_cast<std::size_t>(config_.nranks));
  for (Rank r = 0; r < config_.nranks; ++r) {
    RankProcess::Hooks hooks;
    hooks.on_finished = [this](Rank) {
      ++finished_;
      if (finished_ == config_.nranks) finish_time_ = engine_.now();
    };
    hooks.on_io_write = [this](Rank, std::size_t bytes) {
      last_io_write_ = engine_.now();
      io_bytes_ += bytes;
    };
    ranks_.push_back(std::make_unique<RankProcess>(
        engine_, *comm_, config_.platform, r, node_of(r),
        factory(r, config_.nranks, rng_.fork()), rng_.fork(),
        std::move(hooks)));
    if (config_.threads_per_rank > 1) {
      ranks_.back()->configure_threads(config_.threads_per_rank,
                                       config_.mpi_thread_multiple);
    }
    if (!config_.replay_actions.empty()) {
      ranks_.back()->set_replay_target(
          config_.replay_actions[static_cast<std::size_t>(r)]);
    }
  }
  for (int node = 0; node < nnodes_; ++node) {
    node_noise_rng_.push_back(rng_.fork());
  }
}

int World::node_of(Rank r) const {
  PS_CHECK(r >= 0 && r < config_.nranks, "rank out of range");
  return r / config_.platform.cores_per_node;
}

std::vector<Rank> World::ranks_on_node(int node) const {
  PS_CHECK(node >= 0 && node < nnodes_, "node out of range");
  std::vector<Rank> out;
  const Rank first = node * config_.platform.cores_per_node;
  const Rank last =
      std::min<Rank>(first + config_.platform.cores_per_node, config_.nranks);
  for (Rank r = first; r < last; ++r) out.push_back(r);
  return out;
}

RankProcess& World::rank(Rank r) {
  PS_CHECK(r >= 0 && r < config_.nranks, "rank out of range");
  return *ranks_[static_cast<std::size_t>(r)];
}

void World::start() {
  for (auto& rank_process : ranks_) rank_process->start();
  if (config_.background_slowdowns &&
      config_.platform.slowdowns_per_node_hour > 0.0) {
    for (int node = 0; node < nnodes_; ++node) {
      schedule_node_slowdown_cycle(node);
    }
  }
}

WorldSnapshot World::snapshot_progress() const {
  WorldSnapshot snapshot;
  snapshot.taken_at = engine_.now();
  snapshot.rank_actions.reserve(ranks_.size());
  for (const auto& rank_process : ranks_) {
    snapshot.rank_actions.push_back(rank_process->actions_executed());
  }
  return snapshot;
}

void World::schedule_node_slowdown_cycle(int node) {
  auto& rng = node_noise_rng_[static_cast<std::size_t>(node)];
  const double mean_gap_s = 3600.0 / config_.platform.slowdowns_per_node_hour;
  const auto gap = sim::from_seconds(rng.exponential(mean_gap_s));
  engine_.schedule_after(gap, [this, node] {
    auto& node_rng = node_noise_rng_[static_cast<std::size_t>(node)];
    const auto duration = sim::from_seconds(node_rng.exponential(
        sim::to_seconds(config_.platform.slowdown_mean_duration)));
    const double factor = config_.platform.slowdown_factor;
    for (const Rank r : ranks_on_node(node)) {
      rank(r).set_compute_factor(factor);
    }
    engine_.schedule_after(duration, [this, node] {
      for (const Rank r : ranks_on_node(node)) {
        rank(r).set_compute_factor(1.0);
      }
      schedule_node_slowdown_cycle(node);
    });
  });
}

double World::sout() const {
  int out = 0;
  for (const auto& rank_process : ranks_) {
    if (!rank_process->in_mpi()) ++out;
  }
  return static_cast<double>(out) / static_cast<double>(config_.nranks);
}

bool World::run_until_done(sim::Time max_time) {
  while (!all_finished() && engine_.now() <= max_time) {
    if (!engine_.step()) break;
  }
  return all_finished();
}

}  // namespace parastack::simmpi
