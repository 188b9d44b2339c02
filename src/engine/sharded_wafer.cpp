#include "engine/sharded_wafer.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "dist/domain.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace wsmd::engine {

namespace {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ShardedWafer::ShardedWafer(const lattice::Structure& s,
                           eam::EamPotentialPtr potential,
                           ShardedWaferConfig config)
    : WaferEngine(s, std::move(potential), config.wse),
      pool_(resolve_threads(config.threads)) {
  // Same partition the distributed backend uses for rank strips — one
  // function, one modeled ghost-cost formula (dist::domain).
  shards_ = dist::row_strips(md_.mapping().grid_width(),
                             md_.mapping().grid_height(), pool_.size());
  shard_stats_.resize(shards_.size());
  cum_load_.resize(shards_.size());
  settle_energy();
}

void ShardedWafer::settle_energy() {
  if (!md_.energy_pending()) return;
  md_.begin_step(ws_);
  pool_.run([&](int t) {
    md_.density_phase(shards_[static_cast<std::size_t>(t)], ws_);
  });
  pool_.run([&](int t) {
    md_.force_phase(shards_[static_cast<std::size_t>(t)], ws_);
  });
  md_.adopt_energy(ws_);
}

void ShardedWafer::run_sharded(const std::function<void(int)>& task) {
  if (!telemetry::enabled()) {
    pool_.run(task);
    return;
  }
  busy_seconds_.assign(static_cast<std::size_t>(pool_.size()), 0.0);
  const auto round_start = std::chrono::steady_clock::now();
  pool_.run([&](int t) {
    const auto busy_start = std::chrono::steady_clock::now();
    task(t);
    busy_seconds_[static_cast<std::size_t>(t)] = seconds_since(busy_start);
  });
  const double round = seconds_since(round_start);
  // Each worker waits from the end of its own work until the slowest one
  // finishes the round (the implicit barrier between pool_.run calls).
  double wait = 0.0;
  for (std::size_t t = 0; t < busy_seconds_.size(); ++t) {
    const double busy = busy_seconds_[t];
    const double worker_wait = std::max(0.0, round - busy);
    cum_load_[t].busy_seconds += busy;
    cum_load_[t].wait_seconds += worker_wait;
    wait += worker_wait;
  }
  telemetry::add_span_time("shard.barrier_wait", wait,
                           static_cast<std::uint64_t>(pool_.size()));
}

Thermo ShardedWafer::step() {
  md_.begin_step(ws_);
  run_sharded([&](int t) {
    md_.density_phase(shards_[static_cast<std::size_t>(t)], ws_);
  });
  // Implicit barrier: every F' is published before any force kernel reads.
  run_sharded([&](int t) {
    const auto& shard = shards_[static_cast<std::size_t>(t)];
    md_.force_phase(shard, ws_);
    shard_stats_[static_cast<std::size_t>(t)] = md_.reduce_region(shard, ws_);
  });
  // Serial tail: commit integrated state and reduce in row-major order so
  // results are bitwise independent of the decomposition.
  const bool swap_now = md_.commit_step(ws_);
  std::size_t applied = 0;
  if (swap_now) {
    run_sharded([&](int t) {
      md_.swap_select(shards_[static_cast<std::size_t>(t)], ws_.partner);
    });
    applied = md_.swap_commit(ws_.partner);
  }
  last_ = md_.finish_step(ws_, applied, swap_now);
  return thermo();
}

Thermo ShardedWafer::run(long n, const StepCallback& callback) {
  // Bypass WaferEngine::run (which drives the serial md_.run path) in
  // favor of the base step() loop, which dispatches to the sharded step.
  return Engine::run(n, callback);
}

ModeledPhaseCost ShardedWafer::modeled_phase_cost() const {
  ModeledPhaseCost cost = WaferEngine::modeled_phase_cost();
  if (!cost.valid) return cost;
  cost.halo_seconds = halo_cycles_per_step() *
                      static_cast<double>(cost.steps) /
                      (md_.config().cost_model.clock_ghz() * 1e9);
  return cost;
}

double ShardedWafer::halo_cycles_per_step() const {
  return dist::halo_cycles_per_step(shards_, md_.b(),
                                    md_.mapping().grid_width(),
                                    md_.mapping().grid_height(),
                                    md_.config().cost_model);
}

}  // namespace wsmd::engine
