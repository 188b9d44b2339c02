#pragma once

/// \file sharded_wafer.hpp
/// Thread-parallel wafer backend: the PE grid partitioned into per-thread
/// rectangular shards.
///
/// Mirrors how wafer-scale stencil codes decompose the fabric into
/// rectangular regions with halo exchange: the core grid splits into
/// `threads` row strips, and each worker thread runs the timestep phases of
/// core::WseMd over its own strip. Barriers sit exactly where the real
/// machine synchronizes — after the candidate/embedding exchange (F' of
/// every neighborhood must be published before forces) and after
/// integration (before the serial commit + reduction).
///
/// Determinism: the phase kernels keep per-worker candidate arrival order
/// identical to the serial sweep, every per-atom value is written by
/// exactly one shard, and all cross-worker reductions run serially in
/// row-major core order. A ShardedWafer therefore reproduces the serial
/// core::WseMd trajectory *bitwise* at any thread count — the existing
/// physics-equivalence tests double as parity tests for this backend.
///
/// Cost accounting: the canonical WseStepStats (max/mean/stddev cycles over
/// all workers) is unchanged. Additionally each shard's stats are reduced
/// separately, and the modeled cost of refreshing each shard's (2b+1)-deep
/// ghost halo is charged from the cost model (halo_exchange_cycles) — the
/// price a region-decomposed wafer pays that the idealized global machine
/// does not.

#include <vector>

#include "core/wse_md.hpp"
#include "engine/shard_pool.hpp"
#include "engine/wafer_engine.hpp"

namespace wsmd::engine {

struct ShardedWaferConfig {
  core::WseMdConfig wse;  ///< underlying wafer-engine configuration
  /// Worker threads == shard count; 0 picks hardware concurrency.
  int threads = 1;
};

class ShardedWafer final : public WaferEngine {
 public:
  ShardedWafer(const lattice::Structure& s, eam::EamPotentialPtr potential,
               ShardedWaferConfig config = {});

  const char* backend_name() const override { return "sharded-wafer"; }
  Thermo step() override;
  Thermo run(long n, const StepCallback& callback = {}) override;
  /// Base breakdown plus the modeled halo-exchange cost of this shard
  /// decomposition (halo_seconds).
  ModeledPhaseCost modeled_phase_cost() const override;

  int threads() const { return pool_.size(); }
  const std::vector<core::ShardRect>& shards() const { return shards_; }

  /// Per-shard accounting of the most recent step (same reduction as the
  /// global stats, restricted to each shard's cores; empty shards report
  /// zeroes).
  const std::vector<core::WseStepStats>& shard_stats() const {
    return shard_stats_;
  }

  /// Modeled cycles per step spent refreshing the shards' ghost halos (two
  /// neighborhood exchanges per step: positions and F'). Zero for a single
  /// shard — the whole grid has no internal boundary.
  double halo_cycles_per_step() const;

  /// Cumulative per-worker busy/wait seconds, accumulated by run_sharded
  /// while telemetry is armed (zeros otherwise) — the raw series behind the
  /// snapshot stream's imbalance rows.
  std::vector<ShardLoad> shard_load() const override { return cum_load_; }

 protected:
  /// Initial (and post-set_positions) energy on the shard pool: the same
  /// phases and serial row-major reduction as the lazy serial evaluation,
  /// so the value is bitwise the same.
  void settle_energy() override;

 private:
  /// pool_.run with telemetry: times each worker's busy span and folds the
  /// round's aggregate barrier wait (round wall time minus per-worker busy
  /// time) into the "shard.barrier_wait" span — the imbalance instrument.
  /// Falls back to a plain pool_.run when telemetry is disabled.
  void run_sharded(const std::function<void(int)>& task);

  std::vector<core::ShardRect> shards_;
  std::vector<core::WseStepStats> shard_stats_;
  std::vector<double> busy_seconds_;  ///< run_sharded scratch, per worker
  std::vector<ShardLoad> cum_load_;   ///< cumulative busy/wait, per worker
  core::StepWorkspace ws_;
  ShardPool pool_;
};

}  // namespace wsmd::engine
