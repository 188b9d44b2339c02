#pragma once

/// \file wafer_engine.hpp
/// Engine adapter for the serial wafer-scale engine (core::WseMd).
///
/// Exposes the one-atom-per-core FP32 engine behind the unified Engine
/// interface and keeps the modeled wafer accounting (WseStepStats,
/// elapsed modeled seconds) reachable for benches. ShardedWafer derives
/// from this adapter and replaces the serial sweep with per-thread shards.

#include "core/wse_md.hpp"
#include "engine/engine.hpp"

namespace wsmd::engine {

class WaferEngine : public Engine {
 public:
  WaferEngine(const lattice::Structure& s, eam::EamPotentialPtr potential,
              core::WseMdConfig config = {});

  core::WseMd& wafer() { return md_; }
  const core::WseMd& wafer() const { return md_; }

  /// Accounting of the most recent step (zeroed before the first step).
  const core::WseStepStats& last_step_stats() const { return last_; }

  const char* backend_name() const override { return "wafer-serial"; }
  /// Cost-model phase breakdown from the run's cumulative candidate /
  /// interaction counts (wse::CostModel Table V basis). ShardedWafer
  /// extends it with the modeled halo-exchange cost.
  ModeledPhaseCost modeled_phase_cost() const override;
  std::size_t atom_count() const override { return md_.atom_count(); }
  long step_count() const override { return md_.step_count(); }
  std::vector<Vec3d> positions() const override { return md_.positions(); }
  std::vector<Vec3d> velocities() const override { return md_.velocities(); }
  void set_velocities(const std::vector<Vec3d>& v) override {
    md_.set_velocities(v);
  }
  void set_positions(const std::vector<Vec3d>& r) override {
    md_.set_positions(r);
    settle_energy();
  }
  State snapshot() const override;
  void restore(const State& state) override;
  void thermalize(double temperature_K, Rng& rng) override {
    md_.thermalize(temperature_K, rng);
  }
  Thermo step() override;
  Thermo run(long n, const StepCallback& callback = {}) override;
  Thermo thermo() const override;

 protected:
  /// Evaluate the potential energy of a configuration whose energy is
  /// pending (construction, set_positions, a reference-state restore).
  /// The serial engine leaves it to WseMd's lazy evaluation; ShardedWafer
  /// runs the phases on its shard pool instead.
  virtual void settle_energy() {}

  core::WseMd md_;
  core::WseStepStats last_;
};

}  // namespace wsmd::engine
