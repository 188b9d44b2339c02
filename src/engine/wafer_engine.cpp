#include "engine/wafer_engine.hpp"

#include "util/error.hpp"
#include "util/units.hpp"

namespace wsmd::engine {

WaferEngine::WaferEngine(const lattice::Structure& s,
                         eam::EamPotentialPtr potential,
                         core::WseMdConfig config)
    : md_(s, std::move(potential), config) {}

Thermo WaferEngine::step() {
  last_ = md_.step();
  return thermo();
}

Thermo WaferEngine::run(long n, const StepCallback& callback) {
  if (!callback) {
    last_ = md_.run(static_cast<int>(n));
  } else {
    md_.run(static_cast<int>(n), [&](const core::WseStepStats& stats) {
      last_ = stats;
      callback(thermo());
    });
  }
  return thermo();
}

State WaferEngine::snapshot() const {
  State st;
  const auto saved = md_.save_state();
  st.step = saved.step;
  st.positions = saved.positions;
  st.velocities = saved.velocities;
  st.has_wafer = true;
  st.potential_energy = saved.potential_energy;
  st.elapsed_seconds = saved.elapsed_seconds;
  st.grid_width = saved.grid_width;
  st.grid_height = saved.grid_height;
  st.b = saved.b;
  st.core_atoms = saved.core_atoms;
  st.initial_positions = saved.initial_positions;
  return st;
}

void WaferEngine::restore(const State& state) {
  if (!state.has_wafer) {
    // Reference-written snapshot: transfer positions/velocities onto the
    // constructed mapping (cross-backend, not bitwise). set_positions
    // widens b if the restored configuration needs it.
    WSMD_REQUIRE(state.positions.size() == md_.atom_count() &&
                     state.velocities.size() == md_.atom_count(),
                 "restore: atom count mismatch ("
                     << state.positions.size() << " vs " << md_.atom_count()
                     << ")");
    md_.set_positions(state.positions);
    md_.set_velocities(state.velocities);
    settle_energy();
    core::WseMd::SavedState partial = md_.save_state();
    partial.step = state.step;
    partial.elapsed_seconds = 0.0;
    md_.restore_state(partial);
    return;
  }
  core::WseMd::SavedState saved;
  saved.step = state.step;
  saved.elapsed_seconds = state.elapsed_seconds;
  saved.potential_energy = state.potential_energy;
  saved.positions = state.positions;
  saved.velocities = state.velocities;
  saved.grid_width = state.grid_width;
  saved.grid_height = state.grid_height;
  saved.b = state.b;
  saved.core_atoms = state.core_atoms;
  saved.initial_positions = state.initial_positions;
  md_.restore_state(saved);
}

ModeledPhaseCost WaferEngine::modeled_phase_cost() const {
  ModeledPhaseCost cost;
  cost.steps = md_.step_count();
  if (cost.steps <= 0) return cost;
  cost.valid = true;
  const core::WseMd::CumulativeStats& cum = md_.cumulative_stats();
  const auto steps = static_cast<double>(cost.steps);
  cost.mean_candidates = cum.candidate_step_sum / steps;
  cost.mean_interactions = cum.interaction_step_sum / steps;
  cost.swap_steps = cum.swap_steps;

  const wse::CostModel& model = md_.config().cost_model;
  const wse::CostModel::Components& c = model.components();
  const wse::CostModel::Factors& f = model.factors();
  const double cand = cum.candidate_step_sum;
  const double inter = cum.interaction_step_sum;
  // Phase attribution of the Table V terms: multicast + miss filtering land
  // in the density phase (candidate exchange / neighbor build), the
  // per-interaction term in the force phase, the fixed term in the
  // begin/commit bookkeeping.
  cost.density_seconds = (c.mcast_per_candidate * f.mcast * cand +
                          c.miss_per_reject * f.miss * (cand - inter)) *
                         1e-9;
  cost.force_seconds = c.per_interaction * f.interaction * inter * 1e-9;
  cost.fixed_seconds = c.fixed * f.fixed * steps * 1e-9;
  // A swap step costs roughly one extra timestep (paper Sec. V-E): charge
  // the run-average modeled step time once per swap step.
  cost.total_seconds = md_.elapsed_seconds();
  const double mean_step_seconds =
      cost.total_seconds /
      (steps + static_cast<double>(cost.swap_steps));
  cost.swap_seconds = mean_step_seconds * static_cast<double>(cost.swap_steps);
  return cost;
}

Thermo WaferEngine::thermo() const {
  Thermo t;
  t.step = md_.step_count();
  t.potential_energy = md_.potential_energy();
  t.kinetic_energy = md_.kinetic_energy();
  t.total_energy = t.potential_energy + t.kinetic_energy;
  t.temperature = 2.0 * t.kinetic_energy /
                  (3.0 * static_cast<double>(md_.atom_count()) *
                   units::kBoltzmann);
  return t;
}

}  // namespace wsmd::engine
