#include "obs/defects.hpp"

#include "io/checkpoint.hpp"
#include "md/analysis.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace wsmd::obs {

namespace {

std::vector<std::string> columns_for(const DefectProbe::Config& c) {
  std::vector<std::string> cols = {"step", "time_ps", "defect_count",
                                   "defect_fraction", "mean_csp_A2"};
  if (c.gb_axis >= 0) cols.push_back("gb_position_A");
  return cols;
}

// Checked before the writer opens its file, so a bad config fails at
// construction — before the run starts — and leaves nothing on disk.
const DefectProbe::Config& validated(const DefectProbe::Config& c) {
  WSMD_REQUIRE(c.csp_rcut > 0.0, "defects csp_rcut must be positive");
  WSMD_REQUIRE(c.csp_neighbors >= 2 && c.csp_neighbors % 2 == 0,
               "defects csp_neighbors must be even and >= 2 (12 FCC, 8 BCC), "
               "got " << c.csp_neighbors);
  WSMD_REQUIRE(c.csp_threshold > 0.0, "defects csp_threshold must be positive");
  WSMD_REQUIRE(c.gb_axis >= -1 && c.gb_axis <= 2,
               "defects gb_axis must be 0..2 (or -1 = off)");
  WSMD_REQUIRE(c.surface_margin >= 0.0, "defects surface_margin must be >= 0");
  return c;
}

}  // namespace

DefectProbe::DefectProbe(const Config& config)
    : config_(validated(config)),
      path_(config.path),
      writer_(config.path, config.format, columns_for(config)) {}

void DefectProbe::sample(const Frame& frame) {
  const auto& pos = *frame.positions;
  const auto analysis = md::analyze_structure(*frame.box, pos,
                                              config_.csp_rcut,
                                              config_.csp_neighbors);
  const auto defect = md::defective_atoms(analysis, config_.csp_threshold);

  long count = 0;
  double csp_sum = 0.0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    csp_sum += analysis.centrosymmetry[i];
    if (defect[i]) ++count;
  }
  last_count_ = count;
  last_fraction_ = static_cast<double>(count) / static_cast<double>(pos.size());
  const double mean_csp = csp_sum / static_cast<double>(pos.size());

  std::vector<double> row = {static_cast<double>(frame.step), frame.time_ps,
                             static_cast<double>(count), last_fraction_,
                             mean_csp};
  if (config_.gb_axis >= 0) {
    // CSP-weighted mean plane of the defective core (open-surface shell
    // excluded: surface atoms are centro-asymmetric by construction and
    // would pull the estimate toward the slab centroid).
    const auto axis = static_cast<std::size_t>(config_.gb_axis);
    double weight = 0.0, moment = 0.0;
    for (std::size_t i = 0; i < pos.size(); ++i) {
      if (!defect[i]) continue;
      bool core = true;
      for (std::size_t a = 0; a < 3 && core; ++a) {
        if (frame.box->periodic[a]) continue;
        core = pos[i][a] >= frame.box->lo[a] + config_.surface_margin &&
               pos[i][a] <= frame.box->hi[a] - config_.surface_margin;
      }
      if (!core) continue;
      const double w = analysis.centrosymmetry[i];
      weight += w;
      moment += w * pos[i][axis];
    }
    if (weight > 0.0) {
      last_gb_position_ = moment / weight;
      have_gb_position_ = true;
      // Only actual measurements feed the mobility fit — a placeholder
      // row would fabricate a slope the moment a real boundary appears.
      times_.push_back(frame.time_ps);
      gb_positions_.push_back(last_gb_position_);
    } else if (!have_gb_position_) {
      // No defective core yet (e.g. a perfect crystal): report the box
      // midpoint until a boundary appears, so the stream stays finite.
      last_gb_position_ =
          0.5 * (frame.box->lo[axis] + frame.box->hi[axis]);
    }
    row.push_back(last_gb_position_);
  }
  writer_.write_row(row);
  ++samples_;
}

void DefectProbe::finish() { writer_.finish(); }

void DefectProbe::save_state(io::BinaryWriter& w) const {
  Probe::save_state(w);
  w.i64(last_count_);
  w.f64(last_fraction_);
  w.f64(last_gb_position_);
  w.u8(have_gb_position_ ? 1 : 0);
  w.f64s(times_);
  w.f64s(gb_positions_);
}

void DefectProbe::restore_state(io::BinaryReader& r) {
  Probe::restore_state(r);
  last_count_ = static_cast<long>(r.i64());
  last_fraction_ = r.f64();
  last_gb_position_ = r.f64();
  have_gb_position_ = r.u8() != 0;
  times_ = r.f64s();
  gb_positions_ = r.f64s();
}

void DefectProbe::summarize(JsonObject& meta) const {
  meta.set("obs_defects_samples", samples_)
      .set("obs_defects_final_count", static_cast<long long>(last_count_))
      .set("obs_defects_final_fraction", last_fraction_);
  if (config_.gb_axis >= 0) {
    meta.set("obs_defects_gb_position_A", last_gb_position_)
        .set("obs_defects_gb_mobility_A_per_ps",
             fit_slope_with_intercept(times_, gb_positions_));
  }
}

}  // namespace wsmd::obs
