#include "obs/rdf.hpp"

#include <cmath>
#include <numbers>
#include <utility>

#include "io/checkpoint.hpp"
#include "io/series.hpp"
#include "md/cell_list.hpp"
#include "util/error.hpp"

namespace wsmd::obs {

namespace {

const RdfProbe::Config& validated(const RdfProbe::Config& config) {
  WSMD_REQUIRE(config.rcut > 0.0, "rdf rcut must be positive");
  WSMD_REQUIRE(config.bins >= 2, "rdf needs at least 2 bins");
  return config;
}

}  // namespace

RdfProbe::RdfProbe(const Config& config)
    : config_(validated(config)),
      writer_(config.path, config.format, {"r_A", "g"}) {
  histogram_.assign(static_cast<std::size_t>(config_.bins), 0.0);
}

void RdfProbe::sample(const Frame& frame) {
  const auto& pos = *frame.positions;
  WSMD_REQUIRE(pos.size() >= 2, "rdf needs at least 2 atoms");
  md::CellList::require_min_image(*frame.box, config_.rcut);
  if (samples_ == 0) {
    atoms_ = pos.size();
    volume_ = frame.box->volume();
  } else {
    WSMD_REQUIRE(pos.size() == atoms_,
                 "rdf atom count changed mid-run: " << atoms_ << " -> "
                                                    << pos.size());
  }
  const double inv_width = config_.bins / config_.rcut;
  md::CellList cl;
  cl.build(*frame.box, pos, config_.rcut);
  // Bin counts are small integers, exact in a double, so the half-stencil
  // sweep's pair order cannot change a bit of the histogram.
  cl.for_each_pair([&](std::size_t, std::size_t, const Vec3d&, double r2) {
    const auto bin = static_cast<std::size_t>(std::sqrt(r2) * inv_width);
    if (bin < histogram_.size()) histogram_[bin] += 1.0;
  });
  ++samples_;
}

void RdfProbe::finish() {
  const double dr = bin_width();
  const double pair_density =
      samples_ == 0 ? 0.0
                    : static_cast<double>(atoms_) *
                          static_cast<double>(atoms_ - 1) / (2.0 * volume_);
  std::vector<double> g_of_r(histogram_.size(), 0.0);
  for (std::size_t k = 0; k < histogram_.size(); ++k) {
    const double r_lo = dr * static_cast<double>(k);
    const double shell =
        4.0 / 3.0 * std::numbers::pi *
        (std::pow(r_lo + dr, 3) - std::pow(r_lo, 3));
    if (samples_ > 0 && shell > 0.0 && pair_density > 0.0) {
      g_of_r[k] = histogram_[k] /
                  (static_cast<double>(samples_) * pair_density * shell);
    }
    writer_.write_row({r_lo + 0.5 * dr, g_of_r[k]});
  }
  writer_.finish();
  rows_written_ = writer_.rows_written();

  // First *local* maximum above the ideal-gas baseline, not the global
  // max: bins below the nearest-neighbor shell hold no pairs, so this is
  // the first-shell fingerprint even when a later, broader shell bins
  // taller.
  for (std::size_t k = 0; k < g_of_r.size(); ++k) {
    const double prev = k > 0 ? g_of_r[k - 1] : 0.0;
    const double next = k + 1 < g_of_r.size() ? g_of_r[k + 1] : 0.0;
    if (g_of_r[k] > 1.0 && g_of_r[k] >= prev && g_of_r[k] >= next) {
      first_peak_g_ = g_of_r[k];
      first_peak_r_ = dr * (static_cast<double>(k) + 0.5);
      break;
    }
  }
}

void RdfProbe::save_state(io::BinaryWriter& w) const {
  Probe::save_state(w);
  w.f64s(histogram_);
  w.u64(atoms_);
  w.f64(volume_);
}

void RdfProbe::restore_state(io::BinaryReader& r) {
  Probe::restore_state(r);
  auto histogram = r.f64s();
  WSMD_REQUIRE(histogram.size() == histogram_.size(),
               r.context() << ": rdf bin count changed since the checkpoint ("
                           << histogram.size() << " -> " << histogram_.size()
                           << ")");
  histogram_ = std::move(histogram);
  atoms_ = static_cast<std::size_t>(r.u64());
  volume_ = r.f64();
}

void RdfProbe::summarize(JsonObject& meta) const {
  meta.set("obs_rdf_samples", samples_)
      .set("obs_rdf_bins", rows_written_)
      .set("obs_rdf_rcut_A", config_.rcut)
      .set("obs_rdf_first_peak_A", first_peak_r_)
      .set("obs_rdf_first_peak_g", first_peak_g_);
}

}  // namespace wsmd::obs
