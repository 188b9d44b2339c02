/// \file test_sieve_cache.cpp
/// The wafer sieve cache against an oracle that does what the wafer does:
/// every step, gather the whole (2b+1)^2 neighborhood of every core from
/// mapping()/b(), sieve it at rcut^2 and compare the engine's accepted
/// rows (ids and order) and modeled candidate counts bitwise. Covers cache
/// rebuilds, atom swaps, scramble_mapping, a mid-run restore_state, a
/// set_positions that widens b, both potential paths and both SIMD tiers,
/// plus a constructed pair that only the trigger's FP32 margin catches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/wse_md.hpp"
#include "eam/zhou.hpp"
#include "lattice/lattice.hpp"
#include "md/simd.hpp"
#include "util/random.hpp"

namespace wsmd::core {
namespace {

struct Case {
  simd::Tier tier;
  bool tabulated;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return std::string(simd::tier_name(info.param.tier)) +
         (info.param.tabulated ? "_tabulated" : "_analytic");
}

/// The FP32 box view the engine derives from the structure's box.
simd::BoxF32 box_f32(const Box& box) {
  simd::BoxF32 b{{0, 0, 0}, {0, 0, 0}};
  for (std::size_t a = 0; a < 3; ++a) {
    b.len[a] = static_cast<float>(box.lengths()[a]);
    b.inv_len[a] = box.periodic[a] ? 1.0f / b.len[a] : 0.0f;
  }
  return b;
}

float cutoff_sq(const eam::EamPotential& potential) {
  return static_cast<float>(potential.cutoff() * potential.cutoff());
}

/// Full-neighborhood oracle for the rows density_phase just wrote.
void expect_rows_match_oracle(WseMd& md, const StepWorkspace& ws,
                              const Box& box, float rc2,
                              const std::string& where) {
  const simd::KernelTable& kern = simd::kernels();
  const simd::BoxF32 sbox = box_f32(box);
  const Vec3fPlanes& pos = md.positions_f32();
  const AtomMapping& map = md.mapping();
  const int w = map.grid_width();
  const int h = map.grid_height();
  const int b = md.b();
  std::vector<std::uint32_t> gathered;
  std::vector<std::uint32_t> accepted;
  std::vector<float> r2;
  std::size_t mismatched = 0;
  for (int cy = 0; cy < h; ++cy) {
    for (int cx = 0; cx < w; ++cx) {
      const long a = map.atom_at(cx, cy);
      if (a < 0) continue;
      const auto i = static_cast<std::size_t>(a);
      gathered.clear();
      for (int y = std::max(0, cy - b); y <= std::min(h - 1, cy + b); ++y) {
        for (int x = std::max(0, cx - b); x <= std::min(w - 1, cx + b); ++x) {
          if (x == cx && y == cy) continue;
          const long j = map.atom_at(x, y);
          if (j >= 0) gathered.push_back(static_cast<std::uint32_t>(j));
        }
      }
      accepted.resize(gathered.size() + simd::kPadF32);
      r2.resize(gathered.size() + simd::kPadF32);
      const Vec3f ri = pos.get(i);
      const std::size_t m = kern.sieve_f32(
          pos.x(), pos.y(), pos.z(), ri.x, ri.y, ri.z, gathered.data(),
          gathered.size(), sbox, rc2, accepted.data(), r2.data());
      // A row longer than the stride holds is not stored (force_phase
      // re-derives it); only its count is observable here.
      const bool stored = m + simd::kPadF32 <= ws.neighbor_stride;
      const bool same =
          ws.candidates[i] == gathered.size() && ws.neighbor_count[i] == m &&
          (!stored ||
           std::memcmp(ws.neighbor_idx.data() + i * ws.neighbor_stride,
                       accepted.data(), m * sizeof(std::uint32_t)) == 0);
      if (!same && ++mismatched <= 3) {
        ADD_FAILURE() << where << ": atom " << i << " at core (" << cx << ","
                      << cy << "): candidates " << ws.candidates[i] << " vs "
                      << gathered.size() << ", accepted "
                      << ws.neighbor_count[i] << " vs " << m;
      }
    }
  }
  EXPECT_EQ(mismatched, 0u) << where;
}

/// One timestep through the phase API, density split into two row halves
/// the way a two-shard backend runs it, with the oracle between density
/// and force. Returns the swaps applied.
std::size_t checked_step(WseMd& md, StepWorkspace& ws, const Box& box,
                         float rc2, const std::string& where) {
  md.begin_step(ws);
  const ShardRect all = md.full_grid();
  ShardRect top = all;
  ShardRect bottom = all;
  top.y1 = all.y1 / 2;
  bottom.y0 = top.y1;
  md.density_phase(bottom, ws);
  md.density_phase(top, ws);
  expect_rows_match_oracle(md, ws, box, rc2, where);
  md.force_phase(top, ws);
  md.force_phase(bottom, ws);
  const bool swap = md.commit_step(ws);
  std::size_t applied = 0;
  if (swap) {
    md.swap_select(all, ws.partner);
    applied = md.swap_commit(ws.partner);
  }
  md.finish_step(ws, applied, swap);
  return applied;
}

/// Small open Ta slab at the paper cutoff (the test_wse_md fixture).
struct Fixture {
  lattice::Structure structure;
  eam::EamPotentialPtr potential;

  Fixture() {
    const auto p = eam::zhou_parameters("Ta");
    structure = lattice::replicate(
        lattice::UnitCell::of(p.structure, p.lattice_constant()), 6, 6, 4);
    potential = std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());
  }

  WseMdConfig config(bool tabulated) const {
    WseMdConfig cfg;
    cfg.mapping.cell_size = eam::zhou_parameters("Ta").lattice_constant();
    cfg.tabulated = tabulated;
    return cfg;
  }
};

class SieveCacheOracle : public testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    if (!simd::tier_supported(GetParam().tier)) {
      GTEST_SKIP() << simd::tier_name(GetParam().tier)
                   << " tier not available on this build/CPU";
    }
    simd::set_tier_override(GetParam().tier);
  }
  void TearDown() override { simd::clear_tier_override(); }
};

TEST_P(SieveCacheOracle, DisplacementRebuildsKeepRowsExact) {
  Fixture f;
  WseMd md(f.structure, f.potential, f.config(GetParam().tabulated));
  Rng rng(11);
  md.thermalize(1500.0, rng);
  StepWorkspace ws;
  const float rc2 = cutoff_sq(*f.potential);
  for (int step = 0; step < 40; ++step) {
    checked_step(md, ws, f.structure.box, rc2,
                 "step " + std::to_string(step));
  }
  // The first build plus at least three expiries of the displacement
  // trigger (no swaps, no mapping change in this run).
  EXPECT_GE(md.sieve_cache_builds(), 4u);
  // The compact stride is far below the full (2b+1)^2 neighborhood.
  const auto full = static_cast<std::size_t>((2 * md.b() + 1) *
                                             (2 * md.b() + 1));
  EXPECT_LT(ws.neighbor_stride, full);
}

TEST_P(SieveCacheOracle, SwapsScrambleAndRestoreExpireTheCache) {
  Fixture f;
  WseMdConfig cfg = f.config(GetParam().tabulated);
  cfg.swap_interval = 3;
  WseMd md(f.structure, f.potential, cfg);
  Rng rng(5);
  md.thermalize(600.0, rng);
  md.scramble_mapping(rng, 40);
  StepWorkspace ws;
  const float rc2 = cutoff_sq(*f.potential);
  std::size_t applied = 0;
  WseMd::SavedState saved;
  for (int step = 0; step < 45; ++step) {
    // Between two swap steps, so only its own expiry covers it.
    if (step == 13) md.scramble_mapping(rng, 30);
    if (step == 20) saved = md.save_state();
    // Back to step 20: mapping and positions jump to an earlier state.
    if (step == 32) md.restore_state(saved);
    applied += checked_step(md, ws, f.structure.box, rc2,
                            "step " + std::to_string(step));
  }
  EXPECT_GT(applied, 0u) << "the run must exercise applied swaps";
}

TEST_P(SieveCacheOracle, SetPositionsThatWidensBRebuilds) {
  // Start from an undersized neighborhood (b = 1): set_positions widens b
  // to what the configuration needs even when no atom moves, so only the
  // set_positions expiry — not the displacement trigger — can refresh the
  // cached rows and their geometric counts.
  Fixture f;
  WseMdConfig cfg = f.config(GetParam().tabulated);
  cfg.b_override = 1;
  WseMd md(f.structure, f.potential, cfg);
  Rng rng(3);
  md.thermalize(300.0, rng);
  StepWorkspace ws;
  const float rc2 = cutoff_sq(*f.potential);
  for (int step = 0; step < 3; ++step) {
    checked_step(md, ws, f.structure.box, rc2, "before set_positions");
  }
  md.set_positions(md.positions());
  ASSERT_GT(md.b(), 1);
  for (int step = 0; step < 3; ++step) {
    checked_step(md, ws, f.structure.box, rc2,
                 "after set_positions, step " + std::to_string(step));
  }
}

/// Two Cu atoms stacked along a 6144 A periodic z axis (so FP32 positions
/// near the far edge carry 2^-11 A of rounding). At the build the pair
/// sits just outside rcut + skin. Then each atom moves by what the
/// engine's trigger arithmetic computes as exactly skin/2 — the upper one
/// across the periodic boundary, where the rounded displacement
/// understates the true one — and the pair lands inside rcut. Only the
/// trigger's FP32 margin expires the cache in time; without it the cached
/// rows miss the pair.
TEST_P(SieveCacheOracle, FloatMarginCatchesAPairAtTheSkinEdge) {
  const auto p = eam::zhou_parameters("Cu");
  auto potential = std::make_shared<eam::ZhouEam>("Cu", p.paper_cutoff());
  const double rc = potential->cutoff();
  const double skin = WseMd::kSieveSkin;
  const float lz = 6144.0f;
  const float half_skin = static_cast<float>(0.5 * skin);
  Box box({0, 0, 0}, {20, 20, lz}, {false, false, true});
  const simd::BoxF32 sbox = box_f32(box);
  const float rc2 = cutoff_sq(*potential);
  const auto skin2 = static_cast<float>((rc + skin) * (rc + skin));

  // FP32 r^2 of a pair on the z axis, by the scalar sieve (the AVX2 tier
  // is bitwise the same).
  const auto pair_r2 = [&](float zi, float zj) {
    const float px[2] = {10, 10}, py[2] = {10, 10}, pz[2] = {zi, zj};
    const std::uint32_t idx[1] = {1};
    std::uint32_t out[1 + simd::kPadF32];
    float r2[1 + simd::kPadF32];
    simd::kernels_for(simd::Tier::kScalar)
        .sieve_f32(px, py, pz, 10, 10, zi, idx, 1, sbox, 1e30f, out, r2);
    return r2[0];
  };
  // The engine's trigger displacement on z (one periodic fold).
  const auto moved = [&](float from, float to) {
    float d = to - from;
    if (d > 0.5f * lz) d -= lz;
    if (d < -0.5f * lz) d += lz;
    return d;
  };

  const double u = std::ldexp(1.0, -11);  // FP32 spacing in [4096, 8192)
  float zi = 0, zj = 0, zi2 = 0, zj2 = 0;
  bool found = false;
  for (int k = -8; k <= 8 && !found; ++k) {
    // The upper atom sits within skin/2 of the periodic edge.
    zj = static_cast<float>(lz - 0.25 * skin + k * u);
    for (int t = 0; t < 64 && !found; ++t) {
      zi = static_cast<float>(static_cast<double>(zj) - lz + rc + skin +
                              (t - 32) * u / 32);
      zi2 = zi - half_skin;
      if (moved(zi, zi2) * moved(zi, zi2) > half_skin * half_skin) continue;
      if (pair_r2(zi, zj) < skin2) continue;  // must miss the skin sieve
      for (int q = 0; q <= 64 && !found; ++q) {
        zj2 = static_cast<float>(static_cast<double>(zj) + 0.5 * skin +
                                 q * u / 64 - lz);
        if (zj2 <= 0.0f) continue;
        const float d = moved(zj, zj2);
        if (d * d > half_skin * half_skin) continue;
        found = pair_r2(zi2, zj2) < rc2;
      }
    }
  }
  ASSERT_TRUE(found) << "no FP32 configuration at the skin edge";

  // A third atom bonded to both gives the rows room for the pair, so the
  // oracle compares stored ids, not only counts.
  lattice::Structure s;
  s.box = box;
  s.positions = {Vec3d(10, 10, zi), Vec3d(10, 10, zj),
                 Vec3d(10, 10, 0.5 * zi)};
  s.types = {0, 0, 0};
  WseMdConfig cfg;
  cfg.mapping.cell_size = 4.0;
  cfg.b_override = 2;
  cfg.tabulated = GetParam().tabulated;
  WseMd md(s, potential, cfg);
  StepWorkspace ws;
  const ShardRect all = md.full_grid();
  md.begin_step(ws);
  md.density_phase(all, ws);
  expect_rows_match_oracle(md, ws, box, rc2, "at the build");
  EXPECT_EQ(ws.neighbor_count[1], 1u);  // only the third atom
  const auto builds = md.sieve_cache_builds();

  md.positions_f32().set(0, Vec3f{10, 10, zi2});
  md.positions_f32().set(1, Vec3f{10, 10, zj2});
  md.begin_step(ws);
  md.density_phase(all, ws);
  expect_rows_match_oracle(md, ws, box, rc2, "after the move");
  EXPECT_EQ(ws.neighbor_count[1], 2u);
  EXPECT_GT(md.sieve_cache_builds(), builds);
}

/// A row longer than the stride the first build sized: engine A samples
/// a lone pair out of range (stride = pad only), then the pair closes in
/// and its rows overflow, so density filters from scratch and force
/// re-derives the accepted ids. Engine B starts at the closed-in pair and
/// stores its rows. Both must step bitwise alike.
TEST(SieveCacheOverflow, RowsLongerThanTheStrideStepExactly) {
  const auto p = eam::zhou_parameters("Cu");
  auto potential = std::make_shared<eam::ZhouEam>("Cu", p.paper_cutoff());
  lattice::Structure far;
  far.box = Box({0, 0, 0}, {20, 20, 20});
  far.positions = {Vec3d(10, 10, 4), Vec3d(10, 10, 14)};
  far.types = {0, 0};
  lattice::Structure near = far;
  near.positions[1] = Vec3d(10, 10, 6.5);
  WseMdConfig cfg;
  cfg.mapping.cell_size = 4.0;
  cfg.b_override = 2;
  WseMd a(far, potential, cfg);
  WseMd b(near, potential, cfg);
  StepWorkspace ws;
  a.begin_step(ws);
  a.density_phase(a.full_grid(), ws);
  ASSERT_EQ(ws.neighbor_stride, simd::kPadF32);
  a.positions_f32().set(1, Vec3f(near.positions[1]));
  a.set_velocities(b.velocities());
  for (int step = 0; step < 3; ++step) {
    a.step();
    b.step();
    const auto ra = a.positions();
    const auto rb = b.positions();
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].z, rb[i].z) << "step " << step << " atom " << i;
    }
    EXPECT_EQ(a.potential_energy(), b.potential_energy()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TiersAndPaths, SieveCacheOracle,
    testing::Values(Case{simd::Tier::kScalar, true},
                    Case{simd::Tier::kScalar, false},
                    Case{simd::Tier::kAvx2, true},
                    Case{simd::Tier::kAvx2, false}),
    case_name);

}  // namespace
}  // namespace wsmd::core
