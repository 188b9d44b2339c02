#include "md/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "eam/zhou.hpp"
#include "lattice/grain_boundary.hpp"
#include "lattice/lattice.hpp"
#include "md/cell_list.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace wsmd::md {
namespace {

// The greedy centrosymmetry loop as first written: per-atom bond vectors
// sorted by recomputed |d|^2, then n/2 rounds that recompute every unused
// |r_a + r_b|^2 and take the strict-< argmin in lexicographic (a, b) order.
// analyze_structure must reproduce it bit for bit.
StructureAnalysis oracle_analyze(const Box& box,
                                 const std::vector<Vec3d>& positions,
                                 double rcut, int neighbor_count) {
  CellList cl;
  cl.build(box, positions, rcut);
  StructureAnalysis out;
  out.centrosymmetry.assign(positions.size(), 0.0);
  out.coordination.assign(positions.size(), 0);
  std::vector<Vec3d> bonds;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    bonds.clear();
    cl.for_each_neighbor(i, [&](std::size_t, const Vec3d& d, double) {
      bonds.push_back(d);
    });
    out.coordination[i] = static_cast<int>(bonds.size());
    std::sort(bonds.begin(), bonds.end(), [](const Vec3d& a, const Vec3d& b) {
      return norm2(a) < norm2(b);
    });
    const std::size_t n =
        std::min(bonds.size(), static_cast<std::size_t>(neighbor_count));
    if (n < 2) {
      out.centrosymmetry[i] = rcut * rcut;
      continue;
    }
    std::vector<bool> used(n, false);
    double csp = 0.0;
    for (std::size_t pair = 0; pair < n / 2; ++pair) {
      double best = 1e300;
      std::size_t ba = 0, bb = 0;
      for (std::size_t a = 0; a < n; ++a) {
        if (used[a]) continue;
        for (std::size_t b = a + 1; b < n; ++b) {
          if (used[b]) continue;
          const double v = norm2(bonds[a] + bonds[b]);
          if (v < best) {
            best = v;
            ba = a;
            bb = b;
          }
        }
      }
      used[ba] = used[bb] = true;
      csp += best;
    }
    out.centrosymmetry[i] = csp;
  }
  return out;
}

void expect_matches_oracle(const Box& box, const std::vector<Vec3d>& pos,
                           double rcut, int neighbor_count) {
  const auto got = analyze_structure(box, pos, rcut, neighbor_count);
  const auto want = oracle_analyze(box, pos, rcut, neighbor_count);
  ASSERT_EQ(got.centrosymmetry.size(), pos.size());
  ASSERT_EQ(got.coordination.size(), pos.size());
  EXPECT_EQ(std::memcmp(got.centrosymmetry.data(), want.centrosymmetry.data(),
                        pos.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(got.coordination.data(), want.coordination.data(),
                        pos.size() * sizeof(int)),
            0);
}

std::vector<Vec3d> jittered(std::vector<Vec3d> pos, double amplitude,
                            std::uint64_t seed) {
  Rng rng(seed);
  for (auto& r : pos) {
    r += Vec3d{rng.uniform(-amplitude, amplitude),
               rng.uniform(-amplitude, amplitude),
               rng.uniform(-amplitude, amplitude)};
  }
  return pos;
}

TEST(CentrosymmetryOracle, PerfectPeriodicLatticesTieHeavy) {
  // Every first-shell bond ties in length, and the 1.2 a radius also
  // admits the second shell, so the sort and the pairing both run on ties.
  // Keeping fewer bonds than the first shell holds cuts through a tie, so
  // which bonds survive the sort — and the CSP value — hangs on the exact
  // tie order.
  const double a_fcc = 3.615;
  const auto fcc = lattice::replicate(lattice::UnitCell::fcc(a_fcc), 4, 4, 4,
                                      0, {true, true, true});
  for (const int n : {12, 8, 6}) {
    expect_matches_oracle(fcc.box, fcc.positions, 1.2 * a_fcc, n);
  }
  const double a_bcc = 3.165;
  const auto bcc = lattice::replicate(lattice::UnitCell::bcc(a_bcc), 5, 5, 5,
                                      0, {true, true, true});
  for (const int n : {8, 6, 4}) {
    expect_matches_oracle(bcc.box, bcc.positions, 1.2 * a_bcc, n);
  }
}

TEST(CentrosymmetryOracle, GreedyTieTakesTheLexicographicallyFirstPair) {
  // Four bonds around the first atom, exact in binary: |b0 + b1|^2 and
  // |b0 + b2|^2 tie at 0.25 for the cheapest pair. The first pair in
  // (a, b) order wins, leaving b2 + b3 (1.25), not b1 + b3 (2.25).
  const Vec3d c{10, 10, 10};
  const std::vector<Vec3d> pos = {c,
                                  c + Vec3d{1, 0, 0},
                                  c + Vec3d{-1, 0.5, 0},
                                  c + Vec3d{-1, -0.5, 0},
                                  c + Vec3d{0.5, 0.5, 1}};
  const Box box({0, 0, 0}, {20, 20, 20});
  const auto got = analyze_structure(box, pos, 1.3, 4);
  EXPECT_EQ(got.coordination[0], 4);
  EXPECT_EQ(got.centrosymmetry[0], 0.25 + 1.25);
  expect_matches_oracle(box, pos, 1.3, 4);
}

TEST(CentrosymmetryOracle, JitteredOpenGrainBoundarySlab) {
  const lattice::GrainBoundaryParams params{.element = "Cu",
                                            .tilt_angle_deg = 16.0,
                                            .cells_x = 8,
                                            .cells_y = 8,
                                            .cells_z = 3};
  const auto gb = lattice::make_grain_boundary(params);
  const double a = eam::zhou_parameters("Cu").lattice_constant();
  const auto pos = jittered(gb.structure.positions, 0.08, 5);
  expect_matches_oracle(gb.structure.box, pos, 1.2 * a, 12);
}

TEST(CentrosymmetryOracle, PeriodicAxisWithTwoCellsOpenAxisWithOne) {
  // x periodic at 2a over a 0.9a radius: two cells, so the wrapped stencil
  // offsets collide; z open and one unit cell thin: a single cell.
  const double a = 3.615;
  const auto s = lattice::replicate(lattice::UnitCell::fcc(a), 2, 4, 1, 0,
                                    {true, true, false});
  expect_matches_oracle(s.box, s.positions, 0.9 * a, 12);
  expect_matches_oracle(s.box, jittered(s.positions, 0.05, 9), 0.9 * a, 12);
}

TEST(CentrosymmetryOracle, UnderCoordinatedAndIsolatedAtoms) {
  // An open cluster at a first-shell radius: corner, edge and face atoms
  // have fewer than 12 bonds, some an odd number. Far away: a dimer (one
  // bond each) and a lone atom, both below the two-bond minimum.
  const double a = 3.615;
  auto s = lattice::replicate(lattice::UnitCell::fcc(a), 3, 3, 3);
  auto pos = jittered(s.positions, 0.03, 13);
  pos.push_back({40.0, 40.0, 40.0});
  pos.push_back({40.0, 40.0, 42.5});
  pos.push_back({-30.0, 5.0, 5.0});
  const Box box({-31.0, 0.0, 0.0}, {41.0, 41.0, 43.0});
  const double rcut = 0.8 * a;
  const auto got = analyze_structure(box, pos, rcut, 12);
  bool odd_short = false;
  for (const int c : got.coordination) {
    odd_short = odd_short || (c < 12 && c % 2 == 1);
  }
  EXPECT_TRUE(odd_short);
  EXPECT_EQ(got.coordination.back(), 0);
  EXPECT_EQ(got.centrosymmetry.back(), rcut * rcut);
  EXPECT_EQ(got.coordination[pos.size() - 2], 1);
  expect_matches_oracle(box, pos, rcut, 12);
  expect_matches_oracle(box, pos, rcut, 4);
  expect_matches_oracle(box, pos, rcut, 2);
}

TEST(Centrosymmetry, PerfectBccBulkIsZero) {
  const double a = 3.165;
  const auto s = lattice::replicate(lattice::UnitCell::bcc(a), 5, 5, 5, 0,
                                    {true, true, true});
  const auto out = analyze_structure(s.box, s.positions, 1.2 * a, 8);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(out.centrosymmetry[i], 0.0, 1e-9);
    EXPECT_GE(out.coordination[i], 8);
  }
}

TEST(Centrosymmetry, PerfectFccBulkIsZero) {
  const double a = 3.615;
  const auto s = lattice::replicate(lattice::UnitCell::fcc(a), 4, 4, 4, 0,
                                    {true, true, true});
  const auto out = analyze_structure(s.box, s.positions, 0.9 * a, 12);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(out.centrosymmetry[i], 0.0, 1e-9);
    EXPECT_EQ(out.coordination[i], 12);
  }
}

TEST(Centrosymmetry, SurfaceAtomsAreDefective) {
  // Open boundaries: face atoms lose their opposite partners.
  const double a = 3.165;
  const auto s = lattice::replicate(lattice::UnitCell::bcc(a), 5, 5, 5);
  const auto out = analyze_structure(s.box, s.positions, 1.2 * a, 8);
  const auto defect = defective_atoms(out, 0.5);
  int surface_defects = 0, interior_defects = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const Vec3d& r = s.positions[i];
    const bool surface = r.x < 0.6 * a || r.x > 4.0 * a || r.y < 0.6 * a ||
                         r.y > 4.0 * a || r.z < 0.6 * a || r.z > 4.0 * a;
    if (surface && defect[i]) ++surface_defects;
    if (!surface && defect[i]) ++interior_defects;
  }
  EXPECT_GT(surface_defects, 50);
  EXPECT_EQ(interior_defects, 0);
}

TEST(Centrosymmetry, GrainBoundaryBandDetected) {
  // The Fig. 2 classification: atoms near the boundary plane carry high
  // centrosymmetry; grain interiors stay crystalline.
  lattice::GrainBoundaryParams params;
  params.element = "W";
  params.tilt_angle_deg = 16.0;
  params.cells_x = 10;
  params.cells_y = 10;
  params.cells_z = 3;
  const auto gb = lattice::make_grain_boundary(params);
  const double a = eam::zhou_parameters("W").lattice_constant();
  const auto out =
      analyze_structure(gb.structure.box, gb.structure.positions, 1.2 * a, 8);
  const auto defect = defective_atoms(out, 1.0);

  int boundary_defects = 0, boundary_total = 0;
  int interior_defects = 0, interior_total = 0;
  for (std::size_t i = 0; i < gb.structure.size(); ++i) {
    const Vec3d& r = gb.structure.positions[i];
    // Skip the open-surface shell; compare GB band vs grain interior.
    const double lx = params.cells_x * a, lz = params.cells_z * a;
    if (r.x < a || r.x > lx - a || r.z < a || r.z > lz - a) continue;
    const double dy = std::fabs(r.y - gb.boundary_y);
    if (dy < 0.8 * a) {
      ++boundary_total;
      if (defect[i]) ++boundary_defects;
    } else if (dy > 2.5 * a && r.y > a && r.y < params.cells_y * a - a) {
      ++interior_total;
      if (defect[i]) ++interior_defects;
    }
  }
  ASSERT_GT(boundary_total, 20);
  ASSERT_GT(interior_total, 50);
  // Most of the boundary band is defective; grain interiors are clean.
  EXPECT_GT(static_cast<double>(boundary_defects) / boundary_total, 0.5);
  EXPECT_LT(static_cast<double>(interior_defects) / interior_total, 0.05);
}

TEST(Centrosymmetry, RejectsBadArguments) {
  const auto s = lattice::replicate(lattice::UnitCell::bcc(3.0), 3, 3, 3);
  EXPECT_THROW(analyze_structure(s.box, s.positions, 4.0, 7), Error);
  EXPECT_THROW(analyze_structure(s.box, {}, 4.0, 8), Error);
  StructureAnalysis a;
  EXPECT_THROW(defective_atoms(a, 0.0), Error);
}

}  // namespace
}  // namespace wsmd::md
