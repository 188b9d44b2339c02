#include "md/neighbor.hpp"

#include "md/cell_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <set>

#include "lattice/lattice.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace wsmd::md {
namespace {

/// Reference brute-force neighbor set.
std::set<std::size_t> brute_force_neighbors(const Box& box,
                                            const std::vector<Vec3d>& pos,
                                            std::size_t i, double radius) {
  std::set<std::size_t> out;
  const double r2 = radius * radius;
  for (std::size_t j = 0; j < pos.size(); ++j) {
    if (j == i) continue;
    if (norm2(box.minimum_image(pos[i], pos[j])) < r2) out.insert(j);
  }
  return out;
}

std::vector<Vec3d> random_gas(Rng& rng, const Box& box, std::size_t n) {
  std::vector<Vec3d> pos(n);
  for (auto& r : pos) {
    r = {rng.uniform(box.lo.x, box.hi.x), rng.uniform(box.lo.y, box.hi.y),
         rng.uniform(box.lo.z, box.hi.z)};
  }
  return pos;
}

TEST(NeighborList, MatchesBruteForceOpenBox) {
  Rng rng(3);
  const Box box({0, 0, 0}, {20, 20, 20});
  const auto pos = random_gas(rng, box, 300);
  NeighborList nl(3.0, 0.5);
  nl.build(box, pos);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const auto expected = brute_force_neighbors(box, pos, i, nl.list_radius());
    const auto r = nl.neighbors(i);
    const std::set<std::size_t> actual(r.begin(), r.end());
    EXPECT_EQ(actual, expected) << "atom " << i;
  }
}

TEST(NeighborList, MatchesBruteForcePeriodicBox) {
  Rng rng(4);
  const Box box({0, 0, 0}, {15, 15, 15}, {true, true, true});
  const auto pos = random_gas(rng, box, 250);
  NeighborList nl(3.0, 0.4);
  nl.build(box, pos);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const auto expected = brute_force_neighbors(box, pos, i, nl.list_radius());
    const auto r = nl.neighbors(i);
    const std::set<std::size_t> actual(r.begin(), r.end());
    EXPECT_EQ(actual, expected) << "atom " << i;
  }
}

TEST(NeighborList, MatchesBruteForceMixedBoundaries) {
  Rng rng(5);
  const Box box({0, 0, 0}, {12, 18, 9}, {true, false, true});
  const auto pos = random_gas(rng, box, 200);
  NeighborList nl(2.5, 0.6);
  nl.build(box, pos);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const auto expected = brute_force_neighbors(box, pos, i, nl.list_radius());
    const auto r = nl.neighbors(i);
    const std::set<std::size_t> actual(r.begin(), r.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(NeighborList, SmallPeriodicBoxWithFewCells) {
  // Box barely larger than the list radius: periodic wrap puts multiple
  // stencil cells onto the same cell; the list must still be exact.
  Rng rng(6);
  const Box box({0, 0, 0}, {5.5, 5.5, 5.5}, {true, true, true});
  const auto pos = random_gas(rng, box, 60);
  NeighborList nl(2.0, 0.3);
  nl.build(box, pos);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const auto expected = brute_force_neighbors(box, pos, i, nl.list_radius());
    const auto r = nl.neighbors(i);
    const std::set<std::size_t> actual(r.begin(), r.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(NeighborList, ListIsSymmetric) {
  Rng rng(7);
  const Box box({0, 0, 0}, {20, 20, 20}, {true, true, true});
  const auto pos = random_gas(rng, box, 300);
  NeighborList nl(3.5, 0.5);
  nl.build(box, pos);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j : nl.neighbors(i)) {
      const auto r = nl.neighbors(j);
      EXPECT_TRUE(std::find(r.begin(), r.end(), i) != r.end())
          << i << " lists " << j << " but not vice versa";
    }
  }
}

TEST(NeighborList, FccLatticeCoordination) {
  // FCC with list radius between 1st and 2nd shell: every interior atom has
  // exactly 12 neighbors.
  const double a = 4.0;
  const auto s = lattice::replicate(lattice::UnitCell::fcc(a), 5, 5, 5, 0,
                                    {true, true, true});
  NeighborList nl(a / std::sqrt(2.0) + 0.2, 0.0);
  nl.build(s.box, s.positions);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(nl.neighbors(i).size(), 12u);
  }
}

TEST(NeighborList, SkinDelaysRebuilds) {
  Rng rng(8);
  const Box box({0, 0, 0}, {20, 20, 20}, {true, true, true});
  auto pos = random_gas(rng, box, 100);
  NeighborList nl(3.0, 1.0);
  nl.build(box, pos);
  EXPECT_EQ(nl.rebuild_count(), 1u);

  // Tiny motion: no rebuild.
  for (auto& r : pos) r += Vec3d{0.01, 0.0, 0.0};
  EXPECT_FALSE(nl.ensure_current(box, pos));
  EXPECT_EQ(nl.rebuild_count(), 1u);

  // Motion beyond skin/2: rebuild.
  pos[0] += Vec3d{0.6, 0.0, 0.0};
  EXPECT_TRUE(nl.ensure_current(box, pos));
  EXPECT_EQ(nl.rebuild_count(), 2u);
}

TEST(NeighborList, RebuildOnAtomCountChange) {
  Rng rng(9);
  const Box box({0, 0, 0}, {10, 10, 10});
  auto pos = random_gas(rng, box, 50);
  NeighborList nl(2.0, 0.5);
  nl.build(box, pos);
  pos.push_back({5, 5, 5});
  EXPECT_TRUE(nl.ensure_current(box, pos));
  EXPECT_EQ(nl.atom_count(), 51u);
}

TEST(NeighborList, RejectsInvalidConstruction) {
  EXPECT_THROW(NeighborList(0.0, 0.1), Error);
  EXPECT_THROW(NeighborList(1.0, -0.1), Error);
}

TEST(NeighborList, SkinWithinListRadius) {
  NeighborList nl(3.0, 0.7);
  EXPECT_DOUBLE_EQ(nl.list_radius(), 3.7);
  EXPECT_DOUBLE_EQ(nl.cutoff(), 3.0);
  EXPECT_DOUBLE_EQ(nl.skin(), 0.7);
}

TEST(CellList, MatchesBruteForceOnRandomGasAllBoundaryKinds) {
  Rng rng(31);
  // radius 2.5 -> >= 3 cells per axis (the generic stencil); radius 4.0
  // -> exactly 2 cells per axis (box lengths in [2r, 3r)), the regime
  // where periodic wrap folds distinct stencil offsets onto the same cell
  // and only the build-time dedup prevents double-visiting neighbors.
  for (const double radius : {2.5, 4.0}) {
    for (const auto periodic :
         {std::array<bool, 3>{false, false, false},
          std::array<bool, 3>{true, true, true},
          std::array<bool, 3>{true, false, true}}) {
      const Box box({0, 0, 0}, {9, 11, 10}, periodic);
      const auto pos = random_gas(rng, box, 160);
      CellList cl;
      cl.build(box, pos, radius);
      for (std::size_t i = 0; i < pos.size(); ++i) {
        const auto expect = brute_force_neighbors(box, pos, i, radius);
        std::vector<std::size_t> got;
        cl.for_each_neighbor(i,
                             [&](std::size_t j, const Vec3d& d, double r2) {
                               EXPECT_LT(r2, radius * radius);
                               const Vec3d want =
                                   box.minimum_image(pos[i], pos[j]);
                               EXPECT_EQ(std::memcmp(&d, &want, sizeof d), 0);
                               EXPECT_EQ(r2, norm2(want));
                               got.push_back(j);
                             });
        std::sort(got.begin(), got.end());
        // Duplicate-freeness asserted on the raw list, not a set.
        EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
            << "duplicate neighbor of atom " << i << " at radius " << radius;
        EXPECT_EQ(std::set<std::size_t>(got.begin(), got.end()), expect)
            << "atom " << i << " radius " << radius;
      }
    }
  }
}

TEST(CellList, NeighborVisitOrderIsCellAscendingThenIndex) {
  // The centrosymmetry kernel's tie-breaking rides on this order, so it
  // is pinned exactly. A 3x3x3-cell periodic box of unit cells: one atom
  // at the centre of the middle cell, and in each of the 26 other cells
  // one or two atoms just across the shared face/edge/corner (all within
  // the radius). Atom ids are shuffled against the spatial layout.
  const Box box({0, 0, 0}, {3, 3, 3}, {true, true, true});
  const Vec3d centre{1.5, 1.5, 1.5};
  std::vector<Vec3d> layout = {centre};
  std::vector<std::size_t> cell_of = {13};
  for (int dz = -1; dz <= 1; ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        const auto cell =
            static_cast<std::size_t>(((dz + 1) * 3 + (dy + 1)) * 3 + dx + 1);
        for (const double reach : {0.55, 0.52}) {
          if (reach == 0.52 && (dx + dy + dz) % 2 == 0) continue;
          layout.push_back(centre + reach * Vec3d{static_cast<double>(dx),
                                                  static_cast<double>(dy),
                                                  static_cast<double>(dz)});
          cell_of.push_back(cell);
        }
      }
    }
  }
  std::vector<std::size_t> id(layout.size());
  for (std::size_t k = 0; k < id.size(); ++k) id[k] = (k * 17) % id.size();
  ASSERT_EQ(std::set<std::size_t>(id.begin(), id.end()).size(), id.size());
  std::vector<Vec3d> pos(layout.size());
  std::vector<std::pair<std::size_t, std::size_t>> expect;  // (cell, id)
  for (std::size_t k = 0; k < layout.size(); ++k) {
    pos[id[k]] = layout[k];
    if (k > 0) expect.emplace_back(cell_of[k], id[k]);
  }
  std::sort(expect.begin(), expect.end());
  CellList cl;
  cl.build(box, pos, 1.0);
  ASSERT_EQ(cl.cell_count(), 27u);
  std::vector<std::size_t> got;
  cl.for_each_neighbor(id[0], [&](std::size_t j, const Vec3d&, double) {
    got.push_back(j);
  });
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], expect[k].second) << "visit " << k;
  }
}

TEST(CellList, PairIterationVisitsEachUnorderedPairOnce) {
  // Every boundary kind, at radii giving >= 3, exactly 2 and exactly 1
  // cell per axis (2 and 1 are the periodic-dedup regimes), on a random
  // gas and on a perfect lattice (many exactly-zero displacement
  // components: the reported d must carry +0 where Box::minimum_image
  // does, never -0). Each pair must come once, as i < j, with d and r2
  // bitwise equal to the brute-force minimum image rj - ri.
  Rng rng(77);
  const Box gas_box({0, 0, 0}, {8, 8, 8});
  const auto gas = random_gas(rng, gas_box, 120);
  const auto crystal =
      lattice::replicate(lattice::UnitCell::fcc(2.0), 4, 4, 4).positions;
  for (const auto* pos : {&gas, &crystal}) {
    for (const double radius : {2.0, 3.0, 5.0}) {
      for (const auto periodic :
           {std::array<bool, 3>{false, false, false},
            std::array<bool, 3>{true, true, true},
            std::array<bool, 3>{true, false, true},
            std::array<bool, 3>{false, true, false}}) {
        const Box box({0, 0, 0}, {8, 8, 8}, periodic);
        CellList cl;
        cl.build(box, *pos, radius);
        std::map<std::pair<std::size_t, std::size_t>, Vec3d> expect;
        for (std::size_t i = 0; i < pos->size(); ++i) {
          for (std::size_t j = i + 1; j < pos->size(); ++j) {
            const Vec3d d = box.minimum_image((*pos)[i], (*pos)[j]);
            if (norm2(d) < radius * radius) expect.emplace(std::pair{i, j}, d);
          }
        }
        std::size_t visits = 0;
        cl.for_each_pair(
            [&](std::size_t i, std::size_t j, const Vec3d& d, double r2) {
              ++visits;
              ASSERT_LT(i, j);
              const auto it = expect.find({i, j});
              ASSERT_NE(it, expect.end())
                  << "spurious or duplicate pair " << i << "," << j;
              EXPECT_EQ(std::memcmp(&d, &it->second, sizeof d), 0)
                  << "pair " << i << "," << j;
              const double want_r2 = norm2(it->second);
              EXPECT_EQ(std::memcmp(&r2, &want_r2, sizeof r2), 0);
              expect.erase(it);
            });
        EXPECT_TRUE(expect.empty())
            << expect.size() << " pairs missed at radius " << radius
            << " after " << visits << " visits";
      }
    }
  }
}

}  // namespace
}  // namespace wsmd::md
