#pragma once

/// \file cell_list.hpp
/// Shared spatial cell list: the O(N) neighbor-search primitive behind the
/// Verlet list (md/neighbor), the structural analysis (md/analysis), and the
/// streaming observables (src/obs).
///
/// Atoms are binned into cells of edge >= `radius`; candidate neighbors of
/// an atom are the atoms in its cell's 27-stencil. The stencil cell ids are
/// deduplicated at build time, so every atom is visited at most once per
/// query even when a periodic axis holds fewer than three cells (the wrap
/// would otherwise fold distinct stencil offsets onto the same cell).
///
/// build() keeps a cell-ordered copy of the coordinates (x/y/z planes plus
/// atom ids), so a query streams contiguous memory instead of chasing atom
/// indices. Within a cell, atoms sit in ascending index order.
///
/// Displacements are Box::minimum_image to the bit: the same subtraction
/// and the same `d -= round(d / len) * len` fold, with the per-axis
/// periodic test resolved once per query instead of once per candidate.
///
/// Correctness contract, shared with the Verlet list it was extracted from:
/// distances use the minimum-image convention, which is exact only while at
/// most one periodic image of any neighbor lies within `radius` — callers
/// on periodic boxes must keep every periodic box length >= 2 * cutoff.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "util/box.hpp"
#include "util/vec3.hpp"

namespace wsmd::md {

class CellList {
 public:
  CellList() = default;

  /// Enforce the minimum-image precondition: every periodic box length
  /// must be >= 2 * `cutoff`. Callers validate with the cutoff they
  /// guarantee to their users — which may be smaller than the cell radius
  /// (the Verlet list builds cells at cutoff + skin but only promises
  /// completeness within cutoff), so build() cannot enforce this itself.
  static void require_min_image(const Box& box, double cutoff);

  /// Bin `positions` into cells of edge >= `radius`. For periodic axes the
  /// box bounds are authoritative; open axes bin over the atom extrema
  /// (atoms may drift outside the nominal box). Throws on a non-finite
  /// coordinate, naming the atom. The list copies the coordinates, so
  /// `positions` may change or go away after build().
  void build(const Box& box, const std::vector<Vec3d>& positions,
             double radius);

  std::size_t atom_count() const { return id_.size(); }
  double radius() const { return radius_; }
  std::size_t cell_count() const {
    return cell_start_.empty() ? 0 : cell_start_.size() - 1;
  }

  /// Invoke `f(j, d, r2)` for every atom j != i whose minimum-image
  /// displacement d = rj - ri has |d|^2 = r2 < radius^2. Each such j is
  /// visited exactly once.
  ///
  /// Visit order: the stencil cells of i's cell in ascending cell id, then
  /// the atoms of each cell in ascending index. This order is part of the
  /// contract, not an accident: the centrosymmetry kernel sorts bonds with
  /// std::sort, which is not stable, so among equal-length bonds (every
  /// shell of a perfect lattice) the arrival order decides which bonds are
  /// kept and how they pair. Changing it changes CSP output bits.
  template <typename F>
  void for_each_neighbor(std::size_t i, F&& f) const {
    with_periodicity([&]<bool PX, bool PY, bool PZ>(Axes<PX, PY, PZ>) {
      neighbors_of<PX, PY, PZ>(i, f);
    });
  }

  /// Invoke `f(i, j, d, r2)` once per unordered pair i < j within `radius`
  /// (d is the minimum image rj - ri, bitwise Box::minimum_image(ri, rj)).
  ///
  /// Half-stencil sweep: each cell pairs its atoms among themselves
  /// (k < l in cell order, so ascending ids) and with the cells of its
  /// stencil that have a larger id. Every unordered cell pair — and so
  /// every atom pair — is examined once, with no distance work spent on
  /// the mirrored half. Pair order follows cells, not atom ids; callers
  /// must be insensitive to it (the RDF's integer-valued bin counts are).
  template <typename F>
  void for_each_pair(F&& f) const {
    with_periodicity([&]<bool PX, bool PY, bool PZ>(Axes<PX, PY, PZ>) {
      pairs<PX, PY, PZ>(f);
    });
  }

 private:
  template <bool PX, bool PY, bool PZ>
  struct Axes {};

  /// Call g(Axes<px, py, pz>{}) with the box's periodic flags as
  /// compile-time constants.
  template <typename G>
  void with_periodicity(G&& g) const {
    switch (periodic_mask_) {
      case 0: return g(Axes<false, false, false>{});
      case 1: return g(Axes<true, false, false>{});
      case 2: return g(Axes<false, true, false>{});
      case 3: return g(Axes<true, true, false>{});
      case 4: return g(Axes<false, false, true>{});
      case 5: return g(Axes<true, false, true>{});
      case 6: return g(Axes<false, true, true>{});
      default: return g(Axes<true, true, true>{});
    }
  }

  /// Box::minimum_image along one axis: d folded by the box length when
  /// the axis is periodic, untouched otherwise.
  template <bool Periodic>
  static double image(double d, double len) {
    if constexpr (Periodic) d -= std::round(d / len) * len;
    return d;
  }

  /// Minimum-image displacement from slot `a` to slot `b` (rb - ra).
  template <bool PX, bool PY, bool PZ>
  Vec3d displacement(std::size_t a, std::size_t b) const {
    return {image<PX>(x_[b] - x_[a], len_[0]),
            image<PY>(y_[b] - y_[a], len_[1]),
            image<PZ>(z_[b] - z_[a], len_[2])};
  }

  /// Call g(l, r2) for every slot l in [begin, end), in slot order, whose
  /// squared distance r2 from slot k is below radius^2. Distances are taken
  /// a block at a time in a branch-free loop (which the compiler can
  /// vectorize); only the hits pay for the callback.
  template <bool PX, bool PY, bool PZ, typename G>
  void hits(std::size_t k, std::size_t begin, std::size_t end, G&& g) const {
    constexpr std::size_t kBlock = 64;
    const double r2max = radius_ * radius_;
    double r2[kBlock];
    for (std::size_t b = begin; b < end; b += kBlock) {
      const std::size_t e = std::min(end, b + kBlock);
      for (std::size_t l = b; l < e; ++l) {
        r2[l - b] = norm2(displacement<PX, PY, PZ>(k, l));
      }
      for (std::size_t l = b; l < e; ++l) {
        if (r2[l - b] < r2max) g(l, r2[l - b]);
      }
    }
  }

  template <bool PX, bool PY, bool PZ, typename F>
  void neighbors_of(std::size_t i, F& f) const {
    const std::size_t si = atom_slot_[i];
    const std::size_t cell = atom_cell_[i];
    for (std::size_t s = stencil_start_[cell]; s < stencil_start_[cell + 1];
         ++s) {
      const std::size_t cc = stencil_cells_[s];
      hits<PX, PY, PZ>(si, cell_start_[cc], cell_start_[cc + 1],
                       [&](std::size_t k, double r2) {
                         if (k != si) {
                           f(id_[k], displacement<PX, PY, PZ>(si, k), r2);
                         }
                       });
    }
  }

  template <bool PX, bool PY, bool PZ, typename F>
  void pairs(F& f) const {
    for (std::size_t c = 0; c < cell_count(); ++c) {
      const std::size_t end = cell_start_[c + 1];
      for (std::size_t k = cell_start_[c]; k < end; ++k) {
        const std::size_t ik = id_[k];
        hits<PX, PY, PZ>(k, k + 1, end, [&](std::size_t l, double r2) {
          f(ik, id_[l], displacement<PX, PY, PZ>(k, l), r2);
        });
        for (std::size_t s = upper_stencil_[c]; s < stencil_start_[c + 1];
             ++s) {
          const std::size_t cc = stencil_cells_[s];
          hits<PX, PY, PZ>(
              k, cell_start_[cc], cell_start_[cc + 1],
              [&](std::size_t l, double r2) {
                // Report the pair low id first. The reversed displacement
                // is computed as such rather than negated: a zero
                // component must come out +0, as Box::minimum_image(ri, rj)
                // gives it, not -0.
                const std::size_t il = id_[l];
                if (ik < il) {
                  f(ik, il, displacement<PX, PY, PZ>(k, l), r2);
                } else {
                  f(il, ik, displacement<PX, PY, PZ>(l, k), r2);
                }
              });
        }
      }
    }
  }

  double radius_ = 0.0;
  unsigned periodic_mask_ = 0;  ///< bit a set when axis a is periodic
  double len_[3] = {0, 0, 0};   ///< box lengths, as Box::lengths()

  // Cell-ordered atom data: slot k holds atom id_[k] at (x_, y_, z_)[k].
  std::vector<double> x_, y_, z_;
  std::vector<std::size_t> id_;         ///< slot -> atom id
  std::vector<std::size_t> atom_slot_;  ///< atom id -> slot
  std::vector<std::size_t> atom_cell_;  ///< atom id -> flat cell id

  std::vector<std::size_t> cell_start_;     ///< CSR offsets into the slots
  std::vector<std::size_t> stencil_start_;  ///< CSR offsets into stencil_cells_
  std::vector<std::size_t> stencil_cells_;  ///< deduped, ascending cell ids
  std::vector<std::size_t> upper_stencil_;  ///< first stencil entry > cell
};

}  // namespace wsmd::md
