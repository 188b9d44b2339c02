#include "md/cell_list.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace wsmd::md {

void CellList::require_min_image(const Box& box, double cutoff) {
  for (std::size_t a = 0; a < 3; ++a) {
    if (box.periodic[a]) {
      WSMD_REQUIRE(box.length(static_cast<int>(a)) >= 2.0 * cutoff,
                   "periodic box length " << box.length(static_cast<int>(a))
                                          << " < 2*cutoff " << 2.0 * cutoff
                                          << " on axis " << a);
    }
  }
}

void CellList::build(const Box& box, const std::vector<Vec3d>& positions,
                     double radius) {
  WSMD_REQUIRE(radius > 0.0, "cell-list radius must be positive");
  WSMD_REQUIRE(!positions.empty(), "cannot build a cell list for zero atoms");
  radius_ = radius;
  periodic_mask_ = 0;
  const Vec3d box_len = box.lengths();
  for (std::size_t a = 0; a < 3; ++a) {
    if (box.periodic[a]) periodic_mask_ |= 1u << a;
    len_[a] = box_len[a];
  }
  const std::size_t n = positions.size();

  // Extent pass. A non-finite coordinate is rejected here, before binning
  // turns it into an out-of-range float->int conversion.
  Vec3d mn = positions[0], mx = positions[0];
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3d& r = positions[i];
    WSMD_REQUIRE(std::isfinite(r.x) && std::isfinite(r.y) &&
                     std::isfinite(r.z),
                 "non-finite position for atom " << i << " (" << r.x << ", "
                                                 << r.y << ", " << r.z
                                                 << ")");
    for (std::size_t a = 0; a < 3; ++a) {
      mn[a] = std::min(mn[a], r[a]);
      mx[a] = std::max(mx[a], r[a]);
    }
  }

  // Binning region: periodic axes use the box, open axes the atom extrema.
  Vec3d lo = box.lo, hi = box.hi;
  for (std::size_t a = 0; a < 3; ++a) {
    if (box.periodic[a]) continue;
    lo[a] = mn[a] - 1e-9;
    hi[a] = mx[a] + 1e-9;
  }
  int ncell[3];
  double cell_edge[3];
  for (std::size_t a = 0; a < 3; ++a) {
    const double len = hi[a] - lo[a];
    ncell[a] = std::max(1, static_cast<int>(std::floor(len / radius)));
    cell_edge[a] = len / ncell[a];
  }

  const std::size_t total_cells = static_cast<std::size_t>(ncell[0]) *
                                  static_cast<std::size_t>(ncell[1]) *
                                  static_cast<std::size_t>(ncell[2]);

  // Bin atoms (counting sort into CSR keeps per-cell atoms in index order,
  // which makes traversal deterministic), then lay the coordinates out in
  // that cell order.
  atom_cell_.resize(n);
  cell_start_.assign(total_cells + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    int c[3];
    for (std::size_t a = 0; a < 3; ++a) {
      double x = positions[i][a] - lo[a];
      if (box.periodic[a]) {
        const double len = hi[a] - lo[a];
        x -= std::floor(x / len) * len;
      }
      c[a] = std::clamp(static_cast<int>(std::floor(x / cell_edge[a])), 0,
                        ncell[a] - 1);
    }
    const std::size_t flat =
        (static_cast<std::size_t>(c[2]) * ncell[1] + c[1]) * ncell[0] + c[0];
    atom_cell_[i] = flat;
    ++cell_start_[flat + 1];
  }
  for (std::size_t c = 0; c < total_cells; ++c) {
    cell_start_[c + 1] += cell_start_[c];
  }
  x_.resize(n);
  y_.resize(n);
  z_.resize(n);
  id_.resize(n);
  atom_slot_.resize(n);
  {
    std::vector<std::size_t> cursor(cell_start_.begin(),
                                    cell_start_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = cursor[atom_cell_[i]]++;
      x_[k] = positions[i].x;
      y_[k] = positions[i].y;
      z_[k] = positions[i].z;
      id_[k] = i;
      atom_slot_[i] = k;
    }
  }

  // Precompute each cell's deduplicated 27-stencil. With < 3 cells along a
  // periodic axis the wrapped offsets collide; sort+unique keeps each
  // neighbor cell exactly once so queries never double-visit an atom.
  stencil_start_.assign(total_cells + 1, 0);
  upper_stencil_.resize(total_cells);
  stencil_cells_.clear();
  stencil_cells_.reserve(total_cells * 27);
  std::size_t scratch[27];
  for (std::size_t cell = 0; cell < total_cells; ++cell) {
    const int cx = static_cast<int>(cell % static_cast<std::size_t>(ncell[0]));
    const int cy = static_cast<int>(
        (cell / static_cast<std::size_t>(ncell[0])) %
        static_cast<std::size_t>(ncell[1]));
    const int cz = static_cast<int>(cell / (static_cast<std::size_t>(ncell[0]) *
                                            static_cast<std::size_t>(ncell[1])));
    std::size_t count = 0;
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          int cc[3] = {cx + dx, cy + dy, cz + dz};
          bool skip = false;
          for (std::size_t a = 0; a < 3; ++a) {
            if (box.periodic[a]) {
              cc[a] = (cc[a] + ncell[a]) % ncell[a];
            } else if (cc[a] < 0 || cc[a] >= ncell[a]) {
              skip = true;
              break;
            }
          }
          if (skip) continue;
          scratch[count++] =
              (static_cast<std::size_t>(cc[2]) * ncell[1] + cc[1]) *
                  ncell[0] +
              cc[0];
        }
      }
    }
    std::sort(scratch, scratch + count);
    const std::size_t unique_count =
        static_cast<std::size_t>(std::unique(scratch, scratch + count) -
                                 scratch);
    stencil_cells_.insert(stencil_cells_.end(), scratch,
                          scratch + unique_count);
    stencil_start_[cell + 1] = stencil_cells_.size();
    upper_stencil_[cell] = stencil_start_[cell] +
        static_cast<std::size_t>(
            std::upper_bound(scratch, scratch + unique_count, cell) - scratch);
  }
}

}  // namespace wsmd::md
