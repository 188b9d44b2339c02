/// \file bench_observables.cpp
/// Observable sampling cost at production slab sizes: RDF, CSP (defect
/// analysis) and one extended-XYZ trajectory frame on a ~200k-atom Cu slab
/// — the three per-step output kernels of an observed run.
///
/// The point of the streaming-observables subsystem is that analysis must
/// scale like the stencil sweep does — a probe that costs minutes per
/// sample would put the paper's Fig. 2 science out of reach again. Both
/// probes ride the shared md::CellList, so one sample is O(N); this bench
/// pins that claim with wall-clock numbers and emits them as
/// BENCH_observables.json for the CI bench-regression gate (which warns on
/// deviation — shared-runner clocks are noisy — and fails only when a
/// probe row disappears).
///
///   bench_observables [--atoms=N]
///
/// --atoms targets the slab size (default 200,000; the paper slab aspect
/// ratio is kept, thickness fixed at 6 unit cells like Table I).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "eam/zhou.hpp"
#include "io/xyz.hpp"
#include "lattice/lattice.hpp"
#include "md/analysis.hpp"
#include "md/cell_list.hpp"
#include "obs/factory.hpp"
#include "obs/rdf.hpp"
#include "util/bench_json.hpp"
#include "util/string_util.hpp"

namespace {

using namespace wsmd;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t target_atoms = 200000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--atoms=", 8) == 0) {
      target_atoms = static_cast<std::size_t>(std::atol(argv[i] + 8));
    } else {
      std::fprintf(stderr, "usage: bench_observables [--atoms=N]\n");
      return 1;
    }
  }

  const auto params = eam::zhou_parameters("Cu");
  const double a0 = params.lattice_constant();
  // Thin slab, paper Table I thickness (6 cells), near-square in x-y.
  const int nz = 6;
  const int nx = static_cast<int>(std::lround(
      std::sqrt(static_cast<double>(target_atoms) / (4.0 * nz))));
  const auto cell = lattice::UnitCell::fcc(a0);
  const auto slab = lattice::replicate(cell, nx, nx, nz);
  std::printf("observable cost @ %s atoms (Cu slab %d x %d x %d)\n",
              with_commas(static_cast<long long>(slab.size())).c_str(), nx,
              nx, nz);

  BenchJson bench("observables");
  bench.meta()
      .set("element", "Cu")
      .set("atoms", slab.size())
      .set("nx", nx)
      .set("nz", nz);

  // RDF: one cell-list histogram sample at the default (1.8 a0) range.
  {
    obs::RdfProbe::Config config;
    config.rcut = 1.8 * a0;
    config.bins = 200;
    config.path = "bench_observables.rdf.csv";
    obs::RdfProbe probe(config);
    obs::Frame frame;
    frame.box = &slab.box;
    frame.positions = &slab.positions;
    const auto t0 = std::chrono::steady_clock::now();
    probe.sample(frame);
    const double rdf_s = seconds_since(t0);
    probe.finish();
    const double rate = static_cast<double>(slab.size()) / rdf_s;
    std::printf("  rdf sample:  %8.3f s  (%.3g atoms/s, rcut %.3g A)\n",
                rdf_s, rate, config.rcut);
    bench.add_row()
        .set("probe", "rdf")
        .set("seconds", rdf_s)
        .set("atoms_per_s", rate);
    std::remove(config.path.c_str());
  }

  // CSP: the full defect analysis (cell list + greedy opposite-bond
  // pairing), the kernel behind the defect/grain-boundary probe.
  {
    const auto t0 = std::chrono::steady_clock::now();
    const auto analysis =
        md::analyze_structure(slab.box, slab.positions, 1.2 * a0, 12);
    const double csp_s = seconds_since(t0);
    std::size_t defects = 0;
    for (const bool d : md::defective_atoms(analysis, 1.0)) {
      if (d) ++defects;
    }
    const double rate = static_cast<double>(slab.size()) / csp_s;
    std::printf("  csp sample:  %8.3f s  (%.3g atoms/s, %zu surface/defect "
                "atoms)\n",
                csp_s, rate, defects);
    bench.add_row()
        .set("probe", "csp")
        .set("seconds", csp_s)
        .set("atoms_per_s", rate);
  }

  // XYZ: one trajectory frame, formatted into memory so the row measures
  // the writer rather than the disk.
  {
    const std::vector<std::string> names = {"Cu"};
    std::ostringstream os;
    const auto t0 = std::chrono::steady_clock::now();
    io::write_xyz_frame(os, slab, names, "step=0");
    const double xyz_s = seconds_since(t0);
    const double rate = static_cast<double>(slab.size()) / xyz_s;
    std::printf("  xyz frame:   %8.3f s  (%.3g atoms/s, %zu bytes)\n", xyz_s,
                rate, os.str().size());
    bench.add_row()
        .set("probe", "xyz")
        .set("seconds", xyz_s)
        .set("atoms_per_s", rate);
  }

  const auto path = bench.write();
  std::printf("  json -> %s\n", path.c_str());
  return 0;
}
