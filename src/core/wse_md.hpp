#pragma once

/// \file wse_md.hpp
/// The wafer-scale MD engine: one atom per core (paper Secs. III-A..III-D).
///
/// Each core is a worker owning at most one atom (id, position, velocity,
/// FP32 — the paper's wafer kernels run single precision) plus local copies
/// of the potential tables. A timestep executes the paper's five phases:
///
///   1. Candidate exchange — multicast positions through the (2b+1)^2
///      neighborhood (systolic marching multicast; the wavelet-level
///      schedule is validated in src/wse, and this engine performs the
///      equivalent gather functionally while charging cycles from the
///      calibrated cost model);
///   2. Neighbor list — r^2 against rcut^2, candidates arriving in
///      deterministic order;
///   3. Embedding — accumulate rho_i, evaluate F_i and F'_i, and exchange
///      F' with the neighborhood (it enters the force on other atoms);
///   4. Force + leap-frog integration (paper Eqs. 4-5);
///   5. Atom swap — optional greedy remapping every `swap_interval` steps
///      (paper Sec. III-D), with empty tiles ("atoms at infinity")
///      participating so atoms can migrate across cores.
///
/// Physics equivalence with the FP64 reference engine (src/md) is enforced
/// by the integration tests; performance comes from wse::CostModel.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/mapping.hpp"
#include "eam/potential.hpp"
#include "eam/profile.hpp"
#include "lattice/lattice.hpp"
#include "md/simd.hpp"
#include "util/random.hpp"
#include "util/soa.hpp"
#include "util/stats.hpp"
#include "wse/cost_model.hpp"

namespace wsmd::core {

struct WseMdConfig {
  double dt = 0.002;  ///< ps (paper: 2 fs)
  /// Perform the greedy atom-swap remap every this many steps (0 = never).
  int swap_interval = 0;
  /// Mapping construction parameters (cell size defaults to ~8 atoms per
  /// column when zero; pass the lattice constant for crystal workloads).
  MappingConfig mapping;
  /// Cycle/time accounting model.
  wse::CostModel cost_model = wse::CostModel::paper_baseline();
  /// Neighborhood radius override; 0 derives the radius from the mapping
  /// (required_b plus one hop of slack for thermal motion).
  int b_override = 0;
  /// Evaluate the phase-2..4 kernels from a flattened FP32 r²-indexed
  /// PotentialProfile (eam/profile) — the paper's per-core table copies —
  /// instead of virtual potential calls with a per-pair sqrt. Built once at
  /// construction; deterministic, so checkpoint restore and serial-vs-
  /// sharded parity are unaffected. `false` keeps the analytic path
  /// (scenario key `potential = analytic`).
  bool tabulated = true;
};

/// Per-step accounting, mirroring the counters the paper reports.
struct WseStepStats {
  long step = 0;                   ///< step index this snapshot belongs to
  double mean_candidates = 0.0;    ///< exchanged candidate atoms per worker
  double mean_interactions = 0.0;  ///< neighbor-list entries per worker
  double max_cycles = 0.0;         ///< slowest worker (sets the step time)
  double mean_cycles = 0.0;
  double stddev_cycles = 0.0;
  double wall_seconds = 0.0;       ///< modeled step time (max worker)
  bool swapped = false;
  std::size_t swaps_applied = 0;
};

/// Rectangular core region, half-open: x in [x0, x1), y in [y0, y1).
/// The phase kernels below operate on one region at a time; engine backends
/// (src/engine) tile the grid into disjoint shards and run them on
/// concurrent threads.
struct ShardRect {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;
  bool empty() const { return x1 <= x0 || y1 <= y0; }
};

/// Heap array whose elements start uninitialized. A rank process touches
/// only the rows of its own strip (plus ghost rows), so the pages of the
/// other rows are never faulted in; std::vector's value-initializing
/// resize would zero-fill — and commit — all of them in every rank.
template <typename T>
class RawArray {
 public:
  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }
  /// Keep the storage when it already holds `n` elements; otherwise free
  /// it before allocating the new block (contents are not preserved).
  void reserve_uninit(std::size_t n) {
    if (n <= size_) return;
    data_.reset();
    data_.reset(new T[n]);
    size_ = n;
  }

 private:
  std::unique_ptr<T[]> data_;
  std::size_t size_ = 0;
};

/// Reusable per-step buffers for the phase kernels. Every array is indexed
/// by atom id except `partner` (indexed by core id, used by the atom-swap
/// phase). Each atom is owned by exactly one core, so kernels running on
/// disjoint shards never write the same slot — the workspace is safe to
/// share across threads within one step.
struct StepWorkspace {
  // Phase 1-3 outputs. The accepted-neighbor lists live in one flat
  // fixed-stride buffer (row i at neighbor_idx[i * neighbor_stride], length
  // neighbor_count[i]) whose stride is the sieve cache's (see WseMd): a row
  // accepts a subset of its cached candidates, so it fits whenever the
  // cached row did. A row that overflowed the cache at its build may not
  // fit; its count then exceeds neighbor_stride - kPadF32 and force_phase
  // re-derives it. Only indices are stored — at paper scale (800k atoms)
  // caching per-neighbor displacements would cost gigabytes, so the force
  // phase re-gathers.
  RawArray<std::uint32_t> neighbor_idx;       ///< accepted candidates, flat
  std::vector<std::uint32_t> neighbor_count;  ///< accepted per atom
  std::size_t neighbor_stride = 0;            ///< row capacity (incl. pad)
  /// Modeled candidates per worker: the atoms of its whole (2b+1)^2
  /// neighborhood, what the wafer multicasts and filters every step —
  /// not the shorter cached list the host filters.
  std::vector<std::uint32_t> candidates;
  std::vector<double> pe_embed;               ///< F(rho_i) per atom
  // Phase 4 outputs.
  std::vector<float> pair_half;   ///< sum_j phi_ij before the 1/2 factor
  std::vector<double> cycles;     ///< cost-model cycles per worker
  Vec3fPlanes new_positions;
  Vec3fPlanes new_velocities;
  // Phase 5 (atom swap) scratch: chosen partner core id or -1, per core.
  std::vector<int> partner;
  // Full-grid accounting reduced by commit_step (before any swap perturbs
  // the row-major reduction order); finalized by finish_step.
  WseStepStats reduced;
};

class WseMd {
 public:
  WseMd(const lattice::Structure& s, eam::EamPotentialPtr potential,
        WseMdConfig config = {});

  std::size_t atom_count() const { return positions_.size(); }
  const AtomMapping& mapping() const { return mapping_; }
  int b() const { return b_; }
  const WseMdConfig& config() const { return config_; }

  /// FP32-held atom state, widened for inspection.
  std::vector<Vec3d> positions() const;
  std::vector<Vec3d> velocities() const;
  /// Overwrite velocities (e.g. copied from the reference engine so both
  /// integrate the same trajectory).
  void set_velocities(const std::vector<Vec3d>& v);
  /// Overwrite positions (FP32-rounded); invalidates the cached potential
  /// energy. When the new positions have drifted from the mapping (e.g. a
  /// cross-backend state transfer), widen b so the candidate exchange
  /// still covers every interacting pair.
  void set_positions(const std::vector<Vec3d>& r);

  /// Complete dynamic state for checkpoint/restart: the FP32 atom state
  /// (widened exactly to FP64), the step counter and modeled clock, the
  /// atom-to-core assignment as mutated by online swaps, the neighborhood
  /// radius (derived from the initial structure, not recoverable mid-run),
  /// the committed potential energy (thermo reports the *pre-step* PE — a
  /// recompute from current positions would not reproduce it), and the
  /// displacement-diagnostic baseline.
  struct SavedState {
    long step = 0;
    double elapsed_seconds = 0.0;
    double potential_energy = 0.0;
    std::vector<Vec3d> positions;
    std::vector<Vec3d> velocities;
    int grid_width = 0;
    int grid_height = 0;
    int b = 0;
    std::vector<long> core_atoms;
    std::vector<Vec3d> initial_positions;
  };

  SavedState save_state() const;

  /// Restore a snapshot taken from an identically-built engine (same
  /// structure, potential, mapping config). The continued trajectory is
  /// bitwise identical to the uninterrupted run at any shard count.
  /// Throws on atom-count or core-grid mismatch.
  void restore_state(const SavedState& state);

  /// Maxwell-Boltzmann initialization at T (FP32-rounded).
  void thermalize(double temperature_K, Rng& rng);

  /// Advance one timestep; returns the accounting.
  WseStepStats step();

  /// Advance n steps; returns the last step's stats. `callback`, when set,
  /// fires after every step (mirrors md::Simulation::run so the two engines
  /// can be driven identically).
  using StepCallback = std::function<void(const WseStepStats&)>;
  WseStepStats run(int n, const StepCallback& callback = {});

  /// --- Phase-kernel interface -------------------------------------------
  /// One timestep decomposes into the paper's five phases, exposed here so
  /// engine backends (src/engine) can run them shard-parallel:
  ///
  ///   begin_step(ws);
  ///   density_phase(shard, ws)   for disjoint shards covering the grid;
  ///   --- barrier (F' of every neighborhood must be published) ---
  ///   force_phase(shard, ws)     for disjoint shards covering the grid;
  ///   --- barrier ---
  ///   bool swap = commit_step(ws);
  ///   if (swap) { swap_select(shard, ws.partner)  for disjoint shards;
  ///               --- barrier ---
  ///               applied = swap_commit(ws.partner); }
  ///   stats = finish_step(ws, applied, swap);
  ///
  /// The kernels write only per-atom workspace slots (and fprime_) owned by
  /// cores inside `shard`, so disjoint shards may run on concurrent
  /// threads. Candidate arrival order per worker is a row-major sweep of
  /// its neighborhood regardless of sharding, and all cross-worker
  /// reductions happen serially in commit/finish in row-major core order —
  /// results are bitwise independent of the shard decomposition.

  /// The whole grid as one region (the serial decomposition).
  ShardRect full_grid() const;

  /// Size workspace buffers and seed new_positions/new_velocities; expire
  /// the sieve cache when its trigger fires (see below).
  void begin_step(StepWorkspace& ws) const;

  /// Phases 1-3: candidate exchange, neighbor list, embedding density;
  /// publishes fprime_ for the region's atoms.
  ///
  /// The wafer filters every candidate of the (2b+1)^2 neighborhood every
  /// step; the host filters a per-core sieve cache instead. Row i of the
  /// cache holds, in candidate-arrival order, the gathered candidates that
  /// passed the same sieve kernel at (rcut + kSieveSkin)^2 against the
  /// positions of the last build, plus the geometric count
  /// (ws.candidates, the modeled figure). Each step filters only the
  /// cached row at rcut^2 — sieve_f32 on the tabulated path, the
  /// per-candidate minimum_image_f test on the analytic path.
  ///
  /// Bitwise argument: the accept test is element-wise, so sieving an
  /// ordered superset of the accepted candidates yields the same ids in
  /// the same order with bitwise the same r^2 as sieving the whole
  /// neighborhood — the density/force sums, trajectories, thermo and
  /// checkpoints cannot change. The cache is a superset while no atom has
  /// moved more than skin/2 since the build: a pair at r >= rcut + skin
  /// then stays at r > rcut. begin_step expires the cache as soon as any
  /// atom's FP32 minimum-image displacement exceeds skin/2 minus an FP32
  /// margin of 8 FLT_EPSILON (M + skin + 2 (rcut + skin)), M the largest
  /// |coordinate| or periodic box length at the build, which bounds the
  /// rounding of the two sieves' and the displacement's subtractions
  /// (1e-4 A for a 100 A box). A swap that moved an atom, scramble_mapping,
  /// set_positions and restore_state (mapping or b changed) expire it too.
  /// Rows are rebuilt lazily, inside the density phase of the region that
  /// owns them, so shards and ranks rebuild in parallel and may expire at
  /// different steps without any effect on the results.
  ///
  /// Storage: rows are keyed by atom id at a stride of the largest cached
  /// row seen + kPadF32 (rounded up to the lane width; the first build
  /// sizes it from a sample of cores). A row that does not fit is filtered
  /// from scratch that step and the next begin_step grows the stride and
  /// rebuilds. Per atom: 2 x 4 bytes x stride (cache row + accepted row)
  /// plus 24 bytes of counts, build epoch and reference position. For the
  /// Cu slab at 290 K (rcut 4.96 A; the 54 atoms out to the 4th shell at
  /// 5.11 A sit inside the skin) the stride settles at 64-72, ~600 bytes
  /// per atom, against 1.2 kB for the one full (2b+1)^2-1+pad = 296-id
  /// row the accepted list needed at b = 8 before the cache.
  void density_phase(const ShardRect& shard, StepWorkspace& ws);

  /// Phase 4: force evaluation + leap-frog integration into the workspace
  /// (requires fprime_ of all neighborhoods, i.e. a barrier after the
  /// density phase).
  void force_phase(const ShardRect& shard, StepWorkspace& ws) const;

  /// Swap in the integrated state, accumulate the potential energy, and
  /// advance the step counter. Returns true when this step is an atom-swap
  /// step (phase 5 still pending).
  bool commit_step(StepWorkspace& ws);

  /// Phase 5a: each core in the region picks its best greedy swap partner
  /// (reads committed positions; writes only the region's partner slots).
  /// `partner` must be sized core_count().
  void swap_select(const ShardRect& shard, std::vector<int>& partner) const;

  /// Phase 5b: mutual choices commit (serial; mutates the mapping).
  std::size_t swap_commit(const std::vector<int>& partner);

  /// Reduce per-worker accounting over a core region in row-major order.
  /// Fills the candidate/interaction/cycle fields only (no clock update).
  WseStepStats reduce_region(const ShardRect& shard,
                             const StepWorkspace& ws) const;

  /// --- Region-scoped stepping (src/dist) --------------------------------
  /// A distributed rank runs the phase kernels over only its own core
  /// strip (plus ghost halos exchanged out-of-band), so the full-grid
  /// begin/commit/reduce above would waste O(N) work per rank per step and
  /// read workspace slots that were never written. These variants touch
  /// only what a region step defines.

  /// Size the workspace buffers without seeding them from the full current
  /// state (no O(N) copies of the atom state). Every slot the phase
  /// kernels read for a region atom is written earlier in the same step,
  /// so undefined slots outside the caller's regions are never observed.
  /// The row buffers are allocated uninitialized, so a rank commits only
  /// the pages of the rows it builds. The sieve-cache trigger still scans
  /// all N positions (three floats per atom; atoms the rank never receives
  /// keep their stale positions and never fire it), and an expiry copies
  /// them as the new reference.
  void begin_step_region(StepWorkspace& ws) const;

  /// Partial FP64 energy sums over one region, each accumulated in
  /// row-major core order (embedding and pair kept separate so a
  /// coordinator can combine partials in a fixed rank order).
  struct RegionEnergy {
    double embed = 0.0;
    double pair = 0.0;
  };
  RegionEnergy reduce_region_energy(const ShardRect& shard,
                                    const StepWorkspace& ws) const;

  /// Raw (unnormalized) accounting partials over one region, combinable
  /// across disjoint regions without loss: sums, sum of squares, max and
  /// occupied-core count instead of the means reduce_region reports.
  struct RegionAccounting {
    double candidate_total = 0.0;
    double interaction_total = 0.0;
    double cycles_sum = 0.0;
    double cycles_sq_sum = 0.0;
    double cycles_max = 0.0;
    std::uint64_t occupied = 0;
  };
  RegionAccounting reduce_region_raw(const ShardRect& shard,
                                     const StepWorkspace& ws) const;

  /// Commit the integrated state for the region's atoms only (copy, not
  /// the serial path's full-array swap) and advance the step counter. The
  /// cached full-grid potential energy is left untouched — a rank never
  /// holds the full energy; the coordinator combines the partials returned
  /// through `pe`. Returns true when this step is an atom-swap step.
  bool commit_region(const ShardRect& shard, StepWorkspace& ws,
                     RegionEnergy& pe);

  /// Kinetic energy partial over the region's atoms, row-major core order.
  double kinetic_energy_region(const ShardRect& shard) const;

  /// Displacement baseline (what save_state stores), without forcing the
  /// lazy energy evaluation save_state performs.
  const std::vector<Vec3d>& initial_positions() const {
    return initial_positions_;
  }

  /// Embedding-derivative plane, exchanged across rank halos between the
  /// density and force phases (mutable derived state, republished every
  /// step).
  std::vector<float>& fprime() { return fprime_; }
  /// FP32 atom state planes, written directly by the halo unpack (the
  /// exchanged values are exactly the FP32 state the owner holds, so this
  /// is a bitwise transfer, not a round-trip through FP64).
  Vec3fPlanes& positions_f32() { return positions_; }
  Vec3fPlanes& velocities_f32() { return velocities_; }

  /// Final serial reduction: full-grid stats, modeled wall time (doubled on
  /// swap steps, paper Sec. V-E), and the cumulative clock.
  WseStepStats finish_step(const StepWorkspace& ws, std::size_t swaps_applied,
                           bool swapped);

  /// Total potential energy (eV, FP32 sums). Valid from construction on:
  /// before the first step it is evaluated lazily from the current
  /// positions (mirroring md::Simulation's on-demand forces); afterwards
  /// it is the value reduced by the last commit.
  double potential_energy() const;

  /// True while potential_energy() would run its lazy serial evaluation
  /// (after construction or set_positions).
  bool energy_pending() const { return !pe_current_; }

  /// Adopt the energy of the current positions from a workspace whose
  /// begin_step, density and force phases just covered the whole grid —
  /// the same row-major reduction as the lazy evaluation, so a backend can
  /// run those phases in parallel and get the bitwise same value.
  void adopt_energy(const StepWorkspace& ws);

  /// Sieve-cache skin (A). An internal constant picked by measurement:
  /// wider skins expire less often but cache and filter more ids per row.
  static constexpr double kSieveSkin = 0.5;

  /// Sieve-cache builds since construction (every expiry counts one).
  std::uint64_t sieve_cache_builds() const { return cache_.builds; }

  /// Kinetic energy of the current (half-step) velocities (eV).
  double kinetic_energy() const;

  /// Current assignment cost C(g) in Angstrom (paper Fig. 9 metric).
  double assignment_cost() const;

  /// Degrade the mapping with `count` random local swaps. Fig. 9-style
  /// experiments start "from a sub-optimal initial mapping" and watch the
  /// online atom swaps recover it.
  void scramble_mapping(Rng& rng, int count);

  /// Largest in-plane (max-norm) displacement of any atom from its initial
  /// position (the black curve of paper Fig. 9).
  double max_inplane_displacement() const;

  long step_count() const { return step_count_; }

  /// Cumulative modeled wall time (s) and cycles since construction.
  double elapsed_seconds() const { return elapsed_seconds_; }

  /// Run totals accumulated by finish_step, for cost-model breakdowns of a
  /// whole run (engine::ModeledPhaseCost): sums over steps of the per-step
  /// mean per-worker candidate/interaction counts, plus how many steps
  /// applied an atom swap.
  struct CumulativeStats {
    double candidate_step_sum = 0.0;    ///< sum of mean_candidates
    double interaction_step_sum = 0.0;  ///< sum of mean_interactions
    long swap_steps = 0;
  };
  const CumulativeStats& cumulative_stats() const { return cum_; }

  /// The flattened FP32 evaluation tables (null on the analytic path).
  const eam::ProfileF32* profile() const { return profile_.get(); }

 private:
  void gather_neighborhood(int cx, int cy,
                           std::vector<std::uint32_t>& out) const;
  WseStepStats do_timestep();

  /// FP32 minimum-image displacement rj - ri (analytic path; the tabulated
  /// path runs the batched sieve instead). The candidate loops run this for
  /// every gathered candidate, so it stays entirely in FP32. nearbyint —
  /// not round — so the correction matches the SIMD kernels' round-half-
  /// even `_mm256_round_ps` convention.
  Vec3f minimum_image_f(const Vec3f& ri, const Vec3f& rj) const {
    Vec3f d = rj - ri;
    for (std::size_t a = 0; a < 3; ++a) {
      if (!box_periodic_[a]) continue;
      d[a] -= std::nearbyint(d[a] * box_inv_len_f_[a]) * box_len_f_[a];
    }
    return d;
  }
  /// Row-major serial PE reduction over the phase outputs (shared by
  /// commit_step and the construction-time energy evaluation).
  double reduce_potential_energy(const StepWorkspace& ws) const;

  /// Per-thread scratch of the sieve-cache kernels.
  struct SieveScratch;
  SieveScratch& sieve_scratch() const;
  /// begin_step's cache upkeep: grow the stride after an overflowing row,
  /// expire on the displacement trigger, start a new build epoch.
  void refresh_sieve_cache() const;
  /// Start a build epoch: new reference positions and trigger threshold;
  /// the first build also sizes the stride.
  void start_sieve_epoch() const;
  /// Sample-based first stride (largest cached row among ~1k cores).
  std::size_t estimate_sieve_stride() const;
  /// Gather core (cx, cy)'s neighborhood and sieve it at the skin radius
  /// against the reference positions into s.skin. Returns the count.
  std::size_t sieve_skin_row(int cx, int cy, std::size_t i,
                             SieveScratch& s) const;
  /// The per-step accept test at rcut^2 over a candidate list: survivors
  /// (ids and r^2) compacted in order into out / r2 (capacity count + pad).
  std::size_t filter_row(const Vec3f& ri, const std::uint32_t* cand,
                         std::size_t count, std::uint32_t* out,
                         float* r2) const;

  WseMdConfig config_;
  eam::EamPotentialPtr potential_;
  eam::ProfileF32Ptr profile_;  ///< set when config_.tabulated
  Box box_;
  // FP32 copies of the box geometry for the per-candidate minimum image.
  Vec3f box_len_f_{0, 0, 0};
  Vec3f box_inv_len_f_{0, 0, 0};
  std::array<bool, 3> box_periodic_{false, false, false};
  /// Branch-free box view for the SIMD sieve (inv_len = 0 on open axes).
  simd::BoxF32 sbox_{{0, 0, 0}, {0, 0, 0}};
  AtomMapping mapping_;
  int b_ = 1;
  double rcut_ = 0.0;

  // FP32 per-atom state, split into x/y/z planes for the batched kernels.
  Vec3fPlanes positions_;
  Vec3fPlanes velocities_;
  std::vector<int> types_;
  // Embedding derivative, exchanged per step. Mutable: the lazy initial
  // potential_energy() evaluation republishes it from a const context
  // (it is derived state, recomputed every step from positions).
  mutable std::vector<float> fprime_;
  std::vector<Vec3d> initial_positions_;

  // Lazily evaluated before the first step (potential_energy() const).
  mutable double pe_ = 0.0;
  mutable bool pe_current_ = false;
  long step_count_ = 0;
  double elapsed_seconds_ = 0.0;
  CumulativeStats cum_;

  /// The sieve cache (see density_phase). Mutable like ws_: the lazy
  /// energy evaluation fills it from a const context.
  struct SieveCache {
    RawArray<std::uint32_t> idx;        ///< row i at idx[i * stride]
    std::vector<std::uint32_t> count;   ///< cached ids per row
    std::vector<std::uint32_t> gathered;  ///< geometric candidates per row
    std::vector<std::uint32_t> epoch_of;  ///< epoch each row was built in
    Vec3fPlanes ref;                    ///< positions at the epoch start
    std::size_t stride = 0;             ///< 0 until the first build
    std::uint32_t epoch = 0;            ///< rows with epoch_of != epoch rebuild
    bool expired = true;
    float trigger2 = 0.0f;  ///< (skin/2 - FP32 margin)^2, < 0 = always
    std::uint64_t builds = 0;
  };
  mutable SieveCache cache_;

  /// Workspace reused by the serial step()/run() path and the lazy initial
  /// energy evaluation (engine backends own their own and drive the phase
  /// kernels directly); begin_step fully resets it each use.
  mutable StepWorkspace ws_;
};

}  // namespace wsmd::core
