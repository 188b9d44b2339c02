#include "core/wse_md.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wsmd::core {

WseMd::WseMd(const lattice::Structure& s, eam::EamPotentialPtr potential,
             WseMdConfig config)
    : config_(config),
      potential_(std::move(potential)),
      box_(s.box),
      mapping_(AtomMapping::for_structure(s, config.mapping)) {
  WSMD_REQUIRE(potential_ != nullptr, "WseMd needs a potential");
  rcut_ = potential_->cutoff();
  if (config_.tabulated) {
    // The paper's per-core table copies: one FP32 profile shared by every
    // worker (the host simulation holds one copy; the real machine
    // replicates it into each tile's SRAM). Deterministic build — restart
    // and shard decomposition cannot perturb it.
    profile_ = std::make_shared<eam::ProfileF32>(*potential_);
  }
  box_len_f_ = Vec3f(box_.lengths());
  for (std::size_t a = 0; a < 3; ++a) {
    box_periodic_[a] = box_.periodic[a];
    box_inv_len_f_[a] = 1.0f / box_len_f_[a];
    sbox_.len[a] = box_len_f_[a];
    sbox_.inv_len[a] = box_periodic_[a] ? box_inv_len_f_[a] : 0.0f;
  }

  positions_.resize(s.size());
  velocities_.assign(s.size(), Vec3f{0, 0, 0});
  types_ = s.types;
  fprime_.assign(s.size(), 0.0f);
  initial_positions_.resize(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    positions_.set(i, Vec3f(s.positions[i]));
    // Displacement diagnostics are measured against the FP32-rounded
    // state the workers actually hold.
    initial_positions_[i] = Vec3d(positions_.get(i));
  }

  if (config_.b_override > 0) {
    b_ = config_.b_override;
  } else {
    // One extra hop of slack over the initial configuration's exact
    // requirement absorbs thermal motion between swaps.
    b_ = mapping_.required_b(s.positions, rcut_) + 1;
  }
  WSMD_REQUIRE(b_ >= 1, "neighborhood radius must be at least 1");
}

double WseMd::potential_energy() const {
  if (!pe_current_) {
    // Evaluate the initial configuration's energy on demand so thermo
    // snapshots are valid from construction on (the Engine contract)
    // without charging every construction a full force sweep. Phases run
    // on the current positions; nothing is committed, and the first real
    // step resets the workspace anyway. The const_cast only enables
    // calling the non-const density kernel — everything it mutates
    // (ws_, fprime_, pe_, pe_current_) is declared mutable, so this is
    // well-defined even on a const object. Like every WseMd method, not
    // safe to race from multiple threads.
    begin_step(ws_);
    const_cast<WseMd*>(this)->density_phase(full_grid(), ws_);
    force_phase(full_grid(), ws_);
    pe_ = reduce_potential_energy(ws_);
    pe_current_ = true;
  }
  return pe_;
}

void WseMd::adopt_energy(const StepWorkspace& ws) {
  pe_ = reduce_potential_energy(ws);
  pe_current_ = true;
}

double WseMd::reduce_potential_energy(const StepWorkspace& ws) const {
  // Serial row-major reduction of the energy contributions: the summation
  // order (and thus the FP64 result) is independent of how the phases were
  // sharded.
  const int w = mapping_.grid_width();
  const int h = mapping_.grid_height();
  double pe_pair = 0.0, pe_embed = 0.0;
  for (int cy = 0; cy < h; ++cy) {
    for (int cx = 0; cx < w; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      pe_embed += ws.pe_embed[static_cast<std::size_t>(ai)];
    }
  }
  for (int cy = 0; cy < h; ++cy) {
    for (int cx = 0; cx < w; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      pe_pair +=
          0.5 * static_cast<double>(ws.pair_half[static_cast<std::size_t>(ai)]);
    }
  }
  return pe_pair + pe_embed;
}

std::vector<Vec3d> WseMd::positions() const {
  std::vector<Vec3d> out(positions_.size());
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    out[i] = Vec3d(positions_.get(i));
  }
  return out;
}

std::vector<Vec3d> WseMd::velocities() const {
  std::vector<Vec3d> out(velocities_.size());
  for (std::size_t i = 0; i < velocities_.size(); ++i) {
    out[i] = Vec3d(velocities_.get(i));
  }
  return out;
}

void WseMd::set_velocities(const std::vector<Vec3d>& v) {
  WSMD_REQUIRE(v.size() == velocities_.size(), "velocity count mismatch");
  for (std::size_t i = 0; i < v.size(); ++i) velocities_.set(i, Vec3f(v[i]));
}

void WseMd::set_positions(const std::vector<Vec3d>& r) {
  WSMD_REQUIRE(r.size() == positions_.size(), "position count mismatch");
  for (std::size_t i = 0; i < r.size(); ++i) positions_.set(i, Vec3f(r[i]));
  pe_current_ = false;
  // A bare position overwrite (cross-backend transfer, tests) may exceed
  // what the constructed mapping planned for; never shrink b, only widen.
  std::vector<Vec3d> wide(positions_.size());
  for (std::size_t i = 0; i < wide.size(); ++i) {
    wide[i] = Vec3d(positions_.get(i));
  }
  b_ = std::max(b_, mapping_.required_b(wide, rcut_) + 1);
  cache_.expired = true;
}

WseMd::SavedState WseMd::save_state() const {
  SavedState st;
  st.step = step_count_;
  st.elapsed_seconds = elapsed_seconds_;
  st.potential_energy = potential_energy();  // forces the lazy evaluation
  st.positions = positions();
  st.velocities = velocities();
  st.grid_width = mapping_.grid_width();
  st.grid_height = mapping_.grid_height();
  st.b = b_;
  st.core_atoms = mapping_.core_atoms();
  st.initial_positions = initial_positions_;
  return st;
}

void WseMd::restore_state(const SavedState& state) {
  WSMD_REQUIRE(state.positions.size() == positions_.size() &&
                   state.velocities.size() == positions_.size(),
               "restore_state: atom count mismatch ("
                   << state.positions.size() << " vs " << positions_.size()
                   << ")");
  WSMD_REQUIRE(state.grid_width == mapping_.grid_width() &&
                   state.grid_height == mapping_.grid_height(),
               "restore_state: core grid mismatch ("
                   << state.grid_width << "x" << state.grid_height << " vs "
                   << mapping_.grid_width() << "x" << mapping_.grid_height()
                   << ") — was the checkpoint taken from this structure?");
  WSMD_REQUIRE(state.step >= 0, "restore_state: negative step counter");
  WSMD_REQUIRE(state.b >= 1, "restore_state: neighborhood radius < 1");
  WSMD_REQUIRE(state.initial_positions.size() == positions_.size(),
               "restore_state: displacement baseline size mismatch");
  mapping_.restore_assignment(state.core_atoms);
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    positions_.set(i, Vec3f(state.positions[i]));
    velocities_.set(i, Vec3f(state.velocities[i]));
  }
  initial_positions_ = state.initial_positions;
  b_ = state.b;
  step_count_ = state.step;
  elapsed_seconds_ = state.elapsed_seconds;
  // The committed PE carries the wafer thermo convention (energy of the
  // configuration the last step integrated *from*); adopting it keeps the
  // first post-restore thermo row bitwise on the uninterrupted run.
  pe_ = state.potential_energy;
  pe_current_ = true;
  cache_.expired = true;
}

void WseMd::thermalize(double temperature_K, Rng& rng) {
  WSMD_REQUIRE(temperature_K >= 0.0, "temperature must be non-negative");
  Vec3d p_total{0, 0, 0};
  double mass_total = 0.0;
  std::vector<Vec3d> v(velocities_.size());
  for (std::size_t i = 0; i < velocities_.size(); ++i) {
    const double m = potential_->mass(types_[i]);
    const double sigma = std::sqrt(units::kBoltzmann * temperature_K / m *
                                   units::kForceToAccel);
    v[i] = rng.gaussian_vec3(sigma);
    p_total += v[i] * m;
    mass_total += m;
  }
  const Vec3d v_cm = p_total / mass_total;
  for (auto& vi : v) vi -= v_cm;
  set_velocities(v);
}

void WseMd::gather_neighborhood(int cx, int cy,
                                std::vector<std::uint32_t>& out) const {
  out.clear();
  const int w = mapping_.grid_width();
  const int h = mapping_.grid_height();
  // Deterministic candidate order: row-major sweep of the clipped square,
  // mirroring the fixed arrival order of the marching multicast.
  for (int y = std::max(0, cy - b_); y <= std::min(h - 1, cy + b_); ++y) {
    for (int x = std::max(0, cx - b_); x <= std::min(w - 1, cx + b_); ++x) {
      if (x == cx && y == cy) continue;
      const long a = mapping_.atom_at(x, y);
      if (a >= 0) out.push_back(static_cast<std::uint32_t>(a));
    }
  }
}

WseStepStats WseMd::step() { return do_timestep(); }

WseStepStats WseMd::run(int n, const StepCallback& callback) {
  WSMD_REQUIRE(n >= 0, "negative step count");
  WseStepStats last;
  for (int k = 0; k < n; ++k) {
    last = do_timestep();
    if (callback) callback(last);
  }
  return last;
}

ShardRect WseMd::full_grid() const {
  return ShardRect{0, 0, mapping_.grid_width(), mapping_.grid_height()};
}

struct WseMd::SieveScratch {
  std::vector<std::uint32_t> gathered;
  std::vector<std::uint32_t> skin;      ///< skin-sieved row (overflow rows)
  std::vector<std::uint32_t> accepted;  ///< accepted row that does not fit
  std::vector<float> r2;
};

WseMd::SieveScratch& WseMd::sieve_scratch() const {
  // Per thread, sized for the whole (2b+1)^2 neighborhood: grown, never
  // shrunk, so the phase kernels allocate nothing in steady state.
  thread_local SieveScratch s;
  const auto span_cells = static_cast<std::size_t>(2 * b_ + 1);
  const std::size_t cap = span_cells * span_cells - 1 + simd::kPadF32;
  if (s.r2.size() < cap) {
    s.gathered.reserve(cap);
    s.skin.resize(cap);
    s.accepted.resize(cap);
    s.r2.resize(cap);
  }
  return s;
}

std::size_t WseMd::sieve_skin_row(int cx, int cy, std::size_t i,
                                  SieveScratch& s) const {
  gather_neighborhood(cx, cy, s.gathered);
  const double r = rcut_ + kSieveSkin;
  const Vec3f ri = cache_.ref.get(i);
  return simd::kernels().sieve_f32(
      cache_.ref.x(), cache_.ref.y(), cache_.ref.z(), ri.x, ri.y, ri.z,
      s.gathered.data(), s.gathered.size(), sbox_, static_cast<float>(r * r),
      s.skin.data(), s.r2.data());
}

std::size_t WseMd::filter_row(const Vec3f& ri, const std::uint32_t* cand,
                              std::size_t count, std::uint32_t* out,
                              float* r2) const {
  const auto rc2 = static_cast<float>(rcut_ * rcut_);
  if (profile_ != nullptr) {
    return simd::kernels().sieve_f32(positions_.x(), positions_.y(),
                                     positions_.z(), ri.x, ri.y, ri.z, cand,
                                     count, sbox_, rc2, out, r2);
  }
  std::size_t m = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t j = cand[k];
    const Vec3f d = minimum_image_f(ri, positions_.get(j));
    const float d2 = dot(d, d);
    if (d2 >= rc2) continue;
    out[m] = j;
    r2[m] = d2;
    ++m;
  }
  return m;
}

std::size_t WseMd::estimate_sieve_stride() const {
  // Sieve ~1k evenly spaced occupied cores at the skin radius; rows longer
  // than the sample's largest overflow once and grow the stride.
  SieveScratch& s = sieve_scratch();
  const int w = mapping_.grid_width();
  const std::size_t cores = mapping_.core_count();
  const std::size_t every = std::max<std::size_t>(1, cores / 1024);
  std::size_t longest = 0;
  for (std::size_t c = 0; c < cores; c += every) {
    const int cx = static_cast<int>(c % static_cast<std::size_t>(w));
    const int cy = static_cast<int>(c / static_cast<std::size_t>(w));
    const long a = mapping_.atom_at(cx, cy);
    if (a < 0) continue;
    longest = std::max(
        longest, sieve_skin_row(cx, cy, static_cast<std::size_t>(a), s));
  }
  return longest;
}

void WseMd::start_sieve_epoch() const {
  const std::size_t n = positions_.size();
  cache_.ref = positions_;
  if (cache_.stride == 0) {
    // The reference is what the sample sieves against.
    const std::size_t longest = estimate_sieve_stride();
    cache_.stride = (longest + simd::kPadF32 + simd::kLanesF32 - 1) /
                    simd::kLanesF32 * simd::kLanesF32;
  }
  cache_.idx.reserve_uninit(n * cache_.stride);
  cache_.count.resize(n);
  cache_.gathered.resize(n);
  cache_.epoch_of.resize(n);
  ++cache_.epoch;
  ++cache_.builds;
  telemetry::count("wse.cache_rebuilds");
  // FP32 margin of the trigger: every subtraction in the two sieves and
  // in the displacement rounds by at most FLT_EPSILON times the largest
  // coordinate (or box length) it touches, and the r^2 sums add a few
  // FLT_EPSILON of r. With M that magnitude at the build, grown by the
  // skin for the epoch's motion, 8 FLT_EPSILON (M + skin + 2 (rcut +
  // skin)) covers both pair distances and both displacements with room
  // to spare.
  float coord = 0.0f;
  for (std::size_t a = 0; a < 3; ++a) {
    const float* p = a == 0 ? cache_.ref.x()
                            : (a == 1 ? cache_.ref.y() : cache_.ref.z());
    for (std::size_t i = 0; i < n; ++i) {
      coord = std::max(coord, std::fabs(p[i]));
    }
    if (box_periodic_[a]) coord = std::max(coord, box_len_f_[a]);
  }
  const double margin =
      8.0 * FLT_EPSILON *
      (static_cast<double>(coord) + kSieveSkin + 2.0 * (rcut_ + kSieveSkin));
  const double trigger = 0.5 * kSieveSkin - margin;
  cache_.trigger2 =
      trigger > 0.0 ? static_cast<float>(trigger * trigger) : -1.0f;
  cache_.expired = false;
}

void WseMd::refresh_sieve_cache() const {
  const std::size_t n = positions_.size();
  if (cache_.stride > 0 && !cache_.count.empty()) {
    // A row longer than the stride could hold was filtered from scratch:
    // grow to fit it (and every row like it) and rebuild.
    const std::uint32_t longest =
        *std::max_element(cache_.count.begin(), cache_.count.end());
    if (longest + simd::kPadF32 > cache_.stride) {
      cache_.stride = (longest + simd::kPadF32 + simd::kLanesF32 - 1) /
                      simd::kLanesF32 * simd::kLanesF32;
      cache_.expired = true;
    }
  }
  if (!cache_.expired) {
    // Displacement trigger: FP32 minimum image against the reference. One
    // step never moves an atom half a box, so a single fold suffices.
    bool moved = false;
    const float* px = positions_.x();
    const float* py = positions_.y();
    const float* pz = positions_.z();
    const float* rx = cache_.ref.x();
    const float* ry = cache_.ref.y();
    const float* rz = cache_.ref.z();
    float len[3], half[3];
    for (std::size_t a = 0; a < 3; ++a) {
      len[a] = box_periodic_[a] ? box_len_f_[a] : 0.0f;
      half[a] = box_periodic_[a] ? 0.5f * box_len_f_[a] : FLT_MAX;
    }
    const auto fold = [](float d, float l, float h) {
      return d > h ? d - l : (d < -h ? d + l : d);
    };
    const float t2 = cache_.trigger2;
    for (std::size_t i = 0; i < n; ++i) {
      const float dx = fold(px[i] - rx[i], len[0], half[0]);
      const float dy = fold(py[i] - ry[i], len[1], half[1]);
      const float dz = fold(pz[i] - rz[i], len[2], half[2]);
      moved |= dx * dx + dy * dy + dz * dz > t2;
    }
    cache_.expired = moved;
  }
  if (cache_.expired) start_sieve_epoch();
}

void WseMd::begin_step(StepWorkspace& ws) const {
  telemetry::ScopedSpan span("wse.begin");
  const std::size_t n = positions_.size();
  refresh_sieve_cache();
  ws.neighbor_stride = cache_.stride;
  ws.neighbor_idx.reserve_uninit(n * ws.neighbor_stride);
  ws.neighbor_count.assign(n, 0);
  ws.candidates.assign(n, 0);
  ws.pe_embed.assign(n, 0.0);
  ws.pair_half.assign(n, 0.0f);
  ws.cycles.assign(n, 0.0);
  ws.new_positions = positions_;
  ws.new_velocities = velocities_;
  ws.partner.resize(mapping_.core_count());
}

void WseMd::density_phase(const ShardRect& shard, StepWorkspace& ws) {
  telemetry::ScopedSpan span("wse.density");
  const eam::ProfileF32* prof = profile_.get();
  const bool pairwise_only = potential_->is_pairwise_only();
  const simd::KernelTable& kern = simd::kernels();
  eam::ProfileF32::Raw raw{};
  if (prof != nullptr) raw = prof->raw();
  SieveScratch& s = sieve_scratch();
  const std::size_t stride = cache_.stride;
  std::uint64_t examined = 0;
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      const auto i = static_cast<std::size_t>(ai);
      std::uint32_t* cached = cache_.idx.data() + i * stride;
      const std::uint32_t* cand = cached;
      std::size_t nc = cache_.count[i];
      if (cache_.epoch_of[i] != cache_.epoch) {
        // First touch this epoch: gather the whole neighborhood once and
        // keep what passes the skin sieve.
        nc = sieve_skin_row(cx, cy, i, s);
        cache_.count[i] = static_cast<std::uint32_t>(nc);
        cache_.gathered[i] = static_cast<std::uint32_t>(s.gathered.size());
        examined += s.gathered.size();
        if (nc + simd::kPadF32 <= stride) {
          std::memcpy(cached, s.skin.data(), nc * sizeof(std::uint32_t));
          cache_.epoch_of[i] = cache_.epoch;
        } else {
          cand = s.skin.data();  // overflow: next begin_step grows
        }
      }
      examined += nc;
      ws.candidates[i] = cache_.gathered[i];
      // Accepted ids are a subset of the candidates, so a row whose
      // candidates fit the stride fits too; otherwise filter into scratch
      // and keep the result only if it fits after all.
      std::uint32_t* own = ws.neighbor_idx.data() + i * stride;
      const bool fits = nc + simd::kPadF32 <= stride;
      std::uint32_t* row = fits ? own : s.accepted.data();
      const Vec3f ri = positions_.get(i);
      const std::size_t m = filter_row(ri, cand, nc, row, s.r2.data());
      if (!fits && m + simd::kPadF32 <= stride) {
        std::memcpy(own, row, m * sizeof(std::uint32_t));
      }
      ws.neighbor_count[i] = static_cast<std::uint32_t>(m);
      float rho = 0.0f;
      if (!pairwise_only) {
        if (prof != nullptr) {
          // One 8-wide table sweep over the survivors.
          rho = kern.rho_row_f32(raw, types_.data(), row, s.r2.data(), m);
        } else {
          for (std::size_t k = 0; k < m; ++k) {
            rho += static_cast<float>(potential_->density(
                types_[row[k]], std::sqrt(static_cast<double>(s.r2[k]))));
          }
        }
      }
      if (pairwise_only) {
        ws.pe_embed[i] = 0.0;
        fprime_[i] = 0.0f;
      } else if (prof != nullptr) {
        float f, fp;
        prof->embed(types_[i], rho, f, fp);
        ws.pe_embed[i] = f;
        fprime_[i] = fp;
      } else {
        ws.pe_embed[i] = potential_->embed(types_[i], rho);
        fprime_[i] =
            static_cast<float>(potential_->embed_deriv(types_[i], rho));
      }
    }
  }
  telemetry::count("wse.host_examined", examined);
}

void WseMd::force_phase(const ShardRect& shard, StepWorkspace& ws) const {
  telemetry::ScopedSpan span("wse.force");
  // F' of every neighborhood is available now, as after the embedding
  // exchange on the real machine.
  const auto dt = static_cast<float>(config_.dt);
  const eam::ProfileF32* prof = profile_.get();
  const bool pairwise_only = potential_->is_pairwise_only();
  const simd::KernelTable& kern = simd::kernels();
  eam::ProfileF32::Raw raw{};
  if (prof != nullptr) raw = prof->raw();
  const float* px = positions_.x();
  const float* py = positions_.y();
  const float* pz = positions_.z();
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      const auto i = static_cast<std::size_t>(ai);
      const Vec3f ri = positions_.get(i);
      const float fprime_i = fprime_[i];
      const int ti = types_[i];
      const std::uint32_t* row =
          ws.neighbor_idx.data() + i * ws.neighbor_stride;
      std::uint32_t m = ws.neighbor_count[i];
      if (m + simd::kPadF32 > ws.neighbor_stride) {
        // Overflow row: the density phase could not store its accepted
        // ids; derive them again exactly as it did.
        SieveScratch& s = sieve_scratch();
        const std::size_t nc = sieve_skin_row(cx, cy, i, s);
        m = static_cast<std::uint32_t>(filter_row(
            ri, s.skin.data(), nc, s.accepted.data(), s.r2.data()));
        row = s.accepted.data();
      }
      Vec3f force{0, 0, 0};
      float pair_acc = 0.0f;
      if (prof != nullptr) {
        // Batched force row: re-gathers neighbor positions and recomputes
        // the sieve's displacement bitwise, then 8-wide table sweeps.
        const simd::PairAccumF32 acc = kern.force_row_f32(
            raw, px, py, pz, ri.x, ri.y, ri.z, sbox_, types_.data(),
            fprime_.data(), fprime_i, ti, row, m, pairwise_only);
        force = Vec3f{acc.fx, acc.fy, acc.fz};
        pair_acc = acc.phi;
      } else {
        for (std::uint32_t k = 0; k < m; ++k) {
          const std::uint32_t j = row[k];
          const Vec3f d = minimum_image_f(ri, positions_.get(j));
          const float r2 = dot(d, d);
          const double rd = std::sqrt(static_cast<double>(r2));
          pair_acc += static_cast<float>(potential_->pair(ti, types_[j], rd));
          float fmag =
              static_cast<float>(potential_->pair_deriv(ti, types_[j], rd));
          if (!pairwise_only) {
            fmag += fprime_i * static_cast<float>(
                                   potential_->density_deriv(types_[j], rd)) +
                    fprime_[j] * static_cast<float>(
                                     potential_->density_deriv(ti, rd));
          }
          force += d * (fmag / static_cast<float>(rd));
        }
      }
      ws.pair_half[i] = pair_acc;

      const auto inv_m = static_cast<float>(
          1.0 / potential_->mass(types_[i]) * units::kForceToAccel);
      const Vec3f a = force * inv_m;
      const Vec3f v_new = velocities_.get(i) + a * dt;
      ws.new_velocities.set(i, v_new);
      ws.new_positions.set(i, Vec3f(box_.wrap(Vec3d(ri + v_new * dt))));

      // Cycle accounting for this worker's timestep.
      ws.cycles[i] = config_.cost_model.timestep_cycles(
          static_cast<double>(ws.candidates[i]), static_cast<double>(m));
    }
  }
}

bool WseMd::commit_step(StepWorkspace& ws) {
  telemetry::ScopedSpan span("wse.commit");
  positions_.swap(ws.new_positions);
  velocities_.swap(ws.new_velocities);

  pe_ = reduce_potential_energy(ws);
  pe_current_ = true;
  ++step_count_;

  // Reduce the accounting now, before a phase-5 swap reorders the row-major
  // sweep, so stats match the serial engine's historical reduction order.
  ws.reduced = reduce_region(full_grid(), ws);

  return config_.swap_interval > 0 && step_count_ % config_.swap_interval == 0;
}

void WseMd::swap_select(const ShardRect& shard,
                        std::vector<int>& partner) const {
  telemetry::ScopedSpan span("wse.swap_select");
  // Paper Sec. III-D, first exchange: workers see neighbors' atom state and
  // score the best greedy swap. Empty tiles participate ("atoms at
  // infinity"). Reads only committed positions and the mapping; writes only
  // the region's partner slots, so disjoint shards are thread-safe.
  WSMD_REQUIRE(partner.size() == mapping_.core_count(),
               "partner array must cover every core");
  const int w = mapping_.grid_width();
  const int h = mapping_.grid_height();
  const int radius = 1;  // greedy swaps with immediate neighbors

  auto disp = [&](long atom, const CoreCoord& c) {
    if (atom < 0) return 0.0;
    const Vec3d nom = mapping_.nominal_position(c);
    const Vec3d lg = mapping_.logical_xy(
        Vec3d(positions_.get(static_cast<std::size_t>(atom))));
    return std::max(std::fabs(lg.x - nom.x), std::fabs(lg.y - nom.y));
  };

  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const CoreCoord me{cx, cy};
      const long a = mapping_.atom_at(cx, cy);
      double best_gain = 1e-9;
      int best = -1;
      for (int dy = -radius; dy <= radius; ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const int nx = cx + dx, ny = cy + dy;
          if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
          const CoreCoord other{nx, ny};
          const long bt = mapping_.atom_at(nx, ny);
          if (a < 0 && bt < 0) continue;
          const double before = std::max(disp(a, me), disp(bt, other));
          const double after = std::max(disp(a, other), disp(bt, me));
          const double gain = before - after;
          if (gain > best_gain) {
            best_gain = gain;
            best = ny * w + nx;
          }
        }
      }
      partner[static_cast<std::size_t>(cy) * w + cx] = best;
    }
  }
}

std::size_t WseMd::swap_commit(const std::vector<int>& partner) {
  telemetry::ScopedSpan span("wse.swap_commit");
  // Second exchange: chosen partner ids cross the fabric; mutual agreement
  // commits the swap. Serial — it mutates the mapping.
  WSMD_REQUIRE(partner.size() == mapping_.core_count(),
               "partner array must cover every core");
  const int w = mapping_.grid_width();
  const int h = mapping_.grid_height();
  std::size_t applied = 0;
  for (int cy = 0; cy < h; ++cy) {
    for (int cx = 0; cx < w; ++cx) {
      const int me = cy * w + cx;
      const int p = partner[static_cast<std::size_t>(me)];
      if (p < 0 || p <= me) continue;  // each pair handled once
      if (partner[static_cast<std::size_t>(p)] != me) continue;
      const CoreCoord ca{cx, cy};
      const CoreCoord cb{p % w, p / w};
      mapping_.swap_atoms(ca, cb);
      ++applied;
    }
  }
  // Candidate order follows the mapping: moved atoms expire the cache.
  if (applied > 0) cache_.expired = true;
  return applied;
}

WseStepStats WseMd::reduce_region(const ShardRect& shard,
                                  const StepWorkspace& ws) const {
  WseStepStats stats;
  RunningStats cycles;
  double cand_total = 0.0, inter_total = 0.0;
  std::size_t occupied = 0;
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      const auto i = static_cast<std::size_t>(ai);
      cycles.add(ws.cycles[i]);
      cand_total += static_cast<double>(ws.candidates[i]);
      inter_total += static_cast<double>(ws.neighbor_count[i]);
      ++occupied;
    }
  }
  if (occupied > 0) {
    const auto n = static_cast<double>(occupied);
    stats.mean_candidates = cand_total / n;
    stats.mean_interactions = inter_total / n;
  }
  stats.max_cycles = cycles.max();
  stats.mean_cycles = cycles.mean();
  stats.stddev_cycles = cycles.stddev();
  return stats;
}

void WseMd::begin_step_region(StepWorkspace& ws) const {
  telemetry::ScopedSpan span("wse.begin");
  const std::size_t n = positions_.size();
  refresh_sieve_cache();
  ws.neighbor_stride = cache_.stride;
  // Uninitialized rows and resize (not assign) of the per-atom arrays:
  // slots outside the caller's regions keep stale values nobody reads;
  // slots inside are written by the phases before any read. The rows a
  // rank never builds are never touched.
  ws.neighbor_idx.reserve_uninit(n * ws.neighbor_stride);
  ws.neighbor_count.resize(n);
  ws.candidates.resize(n);
  ws.pe_embed.resize(n);
  ws.pair_half.resize(n);
  ws.cycles.resize(n);
  ws.new_positions.resize(n);
  ws.new_velocities.resize(n);
  ws.partner.resize(mapping_.core_count());
}

WseMd::RegionEnergy WseMd::reduce_region_energy(const ShardRect& shard,
                                                const StepWorkspace& ws) const {
  RegionEnergy pe;
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      pe.embed += ws.pe_embed[static_cast<std::size_t>(ai)];
    }
  }
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      pe.pair +=
          0.5 * static_cast<double>(ws.pair_half[static_cast<std::size_t>(ai)]);
    }
  }
  return pe;
}

WseMd::RegionAccounting WseMd::reduce_region_raw(const ShardRect& shard,
                                                 const StepWorkspace& ws) const {
  RegionAccounting acc;
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      const auto i = static_cast<std::size_t>(ai);
      acc.candidate_total += static_cast<double>(ws.candidates[i]);
      acc.interaction_total += static_cast<double>(ws.neighbor_count[i]);
      acc.cycles_sum += ws.cycles[i];
      acc.cycles_sq_sum += ws.cycles[i] * ws.cycles[i];
      acc.cycles_max = std::max(acc.cycles_max, ws.cycles[i]);
      ++acc.occupied;
    }
  }
  return acc;
}

bool WseMd::commit_region(const ShardRect& shard, StepWorkspace& ws,
                          RegionEnergy& pe) {
  telemetry::ScopedSpan span("wse.commit");
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      const auto i = static_cast<std::size_t>(ai);
      positions_.set(i, ws.new_positions.get(i));
      velocities_.set(i, ws.new_velocities.get(i));
    }
  }
  pe = reduce_region_energy(shard, ws);
  ++step_count_;
  return config_.swap_interval > 0 && step_count_ % config_.swap_interval == 0;
}

double WseMd::kinetic_energy_region(const ShardRect& shard) const {
  double mv2 = 0.0;
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      const auto i = static_cast<std::size_t>(ai);
      mv2 += potential_->mass(types_[i]) * norm2(Vec3d(velocities_.get(i)));
    }
  }
  return 0.5 * mv2 * units::kMv2ToEnergy;
}

WseStepStats WseMd::finish_step(const StepWorkspace& ws,
                                std::size_t swaps_applied, bool swapped) {
  WseStepStats stats = ws.reduced;
  stats.step = step_count_;
  stats.swaps_applied = swaps_applied;
  stats.swapped = swapped;
  // Workers synchronize through the neighborhood exchanges, so the slowest
  // worker sets the array step time (paper Sec. V-B).
  stats.wall_seconds =
      stats.max_cycles / (config_.cost_model.clock_ghz() * 1e9);
  if (stats.swapped) {
    // A swap costs roughly one timestep (paper Sec. V-E).
    stats.wall_seconds *= 2.0;
  }
  elapsed_seconds_ += stats.wall_seconds;
  cum_.candidate_step_sum += stats.mean_candidates;
  cum_.interaction_step_sum += stats.mean_interactions;
  if (stats.swapped) {
    ++cum_.swap_steps;
    telemetry::count("wse.swap_steps");
    telemetry::count("wse.swaps_applied", stats.swaps_applied);
  }
  telemetry::count("wse.steps");
  if (telemetry::enabled()) {
    // Totals across all occupied cores (the reductions report per-core
    // means): the counters the snapshot stream differentiates into
    // pairs/sec and candidates/sec throughput series.
    const double n = static_cast<double>(atom_count());
    telemetry::count("wse.interactions", static_cast<std::uint64_t>(
                                             stats.mean_interactions * n + 0.5));
    telemetry::count("wse.candidates", static_cast<std::uint64_t>(
                                           stats.mean_candidates * n + 0.5));
  }
  return stats;
}

WseStepStats WseMd::do_timestep() {
  begin_step(ws_);
  const ShardRect all = full_grid();
  density_phase(all, ws_);
  force_phase(all, ws_);
  const bool swap_now = commit_step(ws_);
  std::size_t applied = 0;
  if (swap_now) {
    swap_select(all, ws_.partner);
    applied = swap_commit(ws_.partner);
  }
  return finish_step(ws_, applied, swap_now);
}

double WseMd::kinetic_energy() const {
  double mv2 = 0.0;
  for (std::size_t i = 0; i < velocities_.size(); ++i) {
    mv2 += potential_->mass(types_[i]) * norm2(Vec3d(velocities_.get(i)));
  }
  return 0.5 * mv2 * units::kMv2ToEnergy;
}

void WseMd::scramble_mapping(Rng& rng, int count) {
  const int w = mapping_.grid_width();
  const int h = mapping_.grid_height();
  for (int k = 0; k < count; ++k) {
    const int x1 = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(w)));
    const int y1 = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(h)));
    const int x2 = std::min(w - 1, x1 + static_cast<int>(rng.uniform_index(3)));
    const int y2 = std::min(h - 1, y1 + static_cast<int>(rng.uniform_index(3)));
    mapping_.swap_atoms({x1, y1}, {x2, y2});
  }
  cache_.expired = true;
}

double WseMd::assignment_cost() const {
  double worst = 0.0;
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    worst =
        std::max(worst, mapping_.displacement(i, Vec3d(positions_.get(i))));
  }
  return worst;
}

double WseMd::max_inplane_displacement() const {
  double worst = 0.0;
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const Vec3d d = Vec3d(positions_.get(i)) - initial_positions_[i];
    worst = std::max(worst, std::max(std::fabs(d.x), std::fabs(d.y)));
  }
  return worst;
}

}  // namespace wsmd::core
