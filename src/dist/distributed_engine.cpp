#include "dist/distributed_engine.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "dist/rank_worker.hpp"
#include "dist/shm_channel.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wsmd::dist {

namespace {

constexpr int kHandshakeTimeoutMs = 30'000;
constexpr int kShutdownTimeoutMs = 2'000;

}  // namespace

DistributedEngine::DistributedEngine(const lattice::Structure& s,
                                     eam::EamPotentialPtr potential,
                                     DistributedConfig config)
    : config_(std::move(config)),
      template_(s, std::move(potential), config_.wse),
      scratch_(config_.scratch_parent) {
  WSMD_REQUIRE(config_.ranks >= 1 && config_.ranks <= kMaxRanks,
               "ranks backend needs 1.." << kMaxRanks << " ranks, got "
                                         << config_.ranks);
  WSMD_REQUIRE(config_.threads >= 1,
               "ranks backend needs >= 1 shard threads per rank, got "
                   << config_.threads);
  WSMD_REQUIRE(saved_state_bytes(template_.atom_count(),
                                  template_.mapping().core_count()) <=
                   kMaxFrameBytes,
               "ranks backend: the state of " << template_.atom_count()
                   << " atoms does not fit one " << kMaxFrameBytes
                   << "-byte frame");
  const int m = config_.ranks;
  strips_ = row_strips(template_.mapping().grid_width(),
                       template_.mapping().grid_height(), m);
  last_steps_.assign(static_cast<std::size_t>(m), 0);
  prev_.resize(static_cast<std::size_t>(m));
  cum_load_.resize(static_cast<std::size_t>(m));

  spawn_ranks();
  try {
    for (int r = 0; r < m; ++r) {
      const auto& ch = control_[static_cast<std::size_t>(r)];
      Handshake hello;
      try {
        hello = ch.recv_pod<Handshake>(Tag::kHello, kHandshakeTimeoutMs);
      } catch (const TransportError& e) {
        rank_failed(r, std::string("handshake failed: ") + e.what());
      }
      WSMD_REQUIRE(hello.rank == r && hello.world == m &&
                       hello.atoms == template_.atom_count() &&
                       hello.grid_width == template_.mapping().grid_width() &&
                       hello.grid_height == template_.mapping().grid_height(),
                   "dist: handshake mismatch from rank " << r);
      ch.send_pod(Tag::kHelloAck, hello, kHandshakeTimeoutMs);
    }
    // Seed the cached energies: PE of the initial configuration evaluated
    // *distributed* (the serial lazy sweep would defeat the decomposition
    // at multi-million atoms), KE of the (zero or restored) velocities.
    refresh_potential_energy();
    refresh_kinetic_energy();
  } catch (...) {
    shutdown_ranks();
    throw;
  }
}

DistributedEngine::~DistributedEngine() { shutdown_ranks(); }

void DistributedEngine::spawn_ranks() {
  const int m = config_.ranks;
  std::vector<ChannelPair> controls(static_cast<std::size_t>(m));
  for (auto& pair : controls) pair = make_channel_pair();

  // One link per halo pair — a canary socketpair plus a shared segment —
  // created *before* forking: the ranks inherit the live mappings, and
  // because each segment is shm_unlinked inside its constructor, no
  // /dev/shm entry survives this loop, let alone a crashed rank. Pairs
  // come from the state-exchange radius b+1 (a superset of the F' pairs at
  // radius b); slots are sized for the largest message either direction
  // can carry — rows x grid width is an upper bound on halo atoms, swaps
  // included.
  struct Link {
    ChannelPair canary;
    ShmPairSegment segment;
  };
  std::vector<Link> links;
  const int b = template_.b();
  const int w = template_.mapping().grid_width();
  const long coordinator_pid = static_cast<long>(::getpid());
  for (const auto& [i, j] : halo_pairs(strips_, b + 1)) {
    std::size_t slot_bytes = 64;
    for (const auto& [owner, needer] :
         {std::pair<int, int>{i, j}, std::pair<int, int>{j, i}}) {
      const std::size_t fp_rows = static_cast<std::size_t>(
          halo_rows(strips_, owner, needer, b).rows());
      const std::size_t st_rows = static_cast<std::size_t>(
          halo_rows(strips_, owner, needer, b + 1).rows());
      slot_bytes = std::max(
          {slot_bytes, fp_rows * static_cast<std::size_t>(w) * 4,
           st_rows * static_cast<std::size_t>(w) * 24});
    }
    links.push_back(Link{make_channel_pair(),
                         ShmPairSegment(coordinator_pid, i, j, slot_bytes)});
  }

  for (int r = 0; r < m; ++r) {
    const pid_t pid = ::fork();
    WSMD_REQUIRE(pid >= 0, "dist: fork failed for rank " << r);
    if (pid == 0) {
      // --- rank process ------------------------------------------------
      // The coordinator owns interrupt handling; ranks exit when their
      // control socket EOFs, so a signal racing the teardown protocol
      // would only make shutdown messier.
      ::signal(SIGINT, SIG_IGN);
      ::signal(SIGTERM, SIG_IGN);
      // Rank-suffixed stderr capture: concurrent ranks never interleave
      // into the coordinator's stream, and the runner can copy the files
      // into a diagnostic bundle on failure.
      const std::string log = scratch_.rank_file("stderr", r);
      const int log_fd =
          ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, 2);
        ::close(log_fd);
      }
      // Keep only this rank's channel ends; every other inherited fd is
      // closed so peer death is observable as EOF, and other pairs'
      // mappings are dropped so their memory frees with its two owners.
      Channel control = std::move(controls[static_cast<std::size_t>(r)].b);
      for (int q = 0; q < m; ++q) {
        controls[static_cast<std::size_t>(q)].a.close();
        if (q != r) controls[static_cast<std::size_t>(q)].b.close();
      }
      std::vector<PeerLink> my_peers;
      for (auto& link : links) {
        const int i = link.segment.rank_i(), j = link.segment.rank_j();
        if (i == r || j == r) {
          PeerLink peer;
          peer.rank = i == r ? j : i;
          peer.canary = std::move(i == r ? link.canary.a : link.canary.b);
          peer.shm = link.segment.halo_for(r);
          my_peers.push_back(std::move(peer));
        }
        link.canary.a.close();
        link.canary.b.close();
        if (i != r && j != r) link.segment.unmap();
      }
      RankWorkerConfig wc;
      wc.rank = r;
      wc.world = m;
      wc.threads = config_.threads;
      wc.peer_timeout_ms = config_.step_timeout_ms;
      wc.kill_rank = config_.kill_rank;
      wc.kill_step = config_.kill_step;
      try {
        RankWorker worker(template_, wc, std::move(control),
                          std::move(my_peers));
        worker.run();  // never returns
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[wsmd rank %d] fatal during setup: %s\n", r,
                     e.what());
        std::_Exit(1);
      }
    }
    pids_.push_back(pid);
  }
  control_.reserve(static_cast<std::size_t>(m));
  for (auto& pair : controls) {
    pair.b.close();
    control_.push_back(std::move(pair.a));
  }
  // `links` destructs here: the coordinator's copies of every canary fd
  // close, and its mappings go away, leaving each pair's socket and
  // segment alive exactly as long as its two ranks hold them.
}

void DistributedEngine::shutdown_ranks() noexcept {
  for (std::size_t r = 0; r < control_.size(); ++r) {
    if (!control_[r].valid()) continue;
    try {
      control_[r].send_pod(Tag::kShutdown, Ack{step_count_},
                           kShutdownTimeoutMs);
    } catch (...) {
    }
  }
  for (std::size_t r = 0; r < control_.size(); ++r) {
    if (!control_[r].valid()) continue;
    try {
      control_[r].recv(Tag::kBye, kShutdownTimeoutMs);
    } catch (...) {
    }
    control_[r].close();  // EOF backstop for a rank stuck mid-protocol
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  for (const pid_t pid : pids_) {
    if (pid <= 0) continue;
    for (;;) {
      int status = 0;
      const pid_t got = ::waitpid(pid, &status, WNOHANG);
      if (got == pid || (got < 0 && errno == ECHILD)) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  pids_.clear();
}

void DistributedEngine::rank_failed(int rank, const std::string& why) const {
  std::string msg = "rank ";
  msg += std::to_string(rank);
  msg += "/";
  msg += std::to_string(config_.ranks);
  msg += " failed: ";
  msg += why;
  msg += " (last known steps:";
  for (const long s : last_steps_) {
    msg += ' ';
    msg += std::to_string(s);
  }
  msg += ")";
  throw RankFailureError(rank, last_steps_, msg);
}

void DistributedEngine::broadcast(Tag tag, const void* payload,
                                  std::size_t size) const {
  for (std::size_t r = 0; r < control_.size(); ++r) {
    try {
      control_[r].send(tag, payload, size, config_.step_timeout_ms);
    } catch (const TransportError& e) {
      rank_failed(static_cast<int>(r), e.what());
    }
  }
}

template <typename T>
std::vector<T> DistributedEngine::collect(Tag tag) const {
  std::vector<T> replies;
  replies.reserve(control_.size());
  for (std::size_t r = 0; r < control_.size(); ++r) {
    try {
      replies.push_back(control_[r].recv_pod<T>(tag, config_.step_timeout_ms));
    } catch (const TransportError& e) {
      rank_failed(static_cast<int>(r), e.what());
    }
  }
  return replies;
}

void DistributedEngine::refresh_potential_energy() {
  broadcast(Tag::kEvalPe, nullptr, 0);
  const auto partials = collect<EnergyPartial>(Tag::kPePartial);
  double embed = 0.0, pair = 0.0;
  for (const auto& p : partials) {
    embed += p.embed;
    pair += p.pair;
  }
  pe_ = embed + pair;
}

void DistributedEngine::refresh_kinetic_energy() {
  broadcast(Tag::kKinetic, nullptr, 0);
  const auto partials = collect<KineticPartial>(Tag::kKePartial);
  double ke = 0.0;
  for (const auto& p : partials) ke += p.kinetic;
  ke_ = ke;
}

engine::Thermo DistributedEngine::step() {
  const Ack cmd{step_count_};
  broadcast(Tag::kStep, &cmd, sizeof(cmd));

  const bool swap_now =
      config_.wse.swap_interval > 0 &&
      (step_count_ + 1) % config_.wse.swap_interval == 0;
  std::size_t applied = 0;
  if (swap_now) {
    // Merge each rank's strip of partner choices into one full core array
    // (strips tile the grid, so every slot has exactly one owner), apply
    // the same deterministic swap commit the ranks apply, and broadcast.
    const int w = template_.mapping().grid_width();
    std::vector<std::int32_t> merged(template_.mapping().core_count(), -1);
    for (std::size_t r = 0; r < control_.size(); ++r) {
      std::vector<std::int32_t> slice;
      try {
        const auto bytes =
            control_[r].recv(Tag::kSwapPartners, config_.step_timeout_ms);
        Unpacker u(bytes);
        slice = u.get_array<std::int32_t>();
      } catch (const TransportError& e) {
        rank_failed(static_cast<int>(r), e.what());
      }
      const auto& strip = strips_[r];
      const auto lo =
          static_cast<std::size_t>(strip.y0) * static_cast<std::size_t>(w);
      WSMD_REQUIRE(slice.size() == static_cast<std::size_t>(strip.y1 -
                                                            strip.y0) *
                                       static_cast<std::size_t>(w),
                   "dist: partner slice size mismatch from rank " << r);
      std::copy(slice.begin(), slice.end(),
                merged.begin() + static_cast<std::ptrdiff_t>(lo));
    }
    Packer p;
    p.put_array(merged.data(), merged.size());
    broadcast(Tag::kSwapMerged, p.bytes().data(), p.bytes().size());
    std::vector<int> partner(merged.begin(), merged.end());
    applied = template_.swap_commit(partner);
  }

  const auto records = collect<StepRecord>(Tag::kStepDone);
  ++step_count_;

  // Fixed rank-order reductions: embed partials first, then pair partials,
  // matching the serial engine's embed-then-pair grouping.
  double embed = 0.0, pair = 0.0, ke = 0.0;
  double cand = 0.0, inter = 0.0, cycles_max = 0.0;
  std::uint64_t occupied = 0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const StepRecord& rec = records[r];
    WSMD_REQUIRE(rec.step == step_count_,
                 "dist: rank " << r << " is at step " << rec.step
                               << ", coordinator at " << step_count_);
    WSMD_REQUIRE((rec.swapped != 0) == swap_now,
                 "dist: rank " << r << " disagrees on the swap schedule");
    embed += rec.pe_embed;
    ke += rec.kinetic;
    cand += rec.candidate_total;
    inter += rec.interaction_total;
    cycles_max = std::max(cycles_max, rec.cycles_max);
    occupied += rec.occupied;
  }
  for (const StepRecord& rec : records) pair += rec.pe_pair;
  if (swap_now && !records.empty()) {
    WSMD_REQUIRE(records[0].swaps_applied == applied,
                 "dist: swap count diverged between coordinator ("
                     << applied << ") and ranks ("
                     << records[0].swaps_applied << ")");
  }
  pe_ = embed + pair;
  ke_ = ke;

  const double mean_candidates =
      occupied > 0 ? cand / static_cast<double>(occupied) : 0.0;
  const double mean_interactions =
      occupied > 0 ? inter / static_cast<double>(occupied) : 0.0;
  double wall =
      cycles_max / (config_.wse.cost_model.clock_ghz() * 1e9);
  if (swap_now) wall *= 2.0;  // a swap costs ~one extra step (Sec. V-E)
  elapsed_seconds_ += wall;
  cum_.candidate_step_sum += mean_candidates;
  cum_.interaction_step_sum += mean_interactions;
  if (swap_now) {
    ++cum_.swap_steps;
    telemetry::count("wse.swap_steps");
    telemetry::count("wse.swaps_applied", applied);
  }
  telemetry::count("wse.steps");
  if (telemetry::enabled()) {
    const double n = static_cast<double>(atom_count());
    telemetry::count("wse.interactions",
                     static_cast<std::uint64_t>(mean_interactions * n + 0.5));
    telemetry::count("wse.candidates",
                     static_cast<std::uint64_t>(mean_candidates * n + 0.5));
  }

  // Per-rank accounting deltas -> shard_load() and the dist.* spans.
  double d_pack = 0.0, d_wire = 0.0, d_unpack = 0.0, d_barrier = 0.0;
  double d_overlap = 0.0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const StepRecord& rec = records[r];
    const StepRecord& prev = prev_[r];
    const double busy = rec.busy_seconds - prev.busy_seconds;
    const double pack = rec.halo_pack_seconds - prev.halo_pack_seconds;
    const double wire =
        rec.halo_exchange_seconds - prev.halo_exchange_seconds;
    const double unpack = rec.halo_unpack_seconds - prev.halo_unpack_seconds;
    const double barrier = rec.barrier_seconds - prev.barrier_seconds;
    cum_load_[r].busy_seconds += busy;
    // A rank "waits" when it is idle between coordinator commands or
    // blocked on a peer's halo slab — the rank-level barrier picture.
    cum_load_[r].wait_seconds += barrier + wire;
    d_pack += pack;
    d_wire += wire;
    d_unpack += unpack;
    d_barrier += barrier;
    d_overlap +=
        rec.overlap_compute_seconds - prev.overlap_compute_seconds;
    prev_[r] = rec;
    last_steps_[r] = rec.step;
  }
  if (telemetry::enabled()) {
    const auto m = static_cast<std::uint64_t>(records.size());
    telemetry::add_span_time("dist.halo_pack", d_pack, m);
    telemetry::add_span_time("dist.halo_exchange", d_wire, m);
    telemetry::add_span_time("dist.halo_unpack", d_unpack, m);
    telemetry::add_span_time("dist.barrier", d_barrier, m);
    telemetry::add_span_time("dist.overlap_compute", d_overlap, m);
  }
  return thermo();
}

engine::Thermo DistributedEngine::thermo() const {
  engine::Thermo t;
  t.step = step_count_;
  t.potential_energy = pe_;
  t.kinetic_energy = ke_;
  t.total_energy = pe_ + ke_;
  t.temperature = 2.0 * ke_ /
                  (3.0 * static_cast<double>(template_.atom_count()) *
                   units::kBoltzmann);
  return t;
}

void DistributedEngine::gather_state(std::vector<Vec3d>& pos,
                                     std::vector<Vec3d>& vel) const {
  pos.resize(template_.atom_count());
  vel.resize(template_.atom_count());
  broadcast(Tag::kGatherState, nullptr, 0);
  for (std::size_t r = 0; r < control_.size(); ++r) {
    std::vector<float> values;
    try {
      const auto bytes =
          control_[r].recv(Tag::kStateSlice, config_.step_timeout_ms);
      Unpacker u(bytes);
      values = u.get_array<float>();
    } catch (const TransportError& e) {
      rank_failed(static_cast<int>(r), e.what());
    }
    const auto atoms = atoms_in_rows(template_.mapping(), strips_[r].y0,
                                     strips_[r].y1);
    WSMD_REQUIRE(values.size() == atoms.size() * 6,
                 "dist: state slice size mismatch from rank " << r);
    for (std::size_t k = 0; k < atoms.size(); ++k) {
      const float* v6 = values.data() + k * 6;
      // float -> double widening is exact: the gathered state is the
      // bitwise FP32 state the owning rank holds.
      pos[atoms[k]] = Vec3d(Vec3f{v6[0], v6[1], v6[2]});
      vel[atoms[k]] = Vec3d(Vec3f{v6[3], v6[4], v6[5]});
    }
  }
}

std::vector<Vec3d> DistributedEngine::positions() const {
  std::vector<Vec3d> pos, vel;
  gather_state(pos, vel);
  return pos;
}

std::vector<Vec3d> DistributedEngine::velocities() const {
  std::vector<Vec3d> pos, vel;
  gather_state(pos, vel);
  return vel;
}

void DistributedEngine::set_velocities(const std::vector<Vec3d>& v) {
  WSMD_REQUIRE(v.size() == template_.atom_count(),
               "set_velocities: atom count mismatch");
  Packer p;
  p.put_array(v.data(), v.size());
  broadcast(Tag::kSetVelocities, p.bytes().data(), p.bytes().size());
  collect<Ack>(Tag::kOk);
  template_.set_velocities(v);
  refresh_kinetic_energy();
}

void DistributedEngine::set_positions(const std::vector<Vec3d>& r) {
  WSMD_REQUIRE(r.size() == template_.atom_count(),
               "set_positions: atom count mismatch");
  Packer p;
  p.put_array(r.data(), r.size());
  broadcast(Tag::kSetPositions, p.bytes().data(), p.bytes().size());
  collect<Ack>(Tag::kOk);
  template_.set_positions(r);  // widens b exactly as every rank does
  refresh_potential_energy();
}

engine::State DistributedEngine::snapshot() const {
  engine::State st;
  st.step = step_count_;
  gather_state(st.positions, st.velocities);
  st.has_wafer = true;
  st.potential_energy = pe_;
  st.elapsed_seconds = elapsed_seconds_;
  st.grid_width = template_.mapping().grid_width();
  st.grid_height = template_.mapping().grid_height();
  st.b = template_.b();
  st.core_atoms = template_.mapping().core_atoms();
  st.initial_positions = template_.initial_positions();
  return st;
}

void DistributedEngine::restore(const engine::State& state) {
  core::WseMd::SavedState saved;
  if (!state.has_wafer) {
    // Reference-written snapshot: transfer positions/velocities onto the
    // constructed mapping (cross-backend, not bitwise), mirroring
    // WaferEngine::restore.
    WSMD_REQUIRE(state.positions.size() == template_.atom_count() &&
                     state.velocities.size() == template_.atom_count(),
                 "restore: atom count mismatch ("
                     << state.positions.size() << " vs "
                     << template_.atom_count() << ")");
    template_.set_positions(state.positions);
    template_.set_velocities(state.velocities);
    saved.step = state.step;
    saved.elapsed_seconds = 0.0;
    saved.potential_energy = 0.0;  // refreshed distributed below
    saved.positions = template_.positions();  // FP32-rounded
    saved.velocities = template_.velocities();
    saved.grid_width = template_.mapping().grid_width();
    saved.grid_height = template_.mapping().grid_height();
    saved.b = template_.b();
    saved.core_atoms = template_.mapping().core_atoms();
    saved.initial_positions = template_.initial_positions();
  } else {
    saved.step = state.step;
    saved.elapsed_seconds = state.elapsed_seconds;
    saved.potential_energy = state.potential_energy;
    saved.positions = state.positions;
    saved.velocities = state.velocities;
    saved.grid_width = state.grid_width;
    saved.grid_height = state.grid_height;
    saved.b = state.b;
    saved.core_atoms = state.core_atoms;
    saved.initial_positions = state.initial_positions;
  }
  // Validate coordinator-side first (restore_state throws before
  // mutating), then broadcast so every rank adopts the identical state —
  // re-ranking a ranks:2 checkpoint onto ranks:4 is just a different
  // strip partition over the same global state.
  template_.restore_state(saved);
  Packer p;
  pack_saved_state(p, saved);
  broadcast(Tag::kRestore, p.bytes().data(), p.bytes().size());
  collect<Ack>(Tag::kOk);
  step_count_ = saved.step;
  elapsed_seconds_ = saved.elapsed_seconds;
  std::fill(last_steps_.begin(), last_steps_.end(), saved.step);
  if (state.has_wafer) {
    pe_ = state.potential_energy;  // committed pre-step PE convention
  } else {
    refresh_potential_energy();
  }
  refresh_kinetic_energy();
}

void DistributedEngine::thermalize(double temperature_K, Rng& rng) {
  // Every rank must draw the identical full-grid velocity field: send the
  // pre-call Rng state, then advance the caller's Rng by running the same
  // thermalize on the coordinator's template.
  ThermalizeCmd cmd;
  cmd.temperature_K = temperature_K;
  cmd.rng = rng.state();
  template_.thermalize(temperature_K, rng);
  broadcast(Tag::kThermalize, &cmd, sizeof(cmd));
  collect<Ack>(Tag::kOk);
  refresh_kinetic_energy();
}

engine::ModeledPhaseCost DistributedEngine::modeled_phase_cost() const {
  engine::ModeledPhaseCost cost;
  cost.steps = step_count_;
  if (cost.steps <= 0) return cost;
  cost.valid = true;
  const auto steps = static_cast<double>(cost.steps);
  cost.mean_candidates = cum_.candidate_step_sum / steps;
  cost.mean_interactions = cum_.interaction_step_sum / steps;
  cost.swap_steps = cum_.swap_steps;

  const wse::CostModel& model = config_.wse.cost_model;
  const wse::CostModel::Components& c = model.components();
  const wse::CostModel::Factors& f = model.factors();
  const double cand = cum_.candidate_step_sum;
  const double inter = cum_.interaction_step_sum;
  cost.density_seconds = (c.mcast_per_candidate * f.mcast * cand +
                          c.miss_per_reject * f.miss * (cand - inter)) *
                         1e-9;
  cost.force_seconds = c.per_interaction * f.interaction * inter * 1e-9;
  cost.fixed_seconds = c.fixed * f.fixed * steps * 1e-9;
  cost.total_seconds = elapsed_seconds_;
  const double mean_step_seconds =
      cost.total_seconds / (steps + static_cast<double>(cost.swap_steps));
  cost.swap_seconds = mean_step_seconds * static_cast<double>(cost.swap_steps);
  // The executed-vs-modeled halo validation row: what the cost model says
  // M strip halos should cost, next to the measured dist.halo_* spans.
  cost.halo_seconds =
      halo_cycles_per_step(strips_, template_.b(),
                           template_.mapping().grid_width(),
                           template_.mapping().grid_height(), model) *
      steps / (model.clock_ghz() * 1e9);
  return cost;
}

std::vector<std::string> DistributedEngine::rank_log_paths() const {
  std::vector<std::string> paths;
  for (int r = 0; r < config_.ranks; ++r) {
    paths.push_back(scratch_.rank_file("stderr", r));
  }
  return paths;
}

}  // namespace wsmd::dist
