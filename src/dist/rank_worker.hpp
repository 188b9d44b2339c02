#pragma once

/// \file rank_worker.hpp
/// The rank-process side of the distributed wafer backend.
///
/// A rank inherits the coordinator's fully-constructed WseMd by fork
/// (copy-on-write — structure, potential tables, and mapping arrive
/// bitwise with no serialization), then serves a lockstep command loop:
/// the coordinator broadcasts one command, every rank executes it and
/// replies. A timestep runs the phase kernels over the rank's core-grid
/// row strip only, with two pairwise halo exchanges against peer ranks:
/// F' after the density phase (radius b, what the force kernels read) and
/// committed positions+velocities after the commit (radius b+1, one row
/// of slack so an atom-swap migration never exposes a stale ghost).
///
/// Halo payloads travel through per-pair shared-memory rings (see
/// shm_channel.hpp), and the step pipeline overlaps them with compute: the
/// strip splits into boundary rows (the rows peers read, and the rows that
/// read ghost rows) and interior rows; outgoing halos are published as
/// soon as their boundary rows are computed, interior tiles sweep while
/// the peers catch up, and the incoming halos are consumed only when the
/// boundary tiles finally need them. The split is free of numerical
/// consequence: the phase kernels guarantee results bitwise independent of
/// the shard decomposition, and the energy reductions keep their
/// strip-wide fixed order.
///
/// Per-atom state therefore evolves bitwise identically to the serial
/// engine — every value an atom's update reads (neighbor positions, F',
/// its own velocity) is the exact FP32 value the serial sweep would read;
/// only the global energy reductions differ (rank-ordered partial sums,
/// combined by the coordinator).
///
/// Teardown: a clean run ends with kShutdown -> kBye -> _Exit(0). If the
/// coordinator dies first, the control socket EOFs and the rank exits
/// quietly; if a *peer* dies mid-exchange, the rank exits nonzero and the
/// failure cascades to the coordinator as EOFs. A dead peer is caught by
/// the ring wait's socket canary (PeerClosedError) within milliseconds.

#include <utility>
#include <vector>

#include "core/wse_md.hpp"
#include "dist/domain.hpp"
#include "dist/protocol.hpp"
#include "dist/shm_channel.hpp"
#include "dist/transport.hpp"
#include "engine/shard_pool.hpp"

namespace wsmd::dist {

struct RankWorkerConfig {
  int rank = 0;
  int world = 1;
  int threads = 1;  ///< shard threads inside this rank (ranks:MxN)
  /// Peer-exchange deadline; a stuck peer turns into a transport error
  /// (and a nonzero exit) instead of a silent hang.
  int peer_timeout_ms = 600'000;
  /// Dead-rank drill: _Exit(9) at the start of step `kill_step` when this
  /// rank is `kill_rank` (deck keys dist.kill_rank / dist.kill_step).
  int kill_rank = -1;
  long kill_step = 0;
};

/// Everything one rank holds toward one halo peer: the pair's ring views
/// and the socket the ring waits watch for the peer's death (no frame
/// ever crosses it).
struct PeerLink {
  int rank = -1;
  Channel canary;
  ShmHalo shm;
};

class RankWorker {
 public:
  /// `md` is the forked copy of the coordinator's template engine; the
  /// worker mutates it freely. `peers` holds one link per halo peer.
  RankWorker(core::WseMd& md, RankWorkerConfig config, Channel control,
             std::vector<PeerLink> peers);

  /// Serve commands until shutdown or coordinator EOF. Never returns.
  [[noreturn]] void run();

 private:
  void handshake();
  void do_step();
  void do_eval_pe();
  /// Gather this rank's halo rows at `radius` straight into each peer's
  /// ring slot and publish them.
  void publish_halo(Tag tag, int radius);
  /// Receive and scatter the peers' halo rows posted by the matching
  /// publish_halo. Blocks until all are in.
  void consume_halo(Tag tag, int radius);
  /// Gather halo values for `atoms` into `dst` (F': 1 float/atom; state:
  /// 6 floats/atom). Returns the byte count.
  std::size_t gather_halo(Tag tag, const std::vector<std::uint32_t>& atoms,
                          std::uint8_t* dst);
  /// Scatter received halo values for `atoms` out of `src`.
  void scatter_halo(Tag tag, const std::vector<std::uint32_t>& atoms,
                    const std::uint8_t* src);
  /// Run `phase` over `rect` split row-wise across the shard pool.
  template <typename Phase>
  void for_region(const core::ShardRect& rect, Phase&& phase);
  /// Sub-strips of this rank's strip for the rank-internal shard pool.
  std::vector<core::ShardRect> sub_strips() const;
  PeerLink* peer_link(int rank);

  core::WseMd& md_;
  RankWorkerConfig config_;
  Channel control_;
  std::vector<PeerLink> peers_;
  std::vector<core::ShardRect> strips_;
  core::ShardRect strip_;
  engine::ShardPool pool_;
  core::StepWorkspace ws_;

  // Cumulative wall-clock accounting reported in every StepRecord.
  double busy_s_ = 0.0;
  double pack_s_ = 0.0;
  double exchange_s_ = 0.0;
  double unpack_s_ = 0.0;
  double barrier_s_ = 0.0;
  double overlap_s_ = 0.0;
};

}  // namespace wsmd::dist
