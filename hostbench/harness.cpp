// One benchmark run: a single scenario through scenario::run_scenario, in
// its own process, measured from outside the library.
//
//   hostbench_harness --deck FILE --out DIR [--trace] [key=value ...]
//
// The key=value tokens are deck overrides, exactly as `wsmd` takes them
// (the workload seed arrives as `seed=N`). Every output the scenario
// writes lands under DIR. The last line of standard output is one JSON
// object with the run's raw measurements; run.py turns those into the
// benchmark's metrics. Exit status: 0 when the run completed (the JSON
// says whether its checks held), 1 when it threw, 2 on bad usage.
//
// The engine is wrapped through RunOptions::engine_factory. Untraced, the
// wrapper only keeps each step's thermo row and digests the final state,
// so it takes no clock reads inside the step loop. Traced (--trace), it
// also times every call the runner makes into the Engine surface, arms
// the library's own telemetry session, and writes the harness spans to
// DIR/harness_spans.json.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/domain.hpp"
#include "engine/engine.hpp"
#include "md/simd.hpp"
#include "obs/factory.hpp"
#include "scenario/deck.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bench_json.hpp"
#include "util/string_util.hpp"

namespace {

using namespace wsmd;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed call into the Engine surface (traced runs only).
struct CallRecord {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
};

/// The state a probe reads at one step, as the runner handed it out.
struct FrameCopy {
  std::vector<Vec3d> positions;
  std::vector<Vec3d> velocities;
};

/// What the harness learns about one run from outside the library.
struct Capture {
  bool timed = false;        ///< time every engine call
  bool keep_frames = false;  ///< copy positions/velocities for obs replay
  Clock::time_point factory_entered;
  Clock::time_point engine_built;
  Box box;
  std::size_t engine_atoms = 0;
  std::vector<engine::Thermo> step_thermo;
  std::vector<CallRecord> calls;
  std::map<long, FrameCopy> frames;
  std::vector<engine::ShardLoad> load;
  bool have_digest = false;
  std::uint64_t digest = 0;
};

/// Records [construction, destruction) of one engine call.
class CallTimer {
 public:
  CallTimer(Capture& cap, const char* name)
      : cap_(cap.timed ? &cap : nullptr), name_(name) {
    if (cap_ != nullptr) start_ = Clock::now();
  }
  ~CallTimer() {
    if (cap_ != nullptr) cap_->calls.push_back({name_, start_, Clock::now()});
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  Capture* cap_;
  const char* name_;
  Clock::time_point start_;
};

std::uint64_t fnv1a(std::uint64_t h, const std::vector<Vec3d>& v) {
  for (const auto& p : v) {
    const double xyz[3] = {p.x, p.y, p.z};
    unsigned char bytes[sizeof xyz];
    std::memcpy(bytes, xyz, sizeof xyz);
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Forwards every Engine call to the backend the scenario built, recording
/// into a Capture. Its destructor runs after the runner is done with the
/// engine and before the backend is torn down (ranks still alive), which
/// is where the final-state digest and the shard load are read.
class ObservedEngine final : public engine::Engine {
 public:
  ObservedEngine(std::unique_ptr<engine::Engine> inner, Capture& cap)
      : inner_(std::move(inner)), cap_(cap) {}

  ~ObservedEngine() override {
    try {
      cap_.load = inner_->shard_load();
      std::uint64_t h = 1469598103934665603ull;
      h = fnv1a(h, inner_->positions());
      h = fnv1a(h, inner_->velocities());
      cap_.digest = h;
      cap_.have_digest = true;
    } catch (...) {
      // A failed backend has no final state; the run is already failed.
    }
  }
  ObservedEngine(const ObservedEngine&) = delete;
  ObservedEngine& operator=(const ObservedEngine&) = delete;

  const char* backend_name() const override { return inner_->backend_name(); }
  engine::ModeledPhaseCost modeled_phase_cost() const override {
    return inner_->modeled_phase_cost();
  }
  std::vector<engine::ShardLoad> shard_load() const override {
    return inner_->shard_load();
  }
  std::size_t atom_count() const override { return inner_->atom_count(); }
  long step_count() const override { return inner_->step_count(); }

  std::vector<Vec3d> positions() const override {
    std::vector<Vec3d> r;
    {
      CallTimer t(cap_, "engine.positions");
      r = inner_->positions();
    }
    if (cap_.keep_frames) cap_.frames[inner_->step_count()].positions = r;
    return r;
  }
  std::vector<Vec3d> velocities() const override {
    std::vector<Vec3d> v;
    {
      CallTimer t(cap_, "engine.velocities");
      v = inner_->velocities();
    }
    if (cap_.keep_frames) cap_.frames[inner_->step_count()].velocities = v;
    return v;
  }
  void set_velocities(const std::vector<Vec3d>& v) override {
    CallTimer t(cap_, "engine.set_velocities");
    inner_->set_velocities(v);
  }
  void set_positions(const std::vector<Vec3d>& r) override {
    CallTimer t(cap_, "engine.set_positions");
    inner_->set_positions(r);
  }
  engine::State snapshot() const override {
    CallTimer t(cap_, "engine.snapshot");
    return inner_->snapshot();
  }
  void restore(const engine::State& state) override {
    CallTimer t(cap_, "engine.restore");
    inner_->restore(state);
  }
  void thermalize(double temperature_K, Rng& rng) override {
    CallTimer t(cap_, "engine.thermalize");
    inner_->thermalize(temperature_K, rng);
  }
  engine::Thermo step() override {
    engine::Thermo th;
    {
      CallTimer t(cap_, "engine.step");
      th = inner_->step();
    }
    cap_.step_thermo.push_back(th);
    return th;
  }
  engine::Thermo thermo() const override {
    CallTimer t(cap_, "engine.thermo");
    return inner_->thermo();
  }

 private:
  std::unique_ptr<engine::Engine> inner_;
  Capture& cap_;
};

bool finite(const engine::Thermo& t) {
  return std::isfinite(t.potential_energy) &&
         std::isfinite(t.kinetic_energy) && std::isfinite(t.total_energy) &&
         std::isfinite(t.temperature);
}

double peak_rss_mb() {
  // ru_maxrss is in KiB on Linux. RUSAGE_CHILDREN covers the ranks:
  // processes, which the engine has reaped by the time run_scenario
  // returns (it reports the largest child, not their sum).
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::uintmax_t bytes_under(const std::filesystem::path& dir) {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

/// /dev/shm entries named for this process's ranks: transport segments.
int leftover_shm_segments() {
  const std::string prefix =
      dist::run_scoped_name("shm", static_cast<long>(::getpid()));
  int n = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/dev/shm", ec)) {
    if (e.path().filename().string().rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += format("%.17g", v[i]);
  }
  return s + "]";
}

std::uint64_t counter(const std::string& name) {
  for (const auto& [n, v] : telemetry::counters()) {
    if (n == name) return v;
  }
  return 0;
}

bool span_fired(const std::string& name) {
  for (const auto& s : telemetry::span_stats()) {
    if (s.name == name) return s.calls > 0;
  }
  return false;
}

/// Harness span (traced runs): times are seconds since the run call.
struct Span {
  long id = 0;
  long parent = 0;  ///< 0 = root
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  long step = -1;  ///< step number for per-step spans, -1 otherwise
};

/// Builds the span tree run -> {setup -> {lattice, engine.build}, step k,
/// finish} -> engine calls, parenting each engine call by the interval
/// that contains its start.
std::vector<Span> build_spans(const Capture& cap, Clock::time_point t_run,
                              Clock::time_point t_end,
                              Clock::time_point wall_start,
                              const std::vector<Clock::time_point>& step_end) {
  const auto rel = [&](Clock::time_point t) {
    return seconds_between(t_run, t);
  };
  std::vector<Span> spans;
  const auto add = [&](long parent, std::string name, Clock::time_point a,
                       Clock::time_point b, long step) {
    Span s;
    s.id = static_cast<long>(spans.size()) + 1;
    s.parent = parent;
    s.name = std::move(name);
    s.start_s = rel(a);
    s.end_s = rel(b);
    s.step = step;
    spans.push_back(s);
    return s.id;
  };
  const long run = add(0, "run", t_run, t_end, -1);
  const long setup = add(run, "setup", t_run, wall_start, -1);
  add(setup, "lattice", t_run, cap.factory_entered, -1);
  add(setup, "engine.build", cap.factory_entered, cap.engine_built, -1);
  std::vector<long> step_ids;
  Clock::time_point prev = wall_start;
  for (std::size_t k = 0; k < step_end.size(); ++k) {
    step_ids.push_back(
        add(run, "step", prev, step_end[k], static_cast<long>(k) + 1));
    prev = step_end[k];
  }
  const long finish = add(run, "finish", prev, t_end, -1);
  for (const auto& c : cap.calls) {
    long parent = setup;
    long step = -1;
    if (c.start >= prev) {
      parent = finish;
    } else if (c.start >= wall_start) {
      const auto k = static_cast<std::size_t>(
          std::upper_bound(step_end.begin(), step_end.end(), c.start) -
          step_end.begin());
      parent = step_ids[k];
      step = static_cast<long>(k) + 1;
    }
    add(parent, c.name, c.start, c.end, step);
  }
  return spans;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  os << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    os << format("  {\"id\": %ld, \"parent\": %ld, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"step\": %ld}",
                 s.id, s.parent, s.name.c_str(), s.start_s, s.end_s, s.step)
       << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  WSMD_REQUIRE(os.good(), "cannot write " << path);
}

/// Replays the captured frames through a one-probe bus per configured
/// kind and returns seconds spent in observe() over the stepped frames
/// (step >= 1; step 0 primes the probe untimed, as in the run).
std::map<std::string, double> replay_probes(const scenario::Scenario& sc,
                                            const Capture& cap,
                                            const std::string& out_dir) {
  std::map<std::string, double> spent;
  for (const auto& kind : sc.observe.probes) {
    auto cfg = sc.observe;
    cfg.probes = {kind};
    cfg.prefix = out_dir + "/replay";
    auto bus = obs::make_observer_bus(cfg, scenario::material_for(sc));
    double total = 0.0;
    for (const auto& [step, f] : cap.frames) {
      if (f.positions.empty()) continue;
      obs::Frame frame;
      frame.step = step;
      frame.time_ps = static_cast<double>(step) * sc.dt;
      frame.box = &cap.box;
      frame.positions = &f.positions;
      frame.velocities = f.velocities.empty() ? nullptr : &f.velocities;
      const auto t0 = Clock::now();
      bus->observe(frame);
      if (step >= 1) total += seconds_between(t0, Clock::now());
    }
    bus->finish();
    spent[kind] = total;
  }
  return spent;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "hostbench_harness: %s\nusage: hostbench_harness --deck FILE "
               "--out DIR [--trace] [key=value ...]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string deck_path;
  std::string out_dir;
  bool traced = false;
  std::vector<scenario::DeckEntry> overrides;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--deck" && i + 1 < argc) {
        deck_path = argv[++i];
      } else if (arg == "--out" && i + 1 < argc) {
        out_dir = argv[++i];
      } else if (arg == "--trace") {
        traced = true;
      } else if (arg.find('=') != std::string::npos && arg[0] != '-') {
        overrides.push_back(scenario::parse_override(arg));
      } else {
        return usage(("bad argument '" + arg + "'").c_str());
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (deck_path.empty() || out_dir.empty()) {
    return usage("--deck and --out are required");
  }

  JsonObject out;
  const JsonObject prov = BenchJson::provenance();
  Capture cap;
  cap.timed = traced;
  bool ok = false;
  try {
    // DIR/outputs holds only what the scenario writes (io.bytes_written);
    // rank scratch, the library trace and the probe replay sit beside it.
    const std::string abs_out = std::filesystem::absolute(out_dir).string();
    const std::string outputs_dir = abs_out + "/outputs";
    std::filesystem::create_directories(outputs_dir);
    auto deck = scenario::parse_deck_file(deck_path);
    for (const auto& o : overrides) deck.set(o.key, o.value);
    // Trace capture gives each library span its thread and nesting depth,
    // which telemetry.unattributed_ms needs.
    if (traced) deck.set("telemetry.trace", abs_out + "/trace.json");
    const auto sc = scenario::scenario_from_deck(deck);
    cap.keep_frames = traced && sc.observe.enabled();

    scenario::RunOptions opt;
    opt.output_dir = outputs_dir;
    opt.collect_telemetry = traced;
    opt.progress_interval_s = 0.0;
    Clock::time_point wall_start{};
    std::vector<Clock::time_point> step_end;
    opt.progress = [&](const scenario::ProgressInfo& p) {
      const auto now = Clock::now();
      if (step_end.empty()) {
        wall_start = now - std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(p.wall_seconds));
      }
      if (!p.final) step_end.push_back(now);
    };
    opt.engine_factory = [&](const scenario::Scenario& s,
                             const lattice::Structure& st)
        -> std::unique_ptr<engine::Engine> {
      cap.factory_entered = Clock::now();
      cap.box = st.box;
      auto inner = scenario::build_engine(s, st, "", abs_out);
      cap.engine_built = Clock::now();
      cap.engine_atoms = inner->atom_count();
      return std::make_unique<ObservedEngine>(std::move(inner), cap);
    };

    const auto t_run = Clock::now();
    const auto result = scenario::run_scenario(sc, opt);
    const auto t_end = Clock::now();

    const double rss = peak_rss_mb();
    const double wall = result.wall_seconds;
    const long steps = static_cast<long>(step_end.size());
    std::vector<double> step_ms;
    Clock::time_point prev = wall_start;
    for (const auto& t : step_end) {
      step_ms.push_back(1e3 * seconds_between(prev, t));
      prev = t;
    }

    // Checks run.py judges: finite thermo, NVE drift, atom count, shm.
    bool thermo_finite = finite(result.final_thermo);
    for (const auto& t : cap.step_thermo) thermo_finite &= finite(t);
    for (const auto& st : result.stages) thermo_finite &= finite(st.end);
    double drift = std::nan("");
    for (std::size_t i = 1; i < result.stages.size(); ++i) {
      if (std::strcmp(result.stages[i].kind, "run") != 0) continue;
      const double e0 = result.stages[i - 1].end.total_energy;
      const double e1 = result.stages[i].end.total_energy;
      drift = std::fabs(e1 - e0) / std::fabs(e0);
    }

    out.set("ok", true);
    out.set("error", "");
    out.set("backend", result.backend_name);
    out.set("atoms", result.structure.atoms);
    out.set("engine_atoms", cap.engine_atoms);
    out.set("steps", static_cast<long long>(steps));
    out.set("schedule_steps", static_cast<long long>(result.total_steps));
    out.set("setup_s", seconds_between(t_run, wall_start));
    out.set("wall_s", wall);
    out.set("steps_per_s", static_cast<double>(steps) / wall);
    out.set_raw("step_ms", json_array(step_ms));
    out.set("peak_rss_mb", rss);
    out.set("thermo_finite", thermo_finite);
    out.set("nve_drift_rel", drift);
    const bool ranks = scenario::parse_backend(sc.backend).backend ==
                       engine::Backend::kRanks;
    out.set("shm_leftover", ranks ? leftover_shm_segments() : 0);
    out.set("digest", cap.have_digest ? format("%016llx",
                                               static_cast<unsigned long long>(
                                                   cap.digest))
                                      : std::string());
    out.set("io_bytes", static_cast<long long>(bytes_under(outputs_dir)));
    // Output files the deck implies: a frame at step 0, every xyz_every
    // steps and at an off-grid end; a checkpoint every checkpoint_every
    // steps; no failed probe stream.
    const long frames = sc.xyz_path.empty()
                            ? 0
                            : 1 + steps / sc.xyz_every +
                                  (steps % sc.xyz_every != 0 ? 1 : 0);
    const long ckpts =
        sc.checkpoint_every > 0 ? steps / sc.checkpoint_every : 0;
    out.set("xyz_frames", result.xyz_frames);
    out.set("checkpoints", result.checkpoints_written);
    out.set("probe_failures", result.probe_output_failures);
    out.set("outputs_ok",
            result.xyz_frames == static_cast<std::size_t>(frames) &&
                result.checkpoints_written == static_cast<std::size_t>(ckpts) &&
                result.probe_output_failures == 0);

    if (traced) {
      const double n = static_cast<double>(steps);
      const auto per_step_ms = [n](double seconds) { return 1e3 * seconds / n; };
      const double nan = std::nan("");
      // Engine calls inside the stepping window [wall_start, last step end].
      const auto loop_end = step_end.empty() ? wall_start : step_end.back();
      std::map<std::string, double> in_loop;
      double in_loop_total = 0.0;
      for (const auto& c : cap.calls) {
        if (c.start < wall_start || c.start >= loop_end) continue;
        const double d = seconds_between(c.start, c.end);
        in_loop[c.name] += d;
        in_loop_total += d;
      }
      const double loop_wall = seconds_between(wall_start, loop_end);
      JsonObject L;
      L.set("lattice.build_s", seconds_between(t_run, cap.factory_entered));
      L.set("engine.build_s",
            seconds_between(cap.factory_entered, cap.engine_built));
      L.set("engine.step_ms", per_step_ms(in_loop["engine.step"]));
      L.set("engine.state_ms",
            per_step_ms(in_loop["engine.thermo"] +
                        in_loop["engine.positions"] +
                        in_loop["engine.velocities"] +
                        in_loop["engine.set_velocities"]));
      L.set("engine.snapshot_ms", per_step_ms(in_loop["engine.snapshot"]));

      // Per-worker busy/wait (sharded threads or ranks); mean per worker.
      if (!cap.load.empty()) {
        double busy = 0.0, wait = 0.0, max_busy = 0.0;
        for (const auto& l : cap.load) {
          busy += l.busy_seconds;
          wait += l.wait_seconds;
          max_busy = std::max(max_busy, l.busy_seconds);
        }
        const double w = static_cast<double>(cap.load.size());
        L.set("shard.busy_ms", per_step_ms(busy / w));
        L.set("shard.wait_ms", per_step_ms(wait / w));
        L.set("shard.wait_frac", wait / (busy + wait));
        L.set("shard.imbalance", max_busy / (busy / w));
      } else {
        for (const char* k : {"shard.busy_ms", "shard.wait_ms",
                              "shard.wait_frac", "shard.imbalance"}) {
          L.set(k, nan);
        }
      }
      const auto span_ms = [&](const char* name) {
        return span_fired(name)
                   ? per_step_ms(telemetry::span_total_seconds(name))
                   : nan;
      };
      L.set("shard.barrier_wait_ms", span_ms("shard.barrier_wait"));

      L.set("md.neighbor_ms", span_ms("md.neighbor"));
      L.set("md.neighbor_rebuilds",
            span_fired("md.neighbor")
                ? static_cast<double>(counter("md.neighbor_rebuilds"))
                : nan);
      L.set("md.force.density_ms", span_ms("md.force.density"));
      L.set("md.force.pair_ms", span_ms("md.force.pair"));
      L.set("md.integrate_ms", span_ms("md.integrate"));

      L.set("wse.begin_ms", span_ms("wse.begin"));
      L.set("wse.density_ms", span_ms("wse.density"));
      L.set("wse.force_ms", span_ms("wse.force"));
      L.set("wse.commit_ms", span_ms("wse.commit"));
      const double cand = static_cast<double>(counter("wse.candidates"));
      const double inter = static_cast<double>(counter("wse.interactions"));
      L.set("wse.candidates", cand > 0 ? cand / n : nan);
      L.set("wse.interactions", cand > 0 ? inter / n : nan);
      L.set("wse.sieve_accept", cand > 0 ? inter / cand : nan);

      const double pack = span_ms("dist.halo_pack");
      const double exch = span_ms("dist.halo_exchange");
      const double unpack = span_ms("dist.halo_unpack");
      const double barrier = span_ms("dist.barrier");
      const double overlap = span_ms("dist.overlap_compute");
      L.set("dist.halo_pack_ms", pack);
      L.set("dist.halo_exchange_ms", exch);
      L.set("dist.halo_unpack_ms", unpack);
      L.set("dist.barrier_ms", barrier);
      L.set("dist.overlap_compute_ms", overlap);
      const double halo = pack + exch + unpack + barrier;
      L.set("dist.halo_frac", halo / (halo + overlap));

      L.set("scenario.runner_self_ms", per_step_ms(loop_wall - in_loop_total));

      L.set("io.thermo_ms", span_ms("io.thermo"));
      L.set("io.xyz_ms", span_ms("io.xyz"));
      L.set("io.checkpoint_ms", span_ms("io.checkpoint"));

      const auto spent = replay_probes(sc, cap, abs_out);
      for (const char* kind : {"rdf", "msd", "vacf", "defects"}) {
        const auto it = spent.find(kind);
        L.set(format("obs.%s_ms", kind),
              it == spent.end() ? nan : per_step_ms(it->second));
      }

      // Library spans directly under the runner's stage spans, on the
      // runner thread: what the program itself attributes of the loop.
      double attributed = 0.0;
      for (const auto& e : telemetry::trace_events()) {
        if (e.thread == "main" && e.depth == 1) {
          attributed += 1e-9 * static_cast<double>(e.duration_ns);
        }
      }
      L.set("telemetry.unattributed_ms", per_step_ms(wall - attributed));
      out.set_raw("layers", L.encode());

      const auto spans =
          build_spans(cap, t_run, t_end, wall_start, step_end);
      write_spans(abs_out + "/harness_spans.json", spans);
      out.set("spans", static_cast<long long>(spans.size()));
    }
    ok = true;
  } catch (const std::exception& e) {
    out = JsonObject();
    out.set("ok", false);
    out.set("error", e.what());
  }
  out.set("simd_tier", simd::tier_name(simd::active_tier()));
  out.set_raw("build", prov.encode());
  std::fflush(stdout);
  std::printf("%s\n", out.encode().c_str());
  return ok ? 0 : 1;
}
