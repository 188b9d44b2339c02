/// \file test_output_invariance.cpp
/// Telemetry must never change what a run writes. The grain-boundary deck,
/// with the trajectory and every probe written each step, runs once with
/// telemetry off and once fully armed (trace + metrics), on the reference
/// backend and on sharded:3; the trajectory, thermo and probe streams must
/// be byte-identical. Every output kernel
/// (cell-list RDF, CSP defects, XYZ formatting) runs each step here, so a
/// kernel that reads uninitialized or order-dependent state shows up as a
/// byte difference.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/deck.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace wsmd::scenario {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(OutputInvariance, TelemetryOnAndOffWriteIdenticalBytes) {
  const fs::path base =
      fs::path(::testing::TempDir()) / "wsmd_output_invariance";
  for (const std::string backend : {"reference", "sharded:3"}) {
    fs::remove_all(base);
    const auto run = [&](const std::string& leg, bool telemetry) {
      Deck deck = parse_deck_file(std::string(WSMD_SOURCE_DIR) +
                                  "/scenarios/cu_gb_mobility.deck");
      deck.set("run", "10");
      deck.set("xyz_every", "1");
      deck.set("observe.every", "1");
      if (telemetry) {
        deck.set("telemetry.trace", "auto");
        deck.set("telemetry.metrics", "auto");
      }
      RunOptions opt;
      opt.backend_override = backend;
      opt.output_dir = (base / leg).string();
      return run_scenario(scenario_from_deck(deck), opt);
    };
    const auto off = run("off", false);
    const auto on = run("on", true);
    EXPECT_TRUE(off.trace_path.empty());
    ASSERT_FALSE(on.trace_path.empty());
    EXPECT_TRUE(fs::exists(on.trace_path));
    EXPECT_GT(off.xyz_frames, 10u);
    EXPECT_EQ(off.xyz_frames, on.xyz_frames);

    for (const char* suffix : {"thermo.csv", "traj.xyz", "rdf.csv", "msd.csv",
                               "vacf.csv", "defects.csv"}) {
      const std::string name = std::string("cu_gb_mobility.") + suffix;
      const std::string want = slurp(base / "off" / name);
      EXPECT_FALSE(want.empty()) << backend << " " << name;
      EXPECT_TRUE(want == slurp(base / "on" / name))
          << backend << " " << name << " differs";
    }
  }
  fs::remove_all(base);
}

}  // namespace
}  // namespace wsmd::scenario
