/// \file test_deck.cpp
/// Deck parsing and the deck -> Scenario translation: order-preserving
/// schedules, last-wins overrides, eager validation (a typo'd deck fails
/// loudly, never silently simulates the default), and deterministic defect
/// generation. The deck-key table is checked key by key: every key
/// round-trips through the canonical deck, every cross-key rule blames its
/// deck line, and the canonical deck matches the one the hand-written
/// emitter before the table wrote (kept below as an oracle), so every
/// checkpoint written by that emitter resumes to the same scenario.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "scenario/deck.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/health.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace wsmd::scenario {
namespace {

TEST(Deck, ParsesKeyValueLinesWithComments) {
  const auto deck = parse_deck_string(
      "# full-line comment\n"
      "name = demo\n"
      "\n"
      "element = W   # trailing comment\n"
      "scale=7\n",
      "demo.deck");
  ASSERT_EQ(deck.entries.size(), 3u);
  EXPECT_EQ(deck.get("name"), "demo");
  EXPECT_EQ(deck.get("element"), "W");
  EXPECT_EQ(deck.get("scale"), "7");
  // '#' opens a comment only at line start / after whitespace, so values
  // may contain it — matching CLI-override behavior for the same token.
  const auto hashes = parse_deck_string("summary = out#1.json  # note\n");
  EXPECT_EQ(hashes.get("summary"), "out#1.json");
  EXPECT_EQ(deck.entries[1].line, 4);
  EXPECT_FALSE(deck.has("backend"));
  EXPECT_EQ(deck.get("backend", "reference"), "reference");
}

TEST(Deck, MalformedLinesThrowWithLineNumber) {
  try {
    parse_deck_string("name = ok\nthis is not a pair\n", "bad.deck");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad.deck:2"), std::string::npos);
  }
  EXPECT_THROW(parse_deck_string("= value\n"), Error);
}

TEST(Deck, OverridesAppendAndLastWins) {
  auto deck = parse_deck_string("backend = reference\n");
  deck.set("backend", "sharded:4");
  EXPECT_EQ(deck.get("backend"), "sharded:4");
  const auto o = parse_override("thermo=out.csv");
  EXPECT_EQ(o.key, "thermo");
  EXPECT_EQ(o.value, "out.csv");
  EXPECT_THROW(parse_override("no-equals-sign"), Error);
  EXPECT_THROW(parse_override("=value"), Error);
}

TEST(Scenario, SchedulePreservesDeckOrder) {
  const auto sc = scenario_from_deck(parse_deck_string(
      "element = Ta\n"
      "thermalize = 290\n"
      "equilibrate = 290 20\n"
      "ramp = 290 600 50\n"
      "run = 30\n"
      "quench = 10 5\n"));
  ASSERT_EQ(sc.schedule.size(), 5u);
  EXPECT_EQ(sc.schedule[0].kind, Stage::Kind::kThermalize);
  EXPECT_EQ(sc.schedule[1].kind, Stage::Kind::kEquilibrate);
  EXPECT_DOUBLE_EQ(sc.schedule[1].t1, 290.0);  // a fixed target
  EXPECT_EQ(sc.schedule[2].kind, Stage::Kind::kRamp);
  EXPECT_DOUBLE_EQ(sc.schedule[2].t0, 290.0);
  EXPECT_DOUBLE_EQ(sc.schedule[2].t1, 600.0);
  EXPECT_EQ(sc.schedule[3].kind, Stage::Kind::kRun);
  EXPECT_EQ(sc.schedule[4].kind, Stage::Kind::kQuench);
  EXPECT_DOUBLE_EQ(sc.schedule[4].t1, 10.0);
  EXPECT_EQ(sc.total_steps(), 20 + 50 + 30 + 5);
}

TEST(Scenario, CliScheduleOverridesReplaceTheDeckSchedule) {
  auto deck = parse_deck_string(
      "element = Cu\nthermalize = 290\nequilibrate = 290 20\nrun = 30\n");
  // Scalar overrides never touch the schedule.
  deck.set("seed", "99");
  EXPECT_EQ(scenario_from_deck(deck).schedule.size(), 3u);
  // A schedule key on the CLI replaces the whole schedule — `run=50`
  // means "run 50 NVE steps", not "append 50 more".
  deck.set("thermalize", "400");
  deck.set("run", "50");
  const auto sc = scenario_from_deck(deck);
  ASSERT_EQ(sc.schedule.size(), 2u);
  EXPECT_EQ(sc.schedule[0].kind, Stage::Kind::kThermalize);
  EXPECT_DOUBLE_EQ(sc.schedule[0].t0, 400.0);
  EXPECT_EQ(sc.schedule[1].kind, Stage::Kind::kRun);
  EXPECT_EQ(sc.schedule[1].steps, 50);
  EXPECT_EQ(sc.total_steps(), 50);
}

TEST(Scenario, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(scenario_from_deck(parse_deck_string("vacancyfraction = 0.1\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("geometry = sphere\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("dt = 0\n")), Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("dt = fast\n")), Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("run = -5\n")), Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("replicate = 4 4\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("vacancy_fraction = 1.5\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("element = Unobtanium\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("backend = gpu\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("thermo_format = xml\n")),
               Error);
  // A sign typo in a stage temperature must fail at parse time, not
  // surface later as NaN velocities.
  EXPECT_THROW(scenario_from_deck(parse_deck_string("thermalize = -10\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("quench = -150 15\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("ramp = 300 -600 50\n")),
               Error);
  // Thermostatting a motionless system silently runs at 0 K — rejected
  // eagerly unless something earlier could have produced kinetic energy.
  EXPECT_THROW(scenario_from_deck(parse_deck_string("equilibrate = 300 50\n")),
               Error);
  EXPECT_NO_THROW(scenario_from_deck(
      parse_deck_string("thermalize = 290\nequilibrate = 300 50\n")));
  EXPECT_NO_THROW(scenario_from_deck(
      parse_deck_string("run = 10\nequilibrate = 300 50\n")));
  // Quenching toward 0 K needs no prior KE source requirement violation
  // only when targets are positive; quench to exactly 0 from rest is a
  // no-op and allowed.
  EXPECT_NO_THROW(scenario_from_deck(parse_deck_string("quench = 0 5\n")));
  // Vacancies on a fused bicrystal would silently corrupt the seam.
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string(
          "element = Ta\ngeometry = grain_boundary\nvacancy_fraction = 0.01\n")),
      Error);
  // Keys a geometry ignores reject instead of silently simulating the
  // default-size system.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "geometry = grain_boundary\nreplicate = 8 8 8\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "geometry = grain_boundary\nscale = 8\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "geometry = slab\ngb_atoms = 500\n")),
               Error);
}

TEST(Scenario, PotentialAndPairStyleKeysValidateEagerly) {
  // Evaluation-path selector: tabulated (default) | analytic, nothing else.
  EXPECT_EQ(scenario_from_deck(parse_deck_string("")).potential, "tabulated");
  EXPECT_EQ(
      scenario_from_deck(parse_deck_string("potential = analytic\n")).potential,
      "analytic");
  try {
    scenario_from_deck(parse_deck_string("potential = spline\n", "p.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    // Eager validation with file:line blame.
    EXPECT_NE(std::string(e.what()).find("p.deck:1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("tabulated|analytic"),
              std::string::npos);
  }

  // Interaction family: eam (default) | lj with its own element table.
  EXPECT_THROW(scenario_from_deck(parse_deck_string("pair_style = morse\n")),
               Error);
  EXPECT_NO_THROW(scenario_from_deck(parse_deck_string(
      "pair_style = lj\nelement = Ar\ngeometry = bulk\nreplicate = 4 4 4\n")));
  // Cu is a Zhou element, not a built-in LJ species.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "pair_style = lj\nelement = Cu\nreplicate = 4 4 4\n")),
               Error);
  // LJ scenarios size their crystal explicitly and have no bicrystal
  // generator.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "pair_style = lj\nelement = Ar\ngeometry = slab\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "pair_style = lj\nelement = Ar\n"
                   "geometry = grain_boundary\n")),
               Error);
}

TEST(Scenario, LjMaterialFactsDriveStructureAndEngine) {
  // 4 cells per axis keep the periodic box above 2x the 2.5-sigma cutoff.
  const auto sc = scenario_from_deck(parse_deck_string(
      "pair_style = lj\nelement = Ar\ngeometry = bulk\n"
      "replicate = 4 4 4\nthermalize = 40\nrun = 2\n"));
  const auto facts = material_facts(sc);
  EXPECT_EQ(facts.structure, "fcc");
  EXPECT_NEAR(facts.lattice_constant, 5.25, 0.05);  // solid Ar a0 (A)
  const auto s = build_structure(sc);
  EXPECT_EQ(s.size(), 4u * 4u * 4u * 4u);  // FCC: 4 atoms per cell
  auto eng = build_engine(sc, s);
  EXPECT_EQ(eng->atom_count(), s.size());
  // Pure pair potential: the engine runs with a zero density pass.
  EXPECT_LT(eng->thermo().potential_energy, 0.0);  // cohesive LJ crystal
}

TEST(Scenario, BackendSpecParsing) {
  EXPECT_EQ(parse_backend("reference").backend, engine::Backend::kReference);
  EXPECT_EQ(parse_backend("wafer").backend, engine::Backend::kWafer);
  const auto sharded = parse_backend("sharded:8");
  EXPECT_EQ(sharded.backend, engine::Backend::kShardedWafer);
  EXPECT_EQ(sharded.threads, 8);
  EXPECT_EQ(parse_backend("sharded").threads, 0);  // auto
  EXPECT_TRUE(sharded.is_wafer());
  EXPECT_FALSE(parse_backend("reference").is_wafer());
  EXPECT_THROW(parse_backend("sharded:0"), Error);
  EXPECT_THROW(parse_backend("sharded:x"), Error);
  EXPECT_EQ(parse_backend("reference:3").threads, 3);
  EXPECT_THROW(parse_backend("wafer:2"), Error);
  EXPECT_THROW(parse_backend("reference:"), Error);
  EXPECT_THROW(parse_backend("reference:2x2"), Error);
  EXPECT_THROW(parse_backend("sharded:99999999999"), Error);
}

TEST(Scenario, RanksBackendSpecParsing) {
  const auto ranks = parse_backend("ranks:4");
  EXPECT_EQ(ranks.backend, engine::Backend::kRanks);
  EXPECT_EQ(ranks.ranks, 4);
  EXPECT_EQ(ranks.threads, 1);  // one shard thread per rank by default
  EXPECT_TRUE(ranks.is_wafer());

  // ranks:MxN — N shard threads inside each of the M rank processes.
  const auto grid = parse_backend("ranks:2x3");
  EXPECT_EQ(grid.backend, engine::Backend::kRanks);
  EXPECT_EQ(grid.ranks, 2);
  EXPECT_EQ(grid.threads, 3);
  EXPECT_EQ(parse_backend("ranks:16x4").ranks, 16);  // kMaxRanks
  EXPECT_EQ(parse_backend("ranks:16x4").threads, 4);

  // Bare "ranks" keeps the default rank count.
  EXPECT_EQ(parse_backend("ranks").backend, engine::Backend::kRanks);
  EXPECT_EQ(parse_backend("ranks").ranks, 2);

  EXPECT_THROW(parse_backend("ranks:0"), Error);
  EXPECT_THROW(parse_backend("ranks:x"), Error);
  EXPECT_THROW(parse_backend("ranks:17"), Error);   // > kMaxRanks
  EXPECT_THROW(parse_backend("ranks:2x0"), Error);
  EXPECT_THROW(parse_backend("ranks:2x"), Error);
  EXPECT_THROW(parse_backend("ranks:2y3"), Error);
}

TEST(Scenario, BuildStructureGeometries) {
  // Explicit replication, open slab.
  auto sc = scenario_from_deck(parse_deck_string(
      "element = Cu\ngeometry = slab\nreplicate = 3 3 2\n"));
  StructureInfo info;
  const auto slab = build_structure(sc, &info);
  EXPECT_EQ(slab.size(), 3u * 3u * 2u * 4u);  // FCC: 4 atoms/cell
  EXPECT_EQ(info.atoms, slab.size());
  EXPECT_FALSE(slab.box.periodic[0]);

  // Bulk is periodic.
  sc = scenario_from_deck(parse_deck_string(
      "element = W\ngeometry = bulk\nreplicate = 4 4 4\n"));
  const auto bulk = build_structure(sc);
  EXPECT_EQ(bulk.size(), 4u * 4u * 4u * 2u);  // BCC: 2 atoms/cell
  EXPECT_TRUE(bulk.box.periodic[0] && bulk.box.periodic[2]);

  // Bulk without explicit replication is rejected (paper slabs are open).
  EXPECT_THROW(build_structure(scenario_from_deck(
                   parse_deck_string("element = W\ngeometry = bulk\n"))),
               Error);

  // Grain boundary reports seam bookkeeping.
  sc = scenario_from_deck(parse_deck_string(
      "element = Ta\ngeometry = grain_boundary\ngb_atoms = 800\n"
      "tilt_angle_deg = 16\n"));
  const auto gb = build_structure(sc, &info);
  EXPECT_GT(gb.size(), 400u);
  EXPECT_GT(info.gb_fused_atoms, 0u);
}

TEST(Scenario, VacanciesAreDeterministicPerSeed) {
  const char* text =
      "element = W\ngeometry = bulk\nreplicate = 4 4 4\n"
      "vacancy_fraction = 0.05\nseed = 123\n";
  StructureInfo a_info, b_info;
  const auto a = build_structure(
      scenario_from_deck(parse_deck_string(text)), &a_info);
  const auto b = build_structure(
      scenario_from_deck(parse_deck_string(text)), &b_info);
  const std::size_t full = 4u * 4u * 4u * 2u;
  EXPECT_EQ(a_info.vacancies_removed,
            static_cast<std::size_t>(0.05 * full + 0.5));
  EXPECT_EQ(a.size(), full - a_info.vacancies_removed);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.positions[i].x, b.positions[i].x);
  }
  // A different seed removes a different set.
  const auto c = build_structure(scenario_from_deck(parse_deck_string(
      "element = W\ngeometry = bulk\nreplicate = 4 4 4\n"
      "vacancy_fraction = 0.05\nseed = 456\n")));
  ASSERT_EQ(c.size(), a.size());
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size() && !any_differs; ++i) {
    any_differs = a.positions[i].x != c.positions[i].x;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Scenario, ObserveKeysParseIntoProbeConfig) {
  const auto sc = scenario_from_deck(parse_deck_string(
      "element = Cu\n"
      "geometry = grain_boundary\n"
      "gb_atoms = 800\n"
      "observe.probes = rdf msd vacf defects\n"
      "observe.every = 5\n"
      "observe.rdf_every = 10\n"
      "observe.format = jsonl\n"
      "observe.prefix = out/obs\n"
      "observe.rdf_rcut = 6.0\n"
      "observe.rdf_bins = 300\n"
      "observe.csp_threshold = 0.75\n"
      "observe.gb_axis = z\n"));
  ASSERT_TRUE(sc.observe.enabled());
  EXPECT_EQ(sc.observe.probes,
            (std::vector<std::string>{"rdf", "msd", "vacf", "defects"}));
  EXPECT_EQ(sc.observe.cadence_for("rdf"), 10);    // per-probe override
  EXPECT_EQ(sc.observe.cadence_for("msd"), 5);     // inherits observe.every
  EXPECT_EQ(sc.observe.format, "jsonl");
  EXPECT_EQ(sc.observe.prefix, "out/obs");
  EXPECT_DOUBLE_EQ(sc.observe.rdf_rcut, 6.0);
  EXPECT_EQ(sc.observe.rdf_bins, 300);
  EXPECT_DOUBLE_EQ(sc.observe.csp_threshold, 0.75);
  EXPECT_EQ(sc.observe.gb_axis, 2);

  // GB tracking defaults to the generator's boundary normal (y) when the
  // deck enables the defect probe on a bicrystal without naming an axis.
  const auto defaulted = scenario_from_deck(parse_deck_string(
      "element = Ta\ngeometry = grain_boundary\nobserve.probes = defects\n"));
  EXPECT_EQ(defaulted.observe.gb_axis, 1);
  // ...and stays off elsewhere.
  const auto slab = scenario_from_deck(
      parse_deck_string("element = Cu\nobserve.probes = defects\n"));
  EXPECT_EQ(slab.observe.gb_axis, -1);
}

TEST(Scenario, ObserveRejectsUnknownKeysWithFileLineContext) {
  // Typo'd observe key: rejected like any unknown key, pointing at the
  // offending line.
  try {
    scenario_from_deck(parse_deck_string(
        "observe.probes = rdf\nobserve.rdf_cutoff = 6\n", "obs.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("obs.deck:2"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("observe.probs = rdf\n")), Error);
  // Unknown / duplicate probe names.
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("observe.probes = xrd\n")), Error);
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("observe.probes = rdf rdf\n")),
      Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("observe.probes =\n")),
               Error);
}

TEST(Scenario, ObserveRejectsBadCadences) {
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = msd\nobserve.every = 0\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = msd\nobserve.every = -5\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = msd\nobserve.msd_every = 0\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = rdf\nobserve.rdf_every = x\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = rdf\nobserve.rdf_bins = 1\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = rdf\nobserve.rdf_rcut = 0\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = defects\nobserve.csp_threshold = -1\n")),
               Error);
}

TEST(Scenario, ObserveRejectsCrossKeyAndGeometryMismatches) {
  // observe.* keys without observe.probes: a deck that configures probes it
  // never enables is a typo, not a request for silence.
  try {
    scenario_from_deck(parse_deck_string("observe.every = 5\n", "lone.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("lone.deck:1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("observe.probes"),
              std::string::npos);
  }
  // Parameters for probes that are not enabled.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = msd\nobserve.rdf_bins = 100\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = rdf\nobserve.csp_threshold = 1\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = rdf\nobserve.vacf_every = 5\n")),
               Error);
  // GB tracking needs a grain boundary.
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string(
          "geometry = slab\nobserve.probes = defects\nobserve.gb_axis = y\n")),
      Error);
  // Probe-geometry mismatch, caught at parse time: the rdf radius cannot
  // satisfy minimum image in this periodic box.
  try {
    scenario_from_deck(parse_deck_string(
        "element = Cu\ngeometry = bulk\nreplicate = 3 3 3\n"
        "observe.probes = rdf\nobserve.rdf_rcut = 7.0\n",
        "tight.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("tight.deck:5"), std::string::npos)
        << e.what();
  }
  // Same box with a radius that fits is accepted.
  EXPECT_NO_THROW(scenario_from_deck(parse_deck_string(
      "element = Cu\ngeometry = bulk\nreplicate = 4 4 4\n"
      "observe.probes = rdf\nobserve.rdf_rcut = 6.5\n")));
  // The defect probe's derived CSP radius is checked the same way: a 2x2x2
  // periodic cell cannot host the 1.2 a0 search sphere.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "element = Cu\ngeometry = bulk\nreplicate = 2 2 2\n"
                   "observe.probes = defects\n")),
               Error);
}

TEST(Scenario, HealthKeysParseIntoTheWatchdogConfig) {
  // Defaults: NaN detection warns, everything else off.
  const auto base = scenario_from_deck(parse_deck_string(""));
  EXPECT_EQ(base.health.nan, telemetry::HealthAction::kWarn);
  EXPECT_EQ(base.health.energy_drift, telemetry::HealthAction::kOff);
  EXPECT_EQ(base.health.temperature, telemetry::HealthAction::kOff);
  EXPECT_EQ(base.health.stall, telemetry::HealthAction::kOff);
  EXPECT_FALSE(base.health.any_abort());

  const auto sc = scenario_from_deck(parse_deck_string(
      "health.nan = abort\n"
      "health.energy_drift = warn\n"
      "health.energy_band = 0.01\n"
      "health.temperature = abort\n"
      "health.temperature_band = 75\n"
      "health.stall = warn\n"
      "health.stall_timeout = 5\n"
      "health.thermo_tail = 32\n"
      "health.bundle = triage\n"
      "health.inject_nan = 4\n"));
  EXPECT_EQ(sc.health.nan, telemetry::HealthAction::kAbort);
  EXPECT_EQ(sc.health.energy_drift, telemetry::HealthAction::kWarn);
  EXPECT_DOUBLE_EQ(sc.health.energy_band, 0.01);
  EXPECT_EQ(sc.health.temperature, telemetry::HealthAction::kAbort);
  EXPECT_DOUBLE_EQ(sc.health.temperature_band_K, 75.0);
  EXPECT_EQ(sc.health.stall, telemetry::HealthAction::kWarn);
  EXPECT_DOUBLE_EQ(sc.health.stall_timeout_s, 5.0);
  EXPECT_EQ(sc.health.thermo_tail, 32);
  EXPECT_EQ(sc.health.bundle_dir, "triage");
  EXPECT_EQ(sc.health.inject_nan_step, 4);
  EXPECT_TRUE(sc.health.any_enabled());
  EXPECT_TRUE(sc.health.any_abort());

  // The default NaN detector can be switched off explicitly.
  const auto off =
      scenario_from_deck(parse_deck_string("health.nan = off\n"));
  EXPECT_EQ(off.health.nan, telemetry::HealthAction::kOff);
  EXPECT_FALSE(off.health.any_enabled());
}

TEST(Scenario, HealthKeysValidateEagerly) {
  // Action tokens are a closed set with file:line blame.
  try {
    scenario_from_deck(parse_deck_string("health.nan = on\n", "h.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("h.deck:1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("off|warn|abort"),
              std::string::npos);
  }
  EXPECT_THROW(scenario_from_deck(parse_deck_string("health.stall = true\n")),
               Error);
  // Bands and timeouts must be positive numbers.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "health.energy_drift = warn\nhealth.energy_band = 0\n")),
               Error);
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string(
          "health.temperature = warn\nhealth.temperature_band = -5\n")),
      Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "health.stall = warn\nhealth.stall_timeout = soon\n")),
               Error);
  // A band/timeout for a disabled detector is dead configuration.
  try {
    scenario_from_deck(
        parse_deck_string("health.energy_band = 0.01\n", "dead.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("dead.deck:1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("health.energy_drift"),
              std::string::npos);
  }
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("health.temperature_band = 50\n")),
      Error);
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("health.stall_timeout = 10\n")),
      Error);
  // The NaN fault drill needs the NaN detector it exercises.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "health.nan = off\nhealth.inject_nan = 3\n")),
               Error);
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("health.inject_nan = -1\n")),
      Error);
  // The bundle's thermo tail keeps a bounded ring.
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("health.thermo_tail = 0\n")),
      Error);
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("health.thermo_tail = 200000\n")),
      Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("health.bundle =\n")),
               Error);
}

TEST(Scenario, SnapshotCadenceImpliesTheMetricsFile) {
  // No cadence by default; no metrics file implied.
  EXPECT_DOUBLE_EQ(scenario_from_deck(parse_deck_string("")).
                   telemetry_snapshot_s, 0.0);

  const auto sc = scenario_from_deck(
      parse_deck_string("name = snapdeck\ntelemetry.snapshot = 0.5\n"));
  EXPECT_DOUBLE_EQ(sc.telemetry_snapshot_s, 0.5);
  // Snapshots stream into the metrics file, so a cadence without an
  // explicit path resolves the same auto default as telemetry.metrics=auto.
  EXPECT_EQ(sc.telemetry_metrics_path, "snapdeck.metrics.jsonl");

  // An explicit path wins over the implied default.
  const auto named = scenario_from_deck(parse_deck_string(
      "telemetry.snapshot = 0.5\ntelemetry.metrics = custom.jsonl\n"));
  EXPECT_EQ(named.telemetry_metrics_path, "custom.jsonl");

  // `off` clears an earlier cadence or path (resume-time CLI override
  // path).
  const auto off = scenario_from_deck(parse_deck_string(
      "telemetry.snapshot = 0.5\ntelemetry.snapshot = off\n"
      "telemetry.trace = t.json\ntelemetry.trace = off\n"
      "telemetry.metrics = auto\ntelemetry.metrics = off\n"));
  EXPECT_DOUBLE_EQ(off.telemetry_snapshot_s, 0.0);
  EXPECT_EQ(off.telemetry_trace_path, "");
  EXPECT_EQ(off.telemetry_metrics_path, "");

  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("telemetry.snapshot = 0\n")),
      Error);
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("telemetry.snapshot = -1\n")),
      Error);
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("telemetry.snapshot = fast\n")),
      Error);
  // Streaming into an explicitly disabled metrics file is a contradiction.
  try {
    scenario_from_deck(parse_deck_string(
        "telemetry.snapshot = 0.5\ntelemetry.metrics = off\n", "c.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("c.deck:1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("telemetry.metrics is off"),
              std::string::npos);
  }
}

TEST(Scenario, HealthAndSnapshotKeysRoundTripThroughDeckFromScenario) {
  const auto sc = scenario_from_deck(parse_deck_string(
      "name = rt\n"
      "telemetry.snapshot = 0.25\n"
      "health.nan = abort\n"
      "health.energy_drift = warn\n"
      "health.energy_band = 0.05\n"
      "health.stall = abort\n"
      "health.stall_timeout = 30\n"
      "health.thermo_tail = 16\n"
      "health.bundle = rt.triage\n"
      "health.inject_nan = 2\n"));
  const auto again = scenario_from_deck(deck_from_scenario(sc));
  EXPECT_DOUBLE_EQ(again.telemetry_snapshot_s, 0.25);
  EXPECT_EQ(again.health.nan, telemetry::HealthAction::kAbort);
  EXPECT_EQ(again.health.energy_drift, telemetry::HealthAction::kWarn);
  EXPECT_DOUBLE_EQ(again.health.energy_band, 0.05);
  EXPECT_EQ(again.health.stall, telemetry::HealthAction::kAbort);
  EXPECT_DOUBLE_EQ(again.health.stall_timeout_s, 30.0);
  EXPECT_EQ(again.health.thermo_tail, 16);
  EXPECT_EQ(again.health.bundle_dir, "rt.triage");
  EXPECT_EQ(again.health.inject_nan_step, 2);
  // Untouched defaults stay implicit: a default scenario round-trips to a
  // deck with no health.* or telemetry.snapshot keys at all.
  const auto plain = deck_from_scenario(scenario_from_deck(
      parse_deck_string("")));
  for (const auto& e : plain.entries) {
    EXPECT_EQ(e.key.rfind("health.", 0), std::string::npos) << e.key;
    EXPECT_NE(e.key, "telemetry.snapshot");
  }
}

TEST(Scenario, DistKeysValidateEagerlyAndRoundTrip) {
  // dist.* keys are dead configuration off a ranks: backend.
  try {
    scenario_from_deck(
        parse_deck_string("backend = sharded:2\ndist.timeout = 10\n",
                          "d.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("d.deck:2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ranks:M"), std::string::npos);
  }
  // The kill drill is a pair: either half alone would silently never fire.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "backend = ranks:2\ndist.kill_rank = 0\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "backend = ranks:2\ndist.kill_step = 3\n")),
               Error);
  // The killed rank must exist under the configured rank count.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "backend = ranks:2\ndist.kill_rank = 2\n"
                   "dist.kill_step = 3\n")),
               Error);
  // Value validation is eager too.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "backend = ranks:2\ndist.timeout = 0\n")),
               Error);

  const auto sc = scenario_from_deck(parse_deck_string(
      "backend = ranks:4\ndist.timeout = 15\n"
      "dist.kill_rank = 3\ndist.kill_step = 5\n"));
  EXPECT_DOUBLE_EQ(sc.dist_timeout_s, 15.0);
  EXPECT_EQ(sc.dist_kill_rank, 3);
  EXPECT_EQ(sc.dist_kill_step, 5);
  const auto again = scenario_from_deck(deck_from_scenario(sc));
  EXPECT_DOUBLE_EQ(again.dist_timeout_s, 15.0);
  EXPECT_EQ(again.dist_kill_rank, 3);
  EXPECT_EQ(again.dist_kill_step, 5);

  // Non-ranks scenarios round-trip without any dist.* keys (byte-stable
  // embedded checkpoint decks).
  const auto plain = deck_from_scenario(scenario_from_deck(
      parse_deck_string("backend = sharded:2\n")));
  for (const auto& e : plain.entries) {
    EXPECT_EQ(e.key.rfind("dist.", 0), std::string::npos) << e.key;
  }
}

TEST(Scenario, BuildEngineHonorsBackendAndOverride) {
  const auto sc = scenario_from_deck(parse_deck_string(
      "element = Ta\ngeometry = slab\nreplicate = 3 3 2\n"
      "backend = wafer\n"));
  const auto structure = build_structure(sc);
  auto wafer = build_engine(sc, structure);
  EXPECT_STREQ(wafer->backend_name(), "wafer-serial");
  auto ref = build_engine(sc, structure, "reference");
  EXPECT_STREQ(ref->backend_name(), "reference-fp64");
  auto sharded = build_engine(sc, structure, "sharded:2");
  EXPECT_STREQ(sharded->backend_name(), "sharded-wafer");
  auto ranks = build_engine(sc, structure, "ranks:2");
  EXPECT_STREQ(ranks->backend_name(), "ranks");
  EXPECT_EQ(ranks->atom_count(), structure.size());
  EXPECT_EQ(wafer->atom_count(), structure.size());
}

// ---- the deck-key table ---------------------------------------------------

/// The error text of parsing `text` as deck `source` ("" if it parses).
std::string parse_error(const std::string& text,
                        const std::string& source = "t.deck") {
  try {
    scenario_from_deck(parse_deck_string(text, source));
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

std::string deck_text(const Deck& deck) {
  std::string out;
  for (const auto& e : deck.entries) out += e.key + " = " + e.value + "\n";
  return out;
}

TEST(DeckTable, EveryKeyRoundTripsThroughTheCanonicalDeck) {
  // One valid non-default value per key, plus the lines its requirement
  // needs. Values are written in canonical form (%.17g reals), so the
  // canonical deck must reproduce them verbatim.
  struct Case {
    const char* key;
    const char* value;
    const char* context;
    bool only_value = false;  ///< the key's one legal value (its default)
  };
  const Case cases[] = {
      {"name", "rt_name", ""},
      {"element", "Ta", ""},
      {"pair_style", "lj", "element = Ar\nreplicate = 4 4 4\n"},
      {"potential", "analytic", ""},
      {"geometry", "bulk", "replicate = 4 4 4\n"},
      {"tilt_angle_deg", "12.5", "geometry = grain_boundary\n"},
      {"gb_atoms", "900", "geometry = grain_boundary\n"},
      {"replicate", "3 4 5", ""},
      {"scale", "16", ""},
      {"vacancy_fraction", "0.25", ""},
      {"backend", "ranks:3x2", ""},
      {"dt", "0.0625", ""},
      {"swap_interval", "7", ""},
      {"rescale_interval", "3", ""},
      {"seed", "77", ""},
      {"dist.transport", "shm", "backend = ranks:2\n", true},
      {"dist.timeout", "12.5", "backend = ranks:2\n"},
      {"dist.kill_rank", "1", "backend = ranks:2\ndist.kill_step = 3\n"},
      {"dist.kill_step", "4", "backend = ranks:2\ndist.kill_rank = 0\n"},
      {"xyz", "t.xyz", ""},
      {"xyz_every", "3", "xyz = t.xyz\n"},
      {"thermo", "t.csv", ""},
      {"thermo_every", "4", "thermo = t.csv\n"},
      {"thermo_format", "jsonl", "thermo = t.csv\n"},
      {"summary", "s.json", ""},
      {"observe.probes", "msd vacf", ""},
      {"observe.every", "4", "observe.probes = msd\n"},
      {"observe.rdf_every", "5", "observe.probes = rdf\n"},
      {"observe.msd_every", "6", "observe.probes = msd\n"},
      {"observe.vacf_every", "7", "observe.probes = vacf\n"},
      {"observe.defects_every", "8", "observe.probes = defects\n"},
      {"observe.format", "jsonl", "observe.probes = msd\n"},
      {"observe.prefix", "obs/p", "observe.probes = msd\n"},
      {"observe.rdf_rcut", "5.5", "observe.probes = rdf\n"},
      {"observe.rdf_bins", "150", "observe.probes = rdf\n"},
      {"observe.csp_threshold", "0.5", "observe.probes = defects\n"},
      {"observe.gb_axis", "z",
       "geometry = grain_boundary\nobserve.probes = defects\n"},
      {"checkpoint.every", "9", ""},
      {"checkpoint.path", "c_*.ckpt", "checkpoint.every = 9\n"},
      {"telemetry.trace", "t.json", ""},
      {"telemetry.metrics", "m.jsonl", ""},
      {"telemetry.snapshot", "0.5", ""},
      {"health.nan", "abort", ""},
      {"health.energy_drift", "warn", ""},
      {"health.energy_band", "0.0625", "health.energy_drift = warn\n"},
      {"health.temperature", "abort", ""},
      {"health.temperature_band", "40", "health.temperature = warn\n"},
      {"health.stall", "warn", ""},
      {"health.stall_timeout", "9", "health.stall = warn\n"},
      {"health.thermo_tail", "8", ""},
      {"health.bundle", "b.dir", ""},
      {"health.inject_nan", "2", ""},
  };
  // The cases cover the table exactly: a new key needs a case here.
  std::vector<std::string> covered{"thermalize", "equilibrate", "ramp",
                                   "quench",     "run",         "nve"};
  for (const auto& c : cases) covered.emplace_back(c.key);
  auto names = deck_key_names();
  std::sort(names.begin(), names.end());
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(names, covered);

  const Scenario defaults;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.key);
    if (!c.only_value) {
      EXPECT_NE(deck_value(defaults, c.key), c.value) << "not a default";
    }
    const auto sc = scenario_from_deck(parse_deck_string(
        std::string(c.context) + c.key + " = " + c.value + "\n", "rt.deck"));
    EXPECT_EQ(deck_value(sc, c.key), c.value);
    const auto emitted = deck_from_scenario(sc);
    EXPECT_EQ(emitted.get(c.key), c.value);
    const auto again = scenario_from_deck(emitted);
    EXPECT_EQ(deck_value(again, c.key), c.value);
    EXPECT_EQ(deck_text(deck_from_scenario(again)), deck_text(emitted));
  }
  EXPECT_THROW(deck_value(defaults, "run"), Error);
  EXPECT_THROW(deck_value(defaults, "no_such_key"), Error);
}

TEST(DeckTable, CrossKeyRulesBlameTheirDeckLine) {
  struct Case {
    const char* text;
    const char* where;
    const char* why;
  };
  const Case cases[] = {
      // observe.* keys need observe.probes, and the probe they configure.
      {"observe.every = 5\n", "t.deck:1", "observe.probes"},
      {"observe.probes = msd\nobserve.rdf_bins = 100\n", "t.deck:2",
       "rdf probe"},
      {"observe.probes = rdf\nobserve.csp_threshold = 1\n", "t.deck:2",
       "defects probe"},
      // Bands, timeouts and the NaN drill need their detector.
      {"health.energy_band = 0.01\n", "t.deck:1", "health.energy_drift"},
      {"health.temperature_band = 50\n", "t.deck:1", "health.temperature"},
      {"health.stall_timeout = 10\n", "t.deck:1", "health.stall"},
      {"health.nan = off\nhealth.inject_nan = 3\n", "t.deck:2",
       "health.nan"},
      // dist.* keys need a ranks: backend; the kill drill is a pair.
      {"backend = sharded:2\ndist.timeout = 10\n", "t.deck:2", "ranks:M"},
      {"backend = ranks:2\ndist.kill_rank = 0\n", "t.deck:2",
       "dist.kill_step"},
      {"backend = ranks:2\ndist.kill_step = 3\n", "t.deck:2",
       "dist.kill_rank"},
      {"backend = ranks:2\ndist.kill_rank = 2\ndist.kill_step = 3\n",
       "t.deck:2", "outside backend"},
      // Geometry: bicrystal controls only on a bicrystal, sizing keys and
      // vacancies only off one.
      {"geometry = slab\ngb_atoms = 500\n", "t.deck:2", "grain_boundary"},
      {"tilt_angle_deg = 10\n", "t.deck:1", "grain_boundary"},
      {"geometry = grain_boundary\nreplicate = 8 8 8\n", "t.deck:2",
       "grain_boundary"},
      {"geometry = grain_boundary\nscale = 8\n", "t.deck:2",
       "grain_boundary"},
      {"element = Ta\ngeometry = grain_boundary\nvacancy_fraction = 0.01\n",
       "t.deck:3", "grain_boundary"},
      {"geometry = slab\nobserve.probes = defects\nobserve.gb_axis = y\n",
       "t.deck:3", "grain_boundary"},
      // A checkpoint path without a cadence would never checkpoint.
      {"checkpoint.path = x.ckpt\n", "t.deck:1", "checkpoint.every"},
      // Snapshots stream into the metrics file.
      {"telemetry.snapshot = 0.5\ntelemetry.metrics = off\n", "t.deck:1",
       "telemetry.metrics is off"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    const std::string what = parse_error(c.text);
    EXPECT_NE(what.find(c.where), std::string::npos) << what;
    EXPECT_NE(what.find(c.why), std::string::npos) << what;
  }
  // A CLI override is blamed as one.
  Deck deck = parse_deck_string("backend = sharded:2\n");
  deck.set("dist.timeout", "10");
  try {
    scenario_from_deck(deck);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("<cli override>"), std::string::npos);
  }
}

TEST(DeckTable, NonFiniteRealsAreRejectedWithDeckLineBlame) {
  // NaN passes any `v <= 0` or `v < 0 || v >= 1` check, so every real key
  // must refuse non-finite text outright. One case per key family.
  const char* cases[] = {
      "dt = nan\n",
      "dt = inf\n",
      "vacancy_fraction = nan\n",
      "geometry = grain_boundary\ntilt_angle_deg = nan\n",
      "thermalize = nan\n",
      "thermalize = 300\nramp = 300 inf 10\n",
      "observe.probes = rdf\nobserve.rdf_rcut = nan\n",
      "health.energy_drift = warn\nhealth.energy_band = -inf\n",
      "backend = ranks:2\ndist.timeout = nan\n",
      "telemetry.snapshot = inf\n",
  };
  for (const char* text : cases) {
    SCOPED_TRACE(text);
    const std::string what = parse_error(text);
    const int line =
        static_cast<int>(std::count(text, text + std::strlen(text), '\n'));
    EXPECT_NE(what.find("t.deck:" + std::to_string(line)), std::string::npos)
        << what;
    EXPECT_NE(what.find("not a finite number"), std::string::npos) << what;
  }
}

TEST(DeckTable, DistTimeoutIsBoundedToWholeMillisecondsInAnInt) {
  // The deadline is counted in milliseconds: at least 1, at most INT_MAX.
  const auto timeout_s = [](const char* value) {
    const auto sc = scenario_from_deck(parse_deck_string(
        std::string("backend = ranks:2\ndist.timeout = ") + value + "\n"));
    return sc.dist_timeout_s;
  };
  EXPECT_DOUBLE_EQ(timeout_s("0.001"), 0.001);
  EXPECT_DOUBLE_EQ(timeout_s("2147483"), 2147483.0);
  for (const char* value : {"0.0009", "2147483.5", "3000000", "0", "-1"}) {
    SCOPED_TRACE(value);
    const std::string what = parse_error(
        std::string("backend = ranks:2\ndist.timeout = ") + value + "\n");
    EXPECT_NE(what.find("t.deck:2"), std::string::npos) << what;
    EXPECT_NE(what.find("0.001..2147483"), std::string::npos) << what;
  }
}

TEST(DeckTable, DistTransportAcceptsOnlyShm) {
  // The socket halo carrier is gone: naming it is a deck error that says
  // what is left.
  const std::string what = parse_error(
      "backend = ranks:2\ndist.transport = socket\n", "s.deck");
  EXPECT_NE(what.find("s.deck:2"), std::string::npos) << what;
  EXPECT_NE(what.find("shm"), std::string::npos) << what;
  // The exact override the host benchmark passes still parses.
  Deck deck = parse_deck_string("backend = ranks:4\n");
  const DeckEntry o = parse_override("dist.transport=shm");
  deck.set(o.key, o.value);
  EXPECT_EQ(scenario_from_deck(deck).dist_transport, "shm");
}

TEST(DeckTable, BackendErrorsBlameTheirDeckLine) {
  const std::string what =
      parse_error("name = b\nbackend = ranks:0\n", "b.deck");
  EXPECT_NE(what.find("b.deck:2"), std::string::npos) << what;
  EXPECT_NE(what.find("ranks:0"), std::string::npos) << what;
  EXPECT_NE(parse_error("backend = gpu\n").find("t.deck:1"),
            std::string::npos);
}

TEST(DeckTable, HealthActionsUseTheirTelemetryNames) {
  // The table stores an action as its index in "off|warn|abort".
  for (const auto action :
       {telemetry::HealthAction::kOff, telemetry::HealthAction::kWarn,
        telemetry::HealthAction::kAbort}) {
    Scenario sc;
    sc.health.stall = action;
    EXPECT_EQ(deck_value(sc, "health.stall"),
              telemetry::health_action_name(action));
    const std::string text =
        std::string("health.temperature = ") +
        telemetry::health_action_name(action) + "\n";
    EXPECT_EQ(scenario_from_deck(parse_deck_string(text)).health.temperature,
              action);
  }
  EXPECT_NE(parse_error("health.nan = on\n").find("off|warn|abort"),
            std::string::npos);
  EXPECT_NE(parse_error("health.nan = Abort\n"), "");
  EXPECT_NE(parse_error("health.nan =\n"), "");
}

TEST(DeckTable, HelpListsEveryKeyIncludingTheNveAlias) {
  const auto names = deck_key_names();
  for (const char* key : {"nve", "run", "observe.gb_axis", "dist.kill_step",
                          "health.inject_nan", "telemetry.snapshot"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), key), names.end()) << key;
  }
}

TEST(DeckTable, ResumePinsAreTheTrajectoryKeys) {
  EXPECT_EQ(resume_pinned_keys(false),
            (std::vector<std::string>{"element", "pair_style", "potential",
                                      "dt", "swap_interval",
                                      "rescale_interval"}));
  const auto with_probes = resume_pinned_keys(true);
  EXPECT_EQ(with_probes.size(), 6u + 10u);
  for (const char* free_key : {"observe.prefix", "observe.format", "backend",
                               "dist.transport", "thermo", "seed"}) {
    EXPECT_EQ(std::find(with_probes.begin(), with_probes.end(), free_key),
              with_probes.end())
        << free_key;
  }
}

// The hand-written emitter the table replaced, verbatim: the oracle for
// decks embedded in checkpoints written before the table existed.
Deck old_deck_from_scenario(const Scenario& sc) {
  // Collected as raw pairs and numbered by deck_from_entries — the single
  // authority for file-style line numbering, so overrides appended later
  // (line 0) get the usual whole-schedule-replacement semantics.
  std::vector<std::pair<std::string, std::string>> entries;
  const auto add = [&entries](const std::string& key,
                              const std::string& value) {
    entries.emplace_back(key, value);
  };
  // %.17g round-trips FP64 exactly through the strict parser.
  const auto num = [](double v) { return format("%.17g", v); };

  add("name", sc.name);
  add("element", sc.element);
  // Emitted unconditionally (defaults included): the checkpoint's embedded
  // deck must pin the evaluation path, or a resume could silently continue
  // a tabulated trajectory on the analytic kernels.
  add("pair_style", sc.pair_style);
  add("potential", sc.potential);
  add("geometry", sc.geometry);
  if (sc.geometry == "grain_boundary") {
    add("tilt_angle_deg", num(sc.tilt_angle_deg));
    add("gb_atoms", std::to_string(sc.gb_target_atoms));
  } else if (sc.replicate[0] > 0) {
    add("replicate", format("%d %d %d", sc.replicate[0], sc.replicate[1],
                            sc.replicate[2]));
  } else {
    add("scale", std::to_string(sc.scale));
  }
  if (sc.vacancy_fraction > 0.0) {
    add("vacancy_fraction", num(sc.vacancy_fraction));
  }
  add("backend", sc.backend);
  add("dt", num(sc.dt));
  add("swap_interval", std::to_string(sc.swap_interval));
  add("rescale_interval", std::to_string(sc.rescale_interval));
  add("seed", std::to_string(sc.seed));
  // dist.* keys only under a ranks: backend (the parser rejects them
  // elsewhere) and only off their defaults, so round-trips of non-ranks
  // scenarios are byte-identical to before the keys existed. A checkpoint
  // resumed with --backend=ranks:4 re-ranks: the slab partition is derived
  // from the rank count at restore, never stored.
  if (parse_backend(sc.backend).backend == engine::Backend::kRanks) {
    // Transport is emitted unconditionally: a checkpoint-embedded deck
    // must pin the carrier its run used, not inherit a future default.
    add("dist.transport", sc.dist_transport);
    if (sc.dist_timeout_s != 300.0) add("dist.timeout", num(sc.dist_timeout_s));
    if (sc.dist_kill_rank >= 0) {
      add("dist.kill_rank", std::to_string(sc.dist_kill_rank));
      add("dist.kill_step", std::to_string(sc.dist_kill_step));
    }
  }
  for (const auto& st : sc.schedule) {
    switch (st.kind) {
      case Stage::Kind::kThermalize:
        add("thermalize", num(st.t0));
        break;
      case Stage::Kind::kEquilibrate:
      case Stage::Kind::kQuench:
        add(st.name(), num(st.t0) + " " + std::to_string(st.steps));
        break;
      case Stage::Kind::kRamp:
        add("ramp", num(st.t0) + " " + num(st.t1) + " " +
                        std::to_string(st.steps));
        break;
      case Stage::Kind::kRun:
        add("run", std::to_string(st.steps));
        break;
    }
  }
  if (!sc.xyz_path.empty()) {
    add("xyz", sc.xyz_path);
    add("xyz_every", std::to_string(sc.xyz_every));
  }
  if (!sc.thermo_path.empty()) {
    add("thermo", sc.thermo_path);
    add("thermo_every", std::to_string(sc.thermo_every));
    add("thermo_format", sc.thermo_format);
  }
  if (!sc.summary_path.empty()) add("summary", sc.summary_path);
  if (sc.observe.enabled()) {
    std::string probes;
    for (const auto& kind : sc.observe.probes) {
      probes += (probes.empty() ? "" : " ") + kind;
    }
    add("observe.probes", probes);
    add("observe.every", std::to_string(sc.observe.every));
    const auto add_cadence = [&](const char* key, long every) {
      if (every > 0) add(key, std::to_string(every));
    };
    add_cadence("observe.rdf_every", sc.observe.rdf_every);
    add_cadence("observe.msd_every", sc.observe.msd_every);
    add_cadence("observe.vacf_every", sc.observe.vacf_every);
    add_cadence("observe.defects_every", sc.observe.defects_every);
    add("observe.format", sc.observe.format);
    if (!sc.observe.prefix.empty()) add("observe.prefix", sc.observe.prefix);
    if (sc.observe.has("rdf")) {
      if (sc.observe.rdf_rcut > 0.0) {
        add("observe.rdf_rcut", num(sc.observe.rdf_rcut));
      }
      add("observe.rdf_bins", std::to_string(sc.observe.rdf_bins));
    }
    if (sc.observe.has("defects")) {
      add("observe.csp_threshold", num(sc.observe.csp_threshold));
      if (sc.observe.gb_axis >= 0) {
        add("observe.gb_axis",
            std::string(1, "xyz"[static_cast<std::size_t>(
                                sc.observe.gb_axis)]));
      }
    }
  }
  if (sc.checkpoint_every > 0) {
    add("checkpoint.every", std::to_string(sc.checkpoint_every));
    add("checkpoint.path", sc.checkpoint_path);
  }
  if (!sc.telemetry_trace_path.empty()) {
    add("telemetry.trace", sc.telemetry_trace_path);
  }
  if (!sc.telemetry_metrics_path.empty()) {
    add("telemetry.metrics", sc.telemetry_metrics_path);
  }
  if (sc.telemetry_snapshot_s > 0.0) {
    add("telemetry.snapshot", num(sc.telemetry_snapshot_s));
  }
  // health.* keys: only non-default settings are emitted, and dependent
  // band/timeout keys only when their detector is enabled (the parser
  // rejects them otherwise, and round-tripping must stay clean).
  {
    const telemetry::HealthConfig def;
    const auto act = [](telemetry::HealthAction a) {
      return std::string(telemetry::health_action_name(a));
    };
    if (sc.health.nan != def.nan) add("health.nan", act(sc.health.nan));
    if (sc.health.energy_drift != def.energy_drift) {
      add("health.energy_drift", act(sc.health.energy_drift));
    }
    if (sc.health.energy_drift != telemetry::HealthAction::kOff &&
        sc.health.energy_band != def.energy_band) {
      add("health.energy_band", num(sc.health.energy_band));
    }
    if (sc.health.temperature != def.temperature) {
      add("health.temperature", act(sc.health.temperature));
    }
    if (sc.health.temperature != telemetry::HealthAction::kOff &&
        sc.health.temperature_band_K != def.temperature_band_K) {
      add("health.temperature_band", num(sc.health.temperature_band_K));
    }
    if (sc.health.stall != def.stall) add("health.stall", act(sc.health.stall));
    if (sc.health.stall != telemetry::HealthAction::kOff &&
        sc.health.stall_timeout_s != def.stall_timeout_s) {
      add("health.stall_timeout", num(sc.health.stall_timeout_s));
    }
    if (sc.health.thermo_tail != def.thermo_tail) {
      add("health.thermo_tail", std::to_string(sc.health.thermo_tail));
    }
    if (!sc.health.bundle_dir.empty()) {
      add("health.bundle", sc.health.bundle_dir);
    }
    if (sc.health.inject_nan_step > 0 &&
        sc.health.nan != telemetry::HealthAction::kOff) {
      add("health.inject_nan", std::to_string(sc.health.inject_nan_step));
    }
  }
  return deck_from_entries(entries, "<scenario>");
}


TEST(DeckTable, CanonicalDeckMatchesTheOldEmitterOnEveryScenario) {
  namespace fs = std::filesystem;
  std::vector<std::string> decks;
  for (const auto& entry : fs::recursive_directory_iterator(
           std::string(WSMD_SOURCE_DIR) + "/scenarios")) {
    if (entry.path().extension() == ".deck") decks.push_back(entry.path());
  }
  ASSERT_GE(decks.size(), 7u);
  for (const auto& path : decks) {
    for (const std::string backend : {"reference", "sharded:3", "ranks:2"}) {
      SCOPED_TRACE(path + " on " + backend);
      // As the runner embeds it: the effective backend folded in.
      Scenario sc = scenario_from_deck(parse_deck_file(path));
      sc.backend = backend;
      const std::string now = deck_text(deck_from_scenario(sc));
      const Deck old = old_deck_from_scenario(sc);
      EXPECT_EQ(deck_text(deck_from_scenario(scenario_from_deck(old))), now);
      EXPECT_EQ(deck_text(old), now);
    }
  }
}

}  // namespace
}  // namespace wsmd::scenario
