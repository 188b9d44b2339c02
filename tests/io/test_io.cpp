/// \file test_io.cpp
/// The trajectory/thermo I/O layer: round-trip fidelity (what the writers
/// emit, the readers parse back bit-identically where the format allows)
/// and NaN/inf rejection — a non-finite value must never silently reach a
/// trajectory or golden file.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "io/thermo_log.hpp"
#include "io/trajectory.hpp"
#include "io/xyz.hpp"
#include "util/error.hpp"

namespace wsmd {
namespace {

lattice::Structure tiny_structure() {
  lattice::Structure s;
  s.box = Box({0, 0, 0}, {10, 10, 10});
  s.positions = {{1.0, 2.0, 3.0}, {4.5, 5.25, 6.125}, {7.0, 8.0, 9.0}};
  s.types = {0, 1, 0};
  return s;
}

TEST(Xyz, SingleFrameRoundTrip) {
  const auto s = tiny_structure();
  std::stringstream ss;
  io::write_xyz_frame(ss, s, {"Cu", "W"}, "test frame");
  const auto frames = io::read_xyz(ss);
  ASSERT_EQ(frames.size(), 1u);
  const auto& f = frames[0];
  ASSERT_EQ(f.size(), s.size());
  EXPECT_EQ(f.species[0], "Cu");
  EXPECT_EQ(f.species[1], "W");
  EXPECT_EQ(f.species[2], "Cu");
  for (std::size_t i = 0; i < s.size(); ++i) {
    // %10g precision: round-trip within 1e-9 relative.
    EXPECT_NEAR(f.positions[i].x, s.positions[i].x, 1e-8);
    EXPECT_NEAR(f.positions[i].y, s.positions[i].y, 1e-8);
    EXPECT_NEAR(f.positions[i].z, s.positions[i].z, 1e-8);
  }
  EXPECT_NE(f.comment.find("Lattice="), std::string::npos);
}

std::string g10(double v) {
  char text[64];
  std::snprintf(text, sizeof text, "%.10g", v);
  return text;
}

TEST(Xyz, FrameBytesMatchPrintfG10) {
  // The writer formats with std::to_chars; the bytes must be exactly what
  // "%.10g" (an ostream at precision 10) prints, edge values included.
  const std::vector<double> edge = {
      0.0,    -0.0,   1e-5,         -1e-5,          1e-300, -1e-300,
      1e15,   -1e15,  0.1,          -2.5,           1.0 / 3, 1e-4,
      1e10,   -7.25,  9999999999.5, 123456789.0123, 123456.7890123,
      -3.25e200};
  std::vector<Vec3d> pos;
  std::vector<int> types;
  // Enough rows to cross the writer's internal flush threshold.
  for (std::size_t i = 0; i < 4000; ++i) {
    pos.push_back({edge[i % edge.size()], edge[(i / 3) % edge.size()],
                   -edge[(i / 7) % edge.size()] / (1.0 + 1e-3 * i)});
    types.push_back(static_cast<int>(i % 2));
  }
  const Box box({-1.5, 0.0, 2.0}, {10.123456789012, 7.0, 1e6 + 2.0});
  std::ostringstream os;
  io::write_xyz_frame(os, box, pos, types, {"Cu", "W"}, "step=7");

  const Vec3d len = box.lengths();
  std::string want = std::to_string(pos.size()) + "\nLattice=\"" +
                     g10(len.x) + " 0 0 0 " + g10(len.y) + " 0 0 0 " +
                     g10(len.z) +
                     "\" Properties=species:S:1:pos:R:3 step=7\n";
  for (std::size_t i = 0; i < pos.size(); ++i) {
    want += (types[i] == 0 ? "Cu " : "W ") + g10(pos[i].x) + " " +
            g10(pos[i].y) + " " + g10(pos[i].z) + "\n";
  }
  ASSERT_EQ(os.str(), want);

  std::istringstream is(os.str());
  const auto frames = io::read_xyz(is);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].size(), pos.size());
  EXPECT_EQ(frames[0].comment.substr(0, 9), "Lattice=\"");
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_EQ(frames[0].species[i], types[i] == 0 ? "Cu" : "W");
    for (std::size_t a = 0; a < 3; ++a) {
      EXPECT_EQ(frames[0].positions[i][a],
                std::strtod(g10(pos[i][a]).c_str(), nullptr));
    }
  }
}

TEST(Xyz, RejectsNonFinitePositions) {
  auto s = tiny_structure();
  s.positions[1].y = std::numeric_limits<double>::quiet_NaN();
  std::stringstream ss;
  EXPECT_THROW(io::write_xyz_frame(ss, s, {"Cu", "W"}), Error);
  s.positions[1].y = std::numeric_limits<double>::infinity();
  EXPECT_THROW(io::write_xyz_frame(ss, s, {"Cu", "W"}), Error);
}

TEST(Xyz, SubnormalCoordinatesRoundTrip) {
  // %.10g writes subnormals as such; the reader must take them back.
  auto s = tiny_structure();
  s.positions[0].x = 1e-310;
  s.positions[1].z = 4.9e-324;  // the smallest subnormal
  s.positions[2].y = -1e-310;
  std::stringstream ss;
  io::write_xyz_frame(ss, s, {"Cu", "W"});
  const auto frames = io::read_xyz(ss);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].positions[0].x, 1e-310);
  EXPECT_EQ(frames[0].positions[1].z, 4.9e-324);
  EXPECT_EQ(frames[0].positions[2].y, -1e-310);
}

TEST(Xyz, RefusesCoordinatesThatPrintPastDblMax) {
  // DBL_MAX prints as 1.797693135e+308 at ten digits, which overflows on
  // reading: refused before anything is written, like NaN.
  auto s = tiny_structure();
  s.positions[2].x = std::numeric_limits<double>::max();
  std::stringstream ss;
  EXPECT_THROW(io::write_xyz_frame(ss, s, {"Cu", "W"}), Error);
  EXPECT_TRUE(ss.str().empty());
  s.positions[2].x = -std::numeric_limits<double>::max();
  EXPECT_THROW(io::write_xyz_frame(ss, s, {"Cu", "W"}), Error);
  // The largest ten-digit value below DBL_MAX still round-trips.
  s.positions[2].x = 1.797693134e308;
  io::write_xyz_frame(ss, s, {"Cu", "W"});
  EXPECT_EQ(io::read_xyz(ss)[0].positions[2].x, 1.797693134e308);
}

TEST(Xyz, RejectsUnnamedType) {
  const auto s = tiny_structure();  // types 0 and 1
  std::stringstream ss;
  EXPECT_THROW(io::write_xyz_frame(ss, s, {"Cu"}), Error);
}

TEST(Xyz, ReaderRejectsTruncatedFrame) {
  std::stringstream ss("3\ncomment\nCu 1 2 3\nCu 4 5 6\n");
  EXPECT_THROW(io::read_xyz(ss), Error);
}

TEST(Xyz, ReaderRejectsNonFiniteRow) {
  std::stringstream ss("1\ncomment\nCu nan 2 3\n");
  EXPECT_THROW(io::read_xyz(ss), Error);
}

TEST(Trajectory, MultiFrameRoundTrip) {
  const auto s = tiny_structure();
  const std::string path = ::testing::TempDir() + "wsmd_traj_test.xyz";
  {
    io::XyzTrajectoryWriter w(path, {"Cu", "W"});
    auto moving = s.positions;
    for (int frame = 0; frame < 4; ++frame) {
      w.append(s.box, moving, s.types, "step=" + std::to_string(frame));
      for (auto& r : moving) r.x += 0.25;
    }
    EXPECT_EQ(w.frames_written(), 4u);
  }
  const auto frames = io::read_xyz_file(path);
  ASSERT_EQ(frames.size(), 4u);
  for (int frame = 0; frame < 4; ++frame) {
    const auto& f = frames[static_cast<std::size_t>(frame)];
    ASSERT_EQ(f.size(), s.size());
    EXPECT_NEAR(f.positions[0].x, s.positions[0].x + 0.25 * frame, 1e-8);
    EXPECT_NE(f.comment.find("step=" + std::to_string(frame)),
              std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Trajectory, AppendRejectsNaNWithoutTruncatingTheFile) {
  const auto s = tiny_structure();
  const std::string path = ::testing::TempDir() + "wsmd_traj_nan.xyz";
  io::XyzTrajectoryWriter w(path, {"Cu", "W"});
  w.append(s.box, s.positions, s.types);
  auto bad = s.positions;
  bad[0].z = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(w.append(s.box, bad, s.types), Error);
  EXPECT_EQ(w.frames_written(), 1u);
  // Validation happens before any bytes are emitted, so the earlier frame
  // stays readable — a NaN must not poison the trajectory file.
  const auto frames = io::read_xyz_file(path);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].size(), s.size());
  std::remove(path.c_str());
}

TEST(ThermoLog, CsvRoundTripIsExact) {
  std::stringstream ss;
  std::vector<io::ThermoSample> in;
  for (int k = 0; k < 5; ++k) {
    io::ThermoSample s;
    s.step = k * 10;
    s.potential_energy = -2720.182091791 + 0.137 * k;
    s.kinetic_energy = 32.3821242393 * (k + 1) / 5.0;
    s.total_energy = s.potential_energy + s.kinetic_energy;
    s.temperature = 289.9528916 + k;
    in.push_back(s);
  }
  {
    io::ThermoLogger log(ss, io::ThermoFormat::kCsv);
    for (const auto& s : in) log.write(s);
    EXPECT_EQ(log.samples_written(), in.size());
  }
  const auto out = io::read_thermo_csv(ss);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t k = 0; k < in.size(); ++k) {
    // 17 significant digits: doubles round-trip bit-exactly.
    EXPECT_EQ(out[k].step, in[k].step);
    EXPECT_EQ(out[k].potential_energy, in[k].potential_energy);
    EXPECT_EQ(out[k].kinetic_energy, in[k].kinetic_energy);
    EXPECT_EQ(out[k].total_energy, in[k].total_energy);
    EXPECT_EQ(out[k].temperature, in[k].temperature);
  }
}

TEST(ThermoLog, RejectsNonFiniteSamples) {
  std::stringstream ss;
  io::ThermoLogger log(ss, io::ThermoFormat::kCsv);
  io::ThermoSample s;
  s.step = 1;
  s.potential_energy = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(log.write(s), Error);
  s.potential_energy = 0.0;
  s.temperature = -std::numeric_limits<double>::infinity();
  EXPECT_THROW(log.write(s), Error);
  s.temperature = 300.0;
  log.write(s);  // sane sample still accepted afterwards
  EXPECT_EQ(log.samples_written(), 1u);
}

TEST(ThermoLog, RejectsBackwardsSteps) {
  std::stringstream ss;
  io::ThermoLogger log(ss, io::ThermoFormat::kCsv);
  io::ThermoSample s;
  s.step = 10;
  log.write(s);
  s.step = 10;
  log.write(s);  // equal steps allowed (e.g. post-thermalize resample)
  s.step = 9;
  EXPECT_THROW(log.write(s), Error);
}

TEST(ThermoLog, JsonLinesEmitsOneObjectPerSample) {
  std::stringstream ss;
  {
    io::ThermoLogger log(ss, io::ThermoFormat::kJsonLines);
    io::ThermoSample s;
    s.step = 3;
    s.potential_energy = -1.5;
    s.total_energy = -1.25;
    s.kinetic_energy = 0.25;
    s.temperature = 12.5;
    log.write(s);
  }
  const std::string line = ss.str();
  EXPECT_NE(line.find("\"step\": 3"), std::string::npos);
  EXPECT_NE(line.find("\"temperature_K\": 12.5"), std::string::npos);
  EXPECT_EQ(line.find('\n'), line.size() - 1);  // exactly one line
}

TEST(ThermoLog, ReaderRejectsBadHeader) {
  std::stringstream ss("step,foo\n1,2\n");
  EXPECT_THROW(io::read_thermo_csv(ss), Error);
}

TEST(ThermoLog, ReaderRejectsMalformedRow) {
  std::stringstream ss(
      "step,potential_eV,kinetic_eV,total_eV,temperature_K\n"
      "abc,1,2,3,4\n");
  EXPECT_THROW(io::read_thermo_csv(ss), Error);
  // Trailing garbage must not silently truncate (e.g. a bad merge).
  std::stringstream ss2(
      "step,potential_eV,kinetic_eV,total_eV,temperature_K\n"
      "50abc,1,2,3,4\n");
  EXPECT_THROW(io::read_thermo_csv(ss2), Error);
  std::stringstream ss3(
      "step,potential_eV,kinetic_eV,total_eV,temperature_K\n"
      "50,-2720.18<<<,2,3,4\n");
  EXPECT_THROW(io::read_thermo_csv(ss3), Error);
}

TEST(Xyz, ReaderRejectsNegativeAtomCount) {
  std::stringstream ss("-3\ncomment\n");
  EXPECT_THROW(io::read_xyz(ss), Error);
}

TEST(ThermoLog, FormatNames) {
  EXPECT_EQ(io::thermo_format_from_name("csv"), io::ThermoFormat::kCsv);
  EXPECT_EQ(io::thermo_format_from_name("jsonl"),
            io::ThermoFormat::kJsonLines);
  EXPECT_THROW(io::thermo_format_from_name("xml"), Error);
}

}  // namespace
}  // namespace wsmd
