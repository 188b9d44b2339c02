#include "io/xyz.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace wsmd::io {

namespace {

/// Append `v` as std::ostream prints it at precision(10) — printf's %.10g.
void append_g10(std::string& buf, double v) {
  char text[32];
  const auto res = std::to_chars(text, text + sizeof text, v,
                                 std::chars_format::general, 10);
  buf.append(text, res.ptr);
}

/// True when `v`'s %.10g text reads back as a finite number: ten digits
/// round DBL_MAX itself up to 1.797693135e+308, which overflows.
bool g10_reads_back(double v) {
  if (!std::isfinite(v)) return false;
  if (std::fabs(v) < 1e308) return true;
  std::string text;
  append_g10(text, v);
  double back = 0.0;
  return parse_double_strict(text, back);
}

}  // namespace

void write_xyz_frame(std::ostream& os, const Box& box,
                     const std::vector<Vec3d>& positions,
                     const std::vector<int>& types,
                     const std::vector<std::string>& names,
                     const std::string& comment) {
  WSMD_REQUIRE(positions.size() == types.size(),
               "positions/types size mismatch: " << positions.size() << " vs "
                                                 << types.size());
  // Validate before emitting anything: throwing mid-frame would leave a
  // truncated frame on disk that the reader (rightly) rejects wholesale.
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3d& r = positions[i];
    WSMD_REQUIRE(g10_reads_back(r.x) && g10_reads_back(r.y) &&
                     g10_reads_back(r.z),
                 "position of atom " << i << " (" << r.x << ", " << r.y
                                     << ", " << r.z
                                     << ") is non-finite or prints past "
                                        "DBL_MAX");
    WSMD_REQUIRE(static_cast<std::size_t>(types[i]) < names.size(),
                 "atom type without a species name");
  }
  // One reused buffer, written out whenever it passes kChunk bytes.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::string buf;
  buf.reserve(kChunk + 256);
  buf += std::to_string(positions.size());
  const Vec3d len = box.lengths();
  buf += "\nLattice=\"";
  append_g10(buf, len.x);
  buf += " 0 0 0 ";
  append_g10(buf, len.y);
  buf += " 0 0 0 ";
  append_g10(buf, len.z);
  buf += "\" Properties=species:S:1:pos:R:3";
  if (!comment.empty()) {
    buf += ' ';
    buf += comment;
  }
  buf += '\n';
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3d& r = positions[i];
    buf += names[static_cast<std::size_t>(types[i])];
    buf += ' ';
    append_g10(buf, r.x);
    buf += ' ';
    append_g10(buf, r.y);
    buf += ' ';
    append_g10(buf, r.z);
    buf += '\n';
    if (buf.size() >= kChunk) {
      os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void write_xyz_frame(std::ostream& os, const lattice::Structure& s,
                     const std::vector<std::string>& names,
                     const std::string& comment) {
  write_xyz_frame(os, s.box, s.positions, s.types, names, comment);
}

void write_xyz_file(const std::string& path, const lattice::Structure& s,
                    const std::vector<std::string>& names,
                    const std::string& comment) {
  std::ofstream os(path);
  WSMD_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  write_xyz_frame(os, s, names, comment);
  WSMD_REQUIRE(os.good(), "write to '" << path << "' failed");
}

void write_lammps_dump_frame(std::ostream& os, const lattice::Structure& s,
                             long timestep) {
  const auto saved_precision = os.precision(10);
  os << "ITEM: TIMESTEP\n" << timestep << '\n';
  os << "ITEM: NUMBER OF ATOMS\n" << s.size() << '\n';
  os << "ITEM: BOX BOUNDS";
  for (std::size_t a = 0; a < 3; ++a) {
    os << (s.box.periodic[a] ? " pp" : " ff");
  }
  os << '\n';
  os << s.box.lo.x << ' ' << s.box.hi.x << '\n';
  os << s.box.lo.y << ' ' << s.box.hi.y << '\n';
  os << s.box.lo.z << ' ' << s.box.hi.z << '\n';
  os << "ITEM: ATOMS id type x y z\n";
  for (std::size_t i = 0; i < s.size(); ++i) {
    os << (i + 1) << ' ' << (s.types[i] + 1) << ' ' << s.positions[i].x << ' '
       << s.positions[i].y << ' ' << s.positions[i].z << '\n';
  }
  os.precision(saved_precision);
}

std::vector<XyzFrame> read_xyz(std::istream& is) {
  std::vector<XyzFrame> frames;
  std::string line;
  while (std::getline(is, line)) {
    if (trim(line).empty()) continue;  // tolerate trailing blank lines
    long count = -1;
    WSMD_REQUIRE(parse_long_strict(trim(line), count) && count >= 0,
                 "expected atom count, got '" << line << "'");
    const auto natoms = static_cast<std::size_t>(count);
    XyzFrame frame;
    WSMD_REQUIRE(static_cast<bool>(std::getline(is, frame.comment)),
                 "truncated XYZ frame: missing comment line");
    frame.species.reserve(natoms);
    frame.positions.reserve(natoms);
    for (std::size_t i = 0; i < natoms; ++i) {
      WSMD_REQUIRE(static_cast<bool>(std::getline(is, line)),
                   "truncated XYZ frame: " << i << " of " << natoms
                                           << " atom rows");
      const auto fields = split_whitespace(line);
      WSMD_REQUIRE(fields.size() >= 4,
                   "bad XYZ atom row '" << line << "'");
      Vec3d r;
      WSMD_REQUIRE(parse_double_strict(fields[1], r.x) &&
                       parse_double_strict(fields[2], r.y) &&
                       parse_double_strict(fields[3], r.z),
                   "bad XYZ atom row '" << line << "'");
      WSMD_REQUIRE(std::isfinite(r.x) && std::isfinite(r.y) &&
                       std::isfinite(r.z),
                   "non-finite position in XYZ row '" << line << "'");
      frame.species.push_back(fields[0]);
      frame.positions.push_back(r);
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::vector<XyzFrame> read_xyz_file(const std::string& path) {
  std::ifstream is(path);
  WSMD_REQUIRE(is.good(), "cannot open XYZ file '" << path << "'");
  return read_xyz(is);
}

}  // namespace wsmd::io
