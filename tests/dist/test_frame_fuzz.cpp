/// \file test_frame_fuzz.cpp
/// Seeded mutation fuzzing of every reader of peer bytes in the dist
/// layer: control-plane frames (Channel::recv, recv_pod, Unpacker, the
/// kRestore state unpack) and the shm ring slot headers (ShmRing::acquire
/// and release). Every mutated, truncated or cut-off input must end in a
/// TransportError subclass — never a crash, an allocation failure, a hang
/// or another exception type — because the coordinator turns only
/// TransportError into a rank failure with a diagnostic bundle.
/// Deterministic: a fixed seed and a fixed case list.

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <new>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/protocol.hpp"
#include "dist/shm_channel.hpp"
#include "dist/transport.hpp"

namespace wsmd::dist {
namespace {

constexpr int kMs = 2'000;
constexpr std::uint64_t kSeed = 0x5EED'F0A5'7E11ULL;

/// The wire header, mirrored field by field (transport.cpp keeps its own
/// copy private).
struct WireHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t tag = 0;
  std::uint64_t length = 0;
};
static_assert(sizeof(WireHeader) == 16);
constexpr std::size_t kLengthOffset = 8;

std::vector<std::uint8_t> frame(Tag tag,
                                const std::vector<std::uint8_t>& payload) {
  WireHeader h;
  h.tag = static_cast<std::uint16_t>(tag);
  h.length = payload.size();
  std::vector<std::uint8_t> wire(sizeof(h) + payload.size());
  std::memcpy(wire.data(), &h, sizeof(h));
  if (!payload.empty()) {
    std::memcpy(wire.data() + sizeof(h), payload.data(), payload.size());
  }
  return wire;
}

void set_u64(std::vector<std::uint8_t>& wire, std::size_t at,
             std::uint64_t v) {
  std::memcpy(wire.data() + at, &v, sizeof(v));
}
std::uint64_t get_u64(const std::vector<std::uint8_t>& wire, std::size_t at) {
  std::uint64_t v;
  std::memcpy(&v, wire.data() + at, sizeof(v));
  return v;
}

/// The ways the coordinator and the ranks read a frame.
enum class Reader {
  kPod,    ///< recv_pod<StepRecord>: every per-step reply
  kArray,  ///< Unpacker::get_array<float>: the state gather
  kState,  ///< unpack_saved_state: the kRestore scatter
};
constexpr Reader kReaders[] = {Reader::kPod, Reader::kArray, Reader::kState};

/// An intact frame for `reader`, with the byte offset of its first array
/// count (0 for the POD frame, which has none).
struct Sample {
  std::vector<std::uint8_t> wire;
  std::size_t count_at = 0;
};

Sample sample(Reader reader) {
  Packer p;
  switch (reader) {
    case Reader::kPod: {
      StepRecord rec;
      rec.step = 7;
      rec.pe_embed = -1.5;
      p.put(rec);
      return {frame(Tag::kStepDone, p.bytes()), 0};
    }
    case Reader::kArray: {
      const std::vector<float> values = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
      p.put_array(values.data(), values.size());
      return {frame(Tag::kStateSlice, p.bytes()), sizeof(WireHeader)};
    }
    case Reader::kState: {
      core::WseMd::SavedState st;
      st.step = 12;
      st.grid_width = 3;
      st.grid_height = 2;
      st.b = 1;
      st.positions = {Vec3d(1, 2, 3), Vec3d(4, 5, 6)};
      st.velocities = {Vec3d(0.1, 0.2, 0.3), Vec3d(0.4, 0.5, 0.6)};
      st.core_atoms = {0, -1, 1, -1, -1, -1};
      st.initial_positions = st.positions;
      pack_saved_state(p, st);
      // The positions count follows step, two doubles and three ints.
      return {frame(Tag::kRestore, p.bytes()), sizeof(WireHeader) + 36};
    }
  }
  return {};
}

void read_with(Reader reader, const Channel& ch, int timeout_ms) {
  switch (reader) {
    case Reader::kPod:
      ch.recv_pod<StepRecord>(Tag::kStepDone, timeout_ms);
      return;
    case Reader::kArray: {
      const auto bytes = ch.recv(Tag::kStateSlice, timeout_ms);
      Unpacker u(bytes);
      u.get_array<float>();
      return;
    }
    case Reader::kState: {
      const auto bytes = ch.recv(Tag::kRestore, timeout_ms);
      Unpacker u(bytes);
      unpack_saved_state(u);
      return;
    }
  }
}

/// How `read` ended: "ok", "transport" for a TransportError subclass, or
/// the type and text of anything else it threw.
template <typename Read>
std::string outcome(Read&& read) {
  try {
    read();
    return "ok";
  } catch (const TransportError&) {
    return "transport";
  } catch (const std::bad_alloc&) {
    return "std::bad_alloc";
  } catch (const std::length_error& e) {
    return std::string("std::length_error: ") + e.what();
  } catch (const Error& e) {
    return std::string("wsmd::Error: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("std::exception: ") + e.what();
  }
}

/// Put `wire` on a fresh socketpair, close the writing end (a short frame
/// ends in EOF, not a wait), and read it back with `reader`.
std::string read_wire(Reader reader, const std::vector<std::uint8_t>& wire) {
  auto pair = make_channel_pair();
  if (!wire.empty()) {
    EXPECT_EQ(::write(pair.a.fd(), wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
  }
  pair.a.close();
  return outcome([&] { read_with(reader, pair.b, kMs); });
}

const char* name(Reader reader) {
  switch (reader) {
    case Reader::kPod: return "pod";
    case Reader::kArray: return "array";
    case Reader::kState: return "state";
  }
  return "?";
}

TEST(FrameFuzz, IntactFramesReadBack) {
  for (const Reader reader : kReaders) {
    EXPECT_EQ(read_wire(reader, sample(reader).wire), "ok") << name(reader);
  }
}

TEST(FrameFuzz, EveryHeaderByteFlipIsATransportError) {
  // Each header field — magic, version, tag, length — byte by byte, with
  // fixed masks plus seeded random ones. A longer length runs into EOF, a
  // shorter one leaves the body short; both are transport errors.
  std::mt19937_64 rng(kSeed);
  for (const Reader reader : kReaders) {
    const auto intact = sample(reader).wire;
    for (std::size_t byte = 0; byte < sizeof(WireHeader); ++byte) {
      std::vector<std::uint8_t> masks = {0x01, 0x80, 0xFF};
      for (int k = 0; k < 4; ++k) {
        masks.push_back(static_cast<std::uint8_t>(rng() % 255 + 1));
      }
      for (const std::uint8_t mask : masks) {
        auto wire = intact;
        wire[byte] ^= mask;
        EXPECT_EQ(read_wire(reader, wire), "transport")
            << name(reader) << " header byte " << byte << " ^ 0x" << std::hex
            << static_cast<int>(mask);
      }
    }
  }
}

TEST(FrameFuzz, RandomHeadersAreTransportErrors) {
  std::mt19937_64 rng(kSeed + 1);
  for (const Reader reader : kReaders) {
    const auto intact = sample(reader).wire;
    for (int n = 0; n < 64; ++n) {
      auto wire = intact;
      for (std::size_t b = 0; b < sizeof(WireHeader); ++b) {
        wire[b] = static_cast<std::uint8_t>(rng());
      }
      EXPECT_EQ(read_wire(reader, wire), "transport")
          << name(reader) << " random header " << n;
    }
  }
}

TEST(FrameFuzz, HugeLengthsAreRejectedWithoutAllocating) {
  // 2^62 used to surface as std::bad_alloc and 2^63 as std::length_error.
  // Lengths up to the cap are legal headers: past 64 MiB the payload
  // buffer grows only with arriving bytes, so a lying length ends in EOF,
  // not a 16 GiB zero-fill.
  for (const Reader reader : kReaders) {
    for (const std::uint64_t length :
         {kMaxFrameBytes, kMaxFrameBytes + 1, std::uint64_t{1} << 32,
          std::uint64_t{1} << 62, std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
      auto wire = sample(reader).wire;
      set_u64(wire, kLengthOffset, length);
      EXPECT_EQ(read_wire(reader, wire), "transport")
          << name(reader) << " length " << length;
    }
  }
}

TEST(FrameFuzz, CorruptArrayCountsAreTransportErrors) {
  // A count larger than the payload, including ones whose byte size
  // wraps around 2^64.
  for (const Reader reader : {Reader::kArray, Reader::kState}) {
    const Sample s = sample(reader);
    const std::uint64_t count = get_u64(s.wire, s.count_at);
    for (const std::uint64_t bump :
         {std::uint64_t{1}, std::uint64_t{1} << 20, std::uint64_t{1} << 32,
          std::uint64_t{1} << 61, std::uint64_t{1} << 62,
          std::uint64_t{1} << 63, ~count}) {
      auto wire = s.wire;
      set_u64(wire, s.count_at, count + bump);
      EXPECT_EQ(read_wire(reader, wire), "transport")
          << name(reader) << " count + " << bump;
    }
  }
}

TEST(FrameFuzz, EveryTruncationIsATransportError) {
  // Cut anywhere — inside the header or inside the payload — then EOF.
  for (const Reader reader : kReaders) {
    const auto intact = sample(reader).wire;
    for (std::size_t cut = 0; cut < intact.size(); ++cut) {
      const std::vector<std::uint8_t> wire(intact.begin(),
                                           intact.begin() + cut);
      EXPECT_EQ(read_wire(reader, wire), "transport")
          << name(reader) << " cut at " << cut << "/" << intact.size();
    }
  }
}

TEST(FrameFuzz, PeerClosingMidFrameIsATransportError) {
  // The reader is already blocked on the body when the writer dies.
  for (const Reader reader : kReaders) {
    const auto intact = sample(reader).wire;
    auto pair = make_channel_pair();
    std::thread writer([&] {
      const std::size_t half = sizeof(WireHeader) + 4;
      EXPECT_EQ(::write(pair.a.fd(), intact.data(), half),
                static_cast<ssize_t>(half));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      pair.a.close();
    });
    EXPECT_EQ(outcome([&] { read_with(reader, pair.b, kMs); }), "transport")
        << name(reader);
    writer.join();
  }
}

TEST(FrameFuzz, StalledPeerMidFrameIsATransportError) {
  // Header only, writer alive and silent: the deadline fires.
  for (const Reader reader : kReaders) {
    const auto intact = sample(reader).wire;
    auto pair = make_channel_pair();
    ASSERT_EQ(::write(pair.a.fd(), intact.data(), sizeof(WireHeader)),
              static_cast<ssize_t>(sizeof(WireHeader)));
    EXPECT_EQ(outcome([&] { read_with(reader, pair.b, 50); }), "transport")
        << name(reader);
  }
}

// ---- shm ring slot headers --------------------------------------------------

enum class SlotField { kSeq, kTag, kSize };

const char* name(SlotField field) {
  switch (field) {
    case SlotField::kSeq: return "seq";
    case SlotField::kTag: return "tag";
    case SlotField::kSize: return "size";
  }
  return "?";
}

void corrupt(shm_detail::RingHeader& h, std::size_t slot, SlotField field,
             std::uint64_t mask) {
  switch (field) {
    case SlotField::kSeq:
      h.slot_seq[slot].fetch_xor(mask);
      return;
    case SlotField::kTag:
      h.slot_tag[slot].fetch_xor(static_cast<std::uint16_t>(mask));
      return;
    case SlotField::kSize:
      h.slot_size[slot].fetch_xor(mask);
      return;
  }
}

/// A live pair segment that has carried `before` good messages; the next
/// message (4 floats of F') is published and then corrupted in `field`
/// before or during the consumer's read. Returns how the read ended.
std::string corrupted_slot_read(int before, SlotField field,
                                std::uint64_t mask, bool during_read) {
  ShmPairSegment seg(static_cast<long>(::getpid()), 0, 1, 256);
  ShmHalo producer = seg.halo_for(0);
  ShmHalo consumer = seg.halo_for(1);
  const ShmWait wait{-1, kMs};
  const float payload[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  for (int n = 0; n < before; ++n) {
    producer.send.publish(Tag::kHaloFprime, payload, sizeof(payload), wait);
    consumer.recv.acquire(Tag::kHaloFprime, sizeof(payload), wait);
    consumer.recv.release();
  }
  producer.send.publish(Tag::kHaloFprime, payload, sizeof(payload), wait);
  shm_detail::RingHeader& h = *consumer.recv.header();
  const auto slot = static_cast<std::size_t>(before) % shm_detail::kSlots;
  return outcome([&] {
    if (!during_read) corrupt(h, slot, field, mask);
    consumer.recv.acquire(Tag::kHaloFprime, sizeof(payload), wait);
    if (during_read) corrupt(h, slot, field, mask);
    consumer.recv.release();
  });
}

TEST(ShmSlotFuzz, CorruptSlotHeadersAreTransportErrors) {
  std::mt19937_64 rng(kSeed + 2);
  for (const SlotField field :
       {SlotField::kSeq, SlotField::kTag, SlotField::kSize}) {
    std::vector<std::uint64_t> masks = {1, 2, 0x80, 0xFFFF};
    if (field != SlotField::kTag) {
      masks.push_back(std::uint64_t{1} << 40);
      masks.push_back(~std::uint64_t{0});
    }
    for (int k = 0; k < 4; ++k) masks.push_back(rng() % 0xFFFF + 1);
    for (const std::uint64_t mask : masks) {
      const int before = static_cast<int>(rng() % 5);
      EXPECT_EQ(corrupted_slot_read(before, field, mask, false), "transport")
          << name(field) << " ^ " << mask << " after " << before;
    }
  }
}

TEST(ShmSlotFuzz, SequenceChangedDuringTheInPlaceReadIsATransportError) {
  std::mt19937_64 rng(kSeed + 3);
  for (int k = 0; k < 8; ++k) {
    const std::uint64_t mask = rng() % 0xFFFF + 1;
    const int before = static_cast<int>(rng() % 5);
    EXPECT_EQ(corrupted_slot_read(before, SlotField::kSeq, mask, true),
              "transport")
        << "seq ^ " << mask << " after " << before;
  }
}

}  // namespace
}  // namespace wsmd::dist
