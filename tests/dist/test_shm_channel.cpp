/// \file test_shm_channel.cpp
/// The shared-memory halo rings (dist/shm_channel): slot wrap-around over
/// many messages, capacity back-pressure and empty-ring timeouts, the
/// per-slot sequence counters catching torn/out-of-protocol writes, the
/// peer-socket death canary, zero-copy publish, and the /dev/shm
/// unlink-before-fork leak proofing.

#include "dist/shm_channel.hpp"

#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "dist/domain.hpp"

namespace wsmd::dist {
namespace {

namespace fs = std::filesystem;

/// Pair segment plus both ends' ring views, the way one rank pair holds
/// them in-process. `a` sends on ring i->j, `b` on j->i.
struct RingFixture {
  ShmPairSegment segment;
  ShmHalo a;  // rank_i's view
  ShmHalo b;  // rank_j's view

  explicit RingFixture(std::size_t slot_bytes = 256)
      : segment(static_cast<long>(::getpid()), 0, 1, slot_bytes),
        a(segment.halo_for(0)),
        b(segment.halo_for(1)) {}
};

/// No peer socket, generous deadline: waits that should never block.
ShmWait patient() { return ShmWait{-1, 5'000}; }
/// No peer socket, near-immediate deadline: waits expected to time out.
ShmWait impatient() { return ShmWait{-1, 20}; }

std::vector<float> payload_of(int step, std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<float>(step * 1000 + static_cast<int>(i));
  return v;
}

TEST(ShmRing, RoundTripsPayloadsThroughBothDirections) {
  RingFixture f;
  const auto sent = payload_of(1, 16);
  f.a.send.publish(Tag::kHaloFprime, sent.data(), sent.size() * sizeof(float),
                   patient());

  const std::size_t size = sent.size() * sizeof(float);
  const std::uint8_t* p = f.b.recv.acquire(Tag::kHaloFprime, size, patient());
  std::vector<float> got(sent.size());
  std::memcpy(got.data(), p, size);
  f.b.recv.release();
  EXPECT_EQ(got, sent);

  // The reverse direction is an independent ring.
  const auto back = payload_of(2, 8);
  f.b.send.publish(Tag::kHaloState, back.data(), back.size() * sizeof(float),
                   patient());
  p = f.a.recv.acquire(Tag::kHaloState, back.size() * sizeof(float),
                       patient());
  EXPECT_EQ(std::memcmp(p, back.data(), back.size() * sizeof(float)), 0);
  f.a.recv.release();
}

TEST(ShmRing, WrapsAroundTheTwoSlotsForManyMessages) {
  // Far more messages than slots: every slot is reused many times and the
  // sequence numbers keep advancing (2n+2 per message n).
  RingFixture f;
  for (int n = 0; n < 64; ++n) {
    const auto sent = payload_of(n, 4 + static_cast<std::size_t>(n % 3));
    f.a.send.publish(n % 2 == 0 ? Tag::kHaloFprime : Tag::kHaloState,
                     sent.data(), sent.size() * sizeof(float), patient());
    const std::size_t size = sent.size() * sizeof(float);
    const std::uint8_t* p = f.b.recv.acquire(
        n % 2 == 0 ? Tag::kHaloFprime : Tag::kHaloState, size, patient());
    EXPECT_EQ(std::memcmp(p, sent.data(), size), 0) << "message " << n;
    f.b.recv.release();
  }
}

TEST(ShmRing, EmptyPayloadsKeepTheSequenceAdvancing) {
  // Pairs with no atoms in a band still publish empty messages so both
  // sides' message counters stay in lockstep.
  RingFixture f;
  for (int n = 0; n < 8; ++n) {
    f.a.send.publish(Tag::kHaloFprime, nullptr, 0, patient());
    f.b.recv.acquire(Tag::kHaloFprime, 0, patient());
    f.b.recv.release();
  }
}

TEST(ShmRing, ZeroCopyPublishGathersDirectlyIntoTheSlot) {
  RingFixture f;
  ShmWait w = patient();
  std::uint8_t* dst = f.a.send.begin_publish(w);
  const auto sent = payload_of(7, 12);
  std::memcpy(dst, sent.data(), sent.size() * sizeof(float));
  f.a.send.commit_publish(Tag::kHaloState, sent.size() * sizeof(float));

  const std::size_t size = sent.size() * sizeof(float);
  const std::uint8_t* p = f.b.recv.acquire(Tag::kHaloState, size, patient());
  EXPECT_EQ(std::memcmp(p, sent.data(), size), 0);
  f.b.recv.release();
}

TEST(ShmRing, FullRingTimesOutWhenTheConsumerStalls) {
  // Two slots: the third publish needs the consumer to advance. With a
  // stalled consumer the bounded wait must surface as TimeoutError, not a
  // hang (the lockstep protocol never reaches this state; the guard is for
  // broken peers).
  RingFixture f;
  const float x = 1.0f;
  f.a.send.publish(Tag::kHaloFprime, &x, sizeof(x), patient());
  f.a.send.publish(Tag::kHaloState, &x, sizeof(x), patient());
  EXPECT_THROW(f.a.send.publish(Tag::kHaloFprime, &x, sizeof(x), impatient()),
               TimeoutError);
}

TEST(ShmRing, EmptyRingTimesOutWhenTheProducerStalls) {
  RingFixture f;
  EXPECT_THROW(f.b.recv.acquire(Tag::kHaloFprime, 4, impatient()),
               TimeoutError);
}

TEST(ShmRing, OversizedPayloadIsRejectedUpFront) {
  RingFixture f(64);
  std::vector<float> big(64);  // 256 bytes > 64-byte slots
  EXPECT_THROW(f.a.send.publish(Tag::kHaloFprime, big.data(),
                                big.size() * sizeof(float), patient()),
               wsmd::Error);
}

TEST(ShmRing, TornWriteIsCaughtByTheSlotSequence) {
  // Build rings over local memory so the test can corrupt the control
  // block the way a torn or out-of-protocol producer write would.
  alignas(64) shm_detail::RingHeader header{};
  header.head.store(0);
  header.tail.store(0);
  std::vector<std::uint8_t> slots(2 * 128);
  ShmRing producer(&header, slots.data(), 128);
  ShmRing consumer(&header, slots.data(), 128);

  const float x = 3.0f;
  producer.publish(Tag::kHaloFprime, &x, sizeof(x), patient());
  // Simulate the producer having started rewriting message 0's slot
  // before the consumer got to it: sequence shows "writing message 2".
  header.slot_seq[0].store(2 * 2 + 1);
  EXPECT_THROW(consumer.acquire(Tag::kHaloFprime, sizeof(x), patient()),
               TransportError);
}

TEST(ShmRing, RewriteDuringInPlaceReadIsCaughtAtRelease) {
  alignas(64) shm_detail::RingHeader header{};
  header.head.store(0);
  header.tail.store(0);
  std::vector<std::uint8_t> slots(2 * 128);
  ShmRing producer(&header, slots.data(), 128);
  ShmRing consumer(&header, slots.data(), 128);

  const float x = 4.0f;
  producer.publish(Tag::kHaloFprime, &x, sizeof(x), patient());
  consumer.acquire(Tag::kHaloFprime, sizeof(x), patient());
  // The producer must not touch the slot until release() advances tail; a
  // sequence bump during the in-place read is a protocol violation.
  header.slot_seq[0].store(2 * 2 + 2);
  EXPECT_THROW(consumer.release(), TransportError);
}

TEST(ShmRing, UnexpectedTagFailsLoudly) {
  RingFixture f;
  const float x = 5.0f;
  f.a.send.publish(Tag::kHaloState, &x, sizeof(x), patient());
  EXPECT_THROW(f.b.recv.acquire(Tag::kHaloFprime, sizeof(x), patient()),
               TransportError);
}

TEST(ShmRing, UnexpectedSizeFailsLoudly) {
  // The consumer knows the halo it needs: a message of any other size is
  // a broken peer, not data to unpack.
  RingFixture f;
  const float x[2] = {5.0f, 6.0f};
  f.a.send.publish(Tag::kHaloFprime, x, sizeof(x), patient());
  EXPECT_THROW(f.b.recv.acquire(Tag::kHaloFprime, sizeof(float), patient()),
               TransportError);
}

TEST(ShmRing, DeadPeerSurfacesThroughTheSocketCanary) {
  // The consumer's wait polls the (idle) peer socket: when the peer's end
  // closes, the wait fails as PeerClosedError immediately — long before a
  // generous dist.timeout would fire.
  RingFixture f;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);  // the "peer" dies
  ShmWait wait{sv[0], 60'000};
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(f.b.recv.acquire(Tag::kHaloFprime, 4, wait),
               PeerClosedError);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  ::close(sv[0]);
}

TEST(ShmRing, ConcurrentProducerConsumerStreamsWithoutCorruption) {
  // A real two-thread stream through shared memory: the consumer verifies
  // every payload byte of 500 messages. Any missed fence or slot-reuse
  // race shows up as a mismatch or a sequence error.
  RingFixture f(512);
  constexpr int kMessages = 500;
  std::thread producer([&] {
    for (int n = 0; n < kMessages; ++n) {
      const auto v = payload_of(n, 64);
      f.a.send.publish(Tag::kHaloFprime, v.data(), v.size() * sizeof(float),
                       patient());
    }
  });
  int mismatches = 0;
  for (int n = 0; n < kMessages; ++n) {
    const auto expect = payload_of(n, 64);
    const std::size_t size = expect.size() * sizeof(float);
    const std::uint8_t* p = f.b.recv.acquire(Tag::kHaloFprime, size, patient());
    if (std::memcmp(p, expect.data(), size) != 0) {
      ++mismatches;
    }
    f.b.recv.release();
  }
  producer.join();
  EXPECT_EQ(mismatches, 0);
}

TEST(ShmPairSegment, NeverLeavesADevShmEntryBehind) {
  // The coordinator unlinks the name before fork: the entry must be gone
  // the moment the constructor returns, so no rank death — SIGKILL
  // included — can leak it.
  const long pid = static_cast<long>(::getpid());
  const std::string entry =
      "/dev/shm" + shm_segment_name(pid, 4, 5);
  {
    ShmPairSegment seg(pid, 4, 5, 128);
    EXPECT_FALSE(fs::exists(entry)) << entry;
    // The mapping itself stays fully usable after the unlink.
    auto halo = seg.halo_for(4);
    const float x = 6.0f;
    halo.send.publish(Tag::kHaloFprime, &x, sizeof(x), patient());
    auto peer = seg.halo_for(5);
    const std::uint8_t* p = peer.recv.acquire(Tag::kHaloFprime, sizeof(x),
                                              patient());
    float got;
    std::memcpy(&got, p, sizeof(got));
    EXPECT_EQ(got, 6.0f);
    peer.recv.release();
  }
  EXPECT_FALSE(fs::exists(entry));
}

TEST(ShmPairSegment, ReclaimsAStaleNameFromACrashedRun) {
  // Debris from a crashed coordinator that recycled our pid: O_EXCL sees
  // EEXIST, the constructor unlinks and retries instead of failing.
  const long pid = static_cast<long>(::getpid());
  const std::string name = shm_segment_name(pid, 6, 7);
  int fd = ::shm_open(name.c_str(), O_CREAT | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  ::close(fd);
  ASSERT_TRUE(fs::exists("/dev/shm" + name));
  ShmPairSegment seg(pid, 6, 7, 64);
  EXPECT_FALSE(fs::exists("/dev/shm" + name));
}

TEST(ShmPairSegment, HaloViewsAreMirroredBetweenTheTwoRanks) {
  ShmPairSegment seg(static_cast<long>(::getpid()), 2, 3, 64);
  auto two = seg.halo_for(2);
  auto three = seg.halo_for(3);
  const float x = 8.0f;
  two.send.publish(Tag::kHaloState, &x, sizeof(x), patient());
  const std::uint8_t* p =
      three.recv.acquire(Tag::kHaloState, sizeof(x), patient());
  EXPECT_EQ(std::memcmp(p, &x, sizeof(x)), 0);
  three.recv.release();
  EXPECT_THROW(seg.halo_for(9), wsmd::Error);
}

}  // namespace
}  // namespace wsmd::dist
