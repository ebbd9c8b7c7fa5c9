/**
 * @file
 * IngestRing tests: FIFO semantics, overrun policies, close/drain,
 * shutdown-aware blocking, the TraceSource adapter, the park/wake
 * contract SpscQueue also keeps, and multi-producer/multi-consumer
 * conservation stresses, with and without a close racing the pushes
 * (the TSan targets for the ingest plane).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <thread>
#include <vector>

#include "common/parker.hh"
#include "common/shutdown.hh"
#include "service/ingest.hh"

namespace
{

using namespace pb;
using namespace pb::service;

net::Packet
packetOfSize(size_t n, uint8_t fill)
{
    net::Packet packet;
    packet.bytes.assign(n, fill);
    return packet;
}

class IngestRingTest : public ::testing::Test
{
  protected:
    void SetUp() override { resetShutdownForTest(); }
    void TearDown() override { resetShutdownForTest(); }
};

TEST_F(IngestRingTest, FifoSingleThread)
{
    IngestRing ring(8);
    for (size_t i = 1; i <= 4; i++)
        ASSERT_TRUE(ring.push(packetOfSize(i, 0xab)));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.accepted(), 4u);
    net::Packet out;
    for (size_t i = 1; i <= 4; i++) {
        ASSERT_TRUE(ring.pop(out));
        EXPECT_EQ(out.bytes.size(), i);
    }
    EXPECT_EQ(ring.size(), 0u);
}

TEST_F(IngestRingTest, TryPushDropsWhenFullAndCounts)
{
    IngestRing ring(2);
    EXPECT_TRUE(ring.tryPush(packetOfSize(10, 1)));
    EXPECT_TRUE(ring.tryPush(packetOfSize(10, 2)));
    EXPECT_FALSE(ring.tryPush(packetOfSize(10, 3)))
        << "full ring must refuse under drop policy";
    EXPECT_FALSE(ring.tryPush(packetOfSize(10, 4)));
    EXPECT_EQ(ring.accepted(), 2u);
    EXPECT_EQ(ring.dropped(), 2u);
    net::Packet out;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_TRUE(ring.tryPush(packetOfSize(10, 5)))
        << "space freed by a pop must be reusable";
}

TEST_F(IngestRingTest, CloseDrainsRemainingThenEndsStream)
{
    IngestRing ring(8);
    ASSERT_TRUE(ring.push(packetOfSize(3, 7)));
    ASSERT_TRUE(ring.push(packetOfSize(5, 7)));
    ring.close();
    EXPECT_TRUE(ring.closed());
    EXPECT_FALSE(ring.push(packetOfSize(1, 7)))
        << "closed ring must refuse pushes";
    net::Packet out;
    EXPECT_TRUE(ring.pop(out));
    EXPECT_TRUE(ring.pop(out));
    EXPECT_FALSE(ring.pop(out)) << "closed and drained";
}

TEST_F(IngestRingTest, BlockedProducerUnblocksOnShutdown)
{
    // A producer parked on a full ring must not deadlock a daemon
    // that got SIGTERM: push() polls the shutdown flag and gives up.
    IngestRing ring(1);
    ASSERT_TRUE(ring.push(packetOfSize(4, 1)));
    std::atomic<bool> returned{false};
    std::atomic<bool> result{true};
    std::thread producer([&] {
        result.store(ring.push(packetOfSize(4, 2)));
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(returned.load()) << "push through a full ring?";
    requestShutdown();
    producer.join();
    EXPECT_TRUE(returned.load());
    EXPECT_FALSE(result.load())
        << "push during shutdown must report failure";
}

TEST_F(IngestRingTest, BlockedConsumerUnblocksOnClose)
{
    IngestRing ring(4);
    std::thread consumer([&] {
        net::Packet out;
        EXPECT_FALSE(ring.pop(out));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ring.close();
    consumer.join();
}

TEST_F(IngestRingTest, IngestSourceAdaptsRingToTraceSource)
{
    IngestRing ring(8);
    IngestSource source(ring, "test-ring");
    EXPECT_EQ(source.name(), "test-ring");
    ASSERT_TRUE(ring.push(packetOfSize(9, 0x11)));
    ASSERT_TRUE(ring.push(packetOfSize(13, 0x22)));
    ring.close();
    auto first = source.next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->bytes.size(), 9u);
    auto second = source.next();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->bytes.size(), 13u);
    EXPECT_FALSE(source.next().has_value())
        << "closed+drained ring is end-of-trace";
}

TEST_F(IngestRingTest, MpmcStressConservesEveryPacket)
{
    // 4 producers x 2 consumers through a small ring: every byte
    // pushed must come out exactly once (conservation), with all
    // sides hitting the full/empty wait paths.  This is the TSan
    // target for the MPMC plane.
    constexpr int kProducers = 4;
    constexpr int kConsumers = 2;
    constexpr uint64_t kPerProducer = 5'000;
    IngestRing ring(32);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; p++) {
        producers.emplace_back([&, p] {
            for (uint64_t i = 0; i < kPerProducer; i++) {
                // Size encodes (producer, seq) so the checksum
                // detects loss and duplication, not just counts.
                size_t n = 1 + (p * kPerProducer + i) % 251;
                ASSERT_TRUE(ring.push(packetOfSize(
                    n, static_cast<uint8_t>(p))));
            }
        });
    }

    std::atomic<uint64_t> popped{0};
    std::atomic<uint64_t> byte_sum{0};
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; c++) {
        consumers.emplace_back([&] {
            net::Packet out;
            while (ring.pop(out)) {
                popped.fetch_add(1, std::memory_order_relaxed);
                byte_sum.fetch_add(out.bytes.size(),
                                   std::memory_order_relaxed);
            }
        });
    }

    uint64_t expected_bytes = 0;
    for (int p = 0; p < kProducers; p++)
        for (uint64_t i = 0; i < kPerProducer; i++)
            expected_bytes += 1 + (p * kPerProducer + i) % 251;

    for (auto &producer : producers)
        producer.join();
    ring.close();
    for (auto &consumer : consumers)
        consumer.join();

    EXPECT_EQ(popped.load(), kProducers * kPerProducer);
    EXPECT_EQ(byte_sum.load(), expected_bytes);
    EXPECT_EQ(ring.accepted(), kProducers * kPerProducer);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ring.size(), 0u);
}

/** CPU time consumed by the calling thread so far, in nanoseconds. */
long
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec * 1'000'000'000L + ts.tv_nsec;
}

TEST_F(IngestRingTest, ParkedConsumerWakesOnPush)
{
    // A consumer blocked long past the spin budget must park, then
    // wake promptly when a producer finally pushes.
    IngestRing ring(4);
    std::thread consumer([&] {
        net::Packet out;
        ASSERT_TRUE(ring.pop(out));
        EXPECT_EQ(out.bytes.size(), 7u);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_TRUE(ring.push(packetOfSize(7, 1)));
    consumer.join();
}

TEST_F(IngestRingTest, ParkedConsumerWakesOnClose)
{
    IngestRing ring(4);
    std::thread consumer([&] {
        net::Packet out;
        EXPECT_FALSE(ring.pop(out))
            << "closed-empty ring must end the stream";
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ring.close();
    consumer.join();
}

TEST_F(IngestRingTest, ParkedProducerWakesOnPop)
{
    IngestRing ring(2);
    ASSERT_TRUE(ring.push(packetOfSize(1, 0)));
    ASSERT_TRUE(ring.push(packetOfSize(2, 0)));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(ring.push(packetOfSize(3, 0))); // full: parks
        pushed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_FALSE(pushed.load()) << "push through a full ring?";
    net::Packet out;
    ASSERT_TRUE(ring.pop(out));
    producer.join();
    EXPECT_TRUE(pushed.load());
    ASSERT_TRUE(ring.pop(out));
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out.bytes.size(), 3u);
}

TEST_F(IngestRingTest, IdleConsumerBurnsAlmostNoCpu)
{
    // The daemon's idle contract: a dispatcher parked on an empty
    // ring must not spin a core.  Over ~400 ms of wall time its CPU
    // time must stay a small fraction.
    IngestRing ring(4);
    std::atomic<long> cpu_ns{-1};
    std::thread consumer([&] {
        long before = threadCpuNs();
        net::Packet out;
        ASSERT_TRUE(ring.pop(out));
        cpu_ns.store(threadCpuNs() - before);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    EXPECT_TRUE(ring.push(packetOfSize(1, 0)));
    consumer.join();
    ASSERT_GE(cpu_ns.load(), 0);
    EXPECT_LT(cpu_ns.load(), 200'000'000L)
        << "an idle (parked) consumer burned most of the wait as "
           "CPU time";
}

TEST_F(IngestRingTest, ParkedConsumerWakesEveryTime)
{
    // One packet at a time, each pushed 3 ms (past the spin budget)
    // after the previous one was taken, so the consumer parks before
    // every push.  Each push must wake it directly: a consumer that
    // only noticed on the 50 ms re-check slice would need ~10 s for
    // the 200 packets.
    constexpr int kPackets = 200;
    IngestRing ring(4);
    std::atomic<int> taken{0};
    auto start = std::chrono::steady_clock::now();
    std::thread consumer([&] {
        net::Packet out;
        for (int i = 0; i < kPackets; i++) {
            ASSERT_TRUE(ring.pop(out));
            EXPECT_EQ(out.bytes.size(), size_t(1 + i));
            taken.store(i + 1);
        }
    });
    for (int i = 0; i < kPackets; i++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        if (!ring.push(packetOfSize(1 + i, 0))) {
            ADD_FAILURE() << "push " << i << " refused";
            ring.close();
            break;
        }
        while (taken.load() <= i)
            std::this_thread::yield();
    }
    consumer.join();
    auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds(5))
        << "parked consumer waited out the re-check slice instead of "
           "being woken by the push";
}

TEST_F(IngestRingTest, CloseRacingPushesConservesAcceptedPackets)
{
    // Producers push until refused while another thread closes the
    // ring mid-stream, and consumers drain.  Every push that returned
    // true must be popped exactly once: a ring that checked "closed"
    // before claiming a slot lets a consumer see closed-and-empty,
    // quit, and strand a packet claimed just after.  Many short
    // rounds, each with a different close point, exercise the race.
    constexpr int kRounds = 2000;
    constexpr int kProducers = 3;
    constexpr int kConsumers = 2;
    constexpr uint32_t kMaxPerProducer = 1u << 16;

    // seen[p][i]: times producer p's packet i was popped.
    std::vector<std::vector<std::atomic<uint8_t>>> seen(kProducers);
    for (auto &marks : seen)
        marks = std::vector<std::atomic<uint8_t>>(kMaxPerProducer);

    for (int round = 0; round < kRounds; round++) {
        IngestRing ring(8);
        std::atomic<bool> go{false};
        std::vector<uint32_t> pushed_ok(kProducers, 0);
        std::atomic<uint64_t> popped{0};
        std::atomic<bool> duplicate{false};

        std::vector<std::thread> threads;
        for (int p = 0; p < kProducers; p++) {
            threads.emplace_back([&, p] {
                while (!go.load())
                    std::this_thread::yield();
                // wireLen carries (producer, seq) so a pop can name
                // the exact push it came from.
                for (uint32_t i = 0; i < kMaxPerProducer; i++) {
                    net::Packet packet;
                    packet.wireLen = (uint32_t(p) << 16) | i;
                    if (!ring.push(std::move(packet)))
                        break;
                    pushed_ok[p]++;
                }
            });
        }
        for (int c = 0; c < kConsumers; c++) {
            threads.emplace_back([&] {
                net::Packet out;
                while (ring.pop(out)) {
                    popped.fetch_add(1, std::memory_order_relaxed);
                    if (seen[out.wireLen >> 16][out.wireLen & 0xffff]
                            .fetch_add(1, std::memory_order_relaxed))
                        duplicate.store(true);
                }
            });
        }
        threads.emplace_back([&, round] {
            while (!go.load())
                std::this_thread::yield();
            // Close after a round-dependent number of spins, so the
            // close lands at varied points of the stream.
            for (int i = 0; i < (round % 50) * 100; i++)
                detail::cpuRelax();
            ring.close();
        });
        go.store(true);
        for (auto &t : threads)
            t.join();

        uint64_t accepted = 0;
        for (int p = 0; p < kProducers; p++) {
            accepted += pushed_ok[p];
            for (uint32_t i = 0; i < pushed_ok[p]; i++) {
                ASSERT_EQ(seen[p][i].exchange(0), 1)
                    << "round " << round << ": producer " << p
                    << " packet " << i << " accepted but not popped";
            }
        }
        ASSERT_FALSE(duplicate.load()) << "round " << round;
        ASSERT_EQ(popped.load(), accepted)
            << "round " << round << ": popped a packet never accepted";
        ASSERT_EQ(ring.accepted(), popped.load()) << "round " << round;
        ASSERT_EQ(ring.size(), 0u) << "round " << round;
    }
}

} // namespace
