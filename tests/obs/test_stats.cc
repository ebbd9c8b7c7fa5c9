/**
 * @file
 * Stats-pump tests: concurrent pump-vs-writer stress over the
 * seqlocked windows and the mutexed flow table (the TSan target for
 * the telemetry plane), NDJSON well-formedness and monotonicity, the
 * final-record-on-stop guarantee, the live Prometheus rewrite, and
 * the disabled-telemetry overhead bound (the stats analogue of
 * TracingOverhead).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "core/packetbench.hh"
#include "net/tracegen.hh"
#include "obs/stats.hh"
#include "overhead_gate.hh"

namespace
{

using namespace pb;
using namespace pb::obs;

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

/** Extract the integer following `"<field>": ` in a record line. */
uint64_t
jsonField(const std::string &line, const std::string &field)
{
    std::string needle = "\"" + field + "\": ";
    size_t at = line.find(needle);
    EXPECT_NE(at, std::string::npos) << field << " in " << line;
    if (at == std::string::npos)
        return 0;
    return std::strtoull(line.c_str() + at + needle.size(), nullptr,
                         10);
}

TEST(StatsPump, PumpVsWriterStressProducesValidNdjson)
{
    Telemetry::instance().reset();
    std::string path = ::testing::TempDir() + "stats_stress.ndjson";

    constexpr int kWriters = 4;
    constexpr uint32_t kBaseEngine = 200; // ids private to this test
    std::atomic<bool> done{false};

    StatsPump pump;
    pump.start(path, 10);

    // Writers hammer the seqlocked windows and the flow table while
    // the pump snapshots them concurrently — the race TSan must find
    // nothing wrong with.
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; t++) {
        writers.emplace_back([&, t] {
            EngineTelemetry &telem = Telemetry::instance().engine(
                kBaseEngine + static_cast<uint32_t>(t));
            FlowId id;
            id.src = 0x0a000000u + static_cast<uint32_t>(t);
            id.dst = 0xc0a80001u;
            id.srcPort = 1000;
            id.dstPort = 80;
            id.proto = 17;
            uint64_t n = 0;
            while (!done.load(std::memory_order_relaxed)) {
                uint64_t now = telemetryNowNs();
                telem.record(now, 100 + n % 7, 64, n % 50 == 0);
                telem.topk.observe(n % 13, id, 64, false);
                n++;
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    done.store(true, std::memory_order_relaxed);
    for (auto &w : writers)
        w.join();
    pump.stop();

    auto lines = readLines(path);
    ASSERT_GE(lines.size(), 3u);
    EXPECT_EQ(lines.size(), pump.records());

    uint64_t prev_seq = 0, prev_wall = 0;
    for (const std::string &line : lines) {
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"schema\": \"packetbench.stats.v1\""),
                  std::string::npos);
        EXPECT_NE(line.find("\"engines\": ["), std::string::npos);
        EXPECT_NE(line.find("\"snapshot_ns\": "), std::string::npos);

        uint64_t seq = jsonField(line, "seq");
        uint64_t wall = jsonField(line, "wall_ns");
        EXPECT_GT(seq, prev_seq);
        EXPECT_GT(wall, prev_wall);
        prev_seq = seq;
        prev_wall = wall;
    }
    // The stressed engines show up with flows in the final record.
    EXPECT_NE(lines.back().find("\"topk\": [{"), std::string::npos);
    std::remove(path.c_str());
}

TEST(StatsPump, ShortRunStillEmitsFinalRecord)
{
    std::string path = ::testing::TempDir() + "stats_short.ndjson";
    {
        StatsPump pump;
        // Interval far longer than the run: only the on-stop record.
        pump.start(path, 60'000);
        pump.stop();
        EXPECT_GE(pump.records(), 1u);
    }
    auto lines = readLines(path);
    ASSERT_GE(lines.size(), 1u);
    EXPECT_NE(lines[0].find("packetbench.stats.v1"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(StatsPump, EnabledFlagTracksPumpLifetime)
{
    EXPECT_FALSE(statsEnabled());
    std::string path = ::testing::TempDir() + "stats_flag.ndjson";
    StatsPump pump;
    pump.start(path, 60'000);
    EXPECT_TRUE(statsEnabled());
    pump.stop();
    EXPECT_FALSE(statsEnabled());
    std::remove(path.c_str());
}

TEST(StatsPump, RewritesPrometheusSnapshotInPlace)
{
    std::string stats = ::testing::TempDir() + "stats_prom.ndjson";
    std::string prom = ::testing::TempDir() + "stats_prom.txt";
    StatsPump pump;
    pump.setPromPath(prom);
    pump.start(stats, 60'000);
    pump.stop(); // the final record also rewrites the prom file

    std::ifstream in(prom);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("# HELP "), std::string::npos);
    EXPECT_NE(text.find("obs_stats_records"), std::string::npos);
    std::remove(stats.c_str());
    std::remove(prom.c_str());
}

TEST(StatsPump, PromRenameFailureIsCountedAndLeaksNoTempFile)
{
    // Point promPath at an existing *directory*: writing the staging
    // file succeeds, but rename() onto a non-empty directory fails.
    // The pump must warn, unlink the staging file, count the failure
    // — and keep running.
    std::string stats = ::testing::TempDir() + "stats_promfail.ndjson";
    std::string prom = ::testing::TempDir(); // a directory
    if (prom.back() == '/')
        prom.pop_back();

    Registry &reg = defaultRegistry();
    uint64_t fails_before =
        reg.counter("obs.stats.prom_fail").value();
    uint64_t writes_before =
        reg.counter("obs.stats.prom_writes").value();

    StatsPump pump;
    pump.setPromPath(prom);
    pump.start(stats, 60'000);
    pump.stop(); // one final record -> one failed prom rewrite

    EXPECT_GE(reg.counter("obs.stats.prom_fail").value(),
              fails_before + 1);
    EXPECT_EQ(reg.counter("obs.stats.prom_writes").value(),
              writes_before);

    // The pid-qualified staging file must not be left behind.
    std::string tmp =
        strprintf("%s.tmp.%ld", prom.c_str(),
                  static_cast<long>(getpid()));
    std::ifstream leaked(tmp);
    EXPECT_FALSE(leaked.good()) << "leaked staging file " << tmp;
    std::remove(stats.c_str());
}

TEST(StatsPump, PromSuccessCountsWritesAndLeavesNoTempFile)
{
    std::string stats = ::testing::TempDir() + "stats_promok.ndjson";
    std::string prom = ::testing::TempDir() + "stats_promok.txt";

    Registry &reg = defaultRegistry();
    uint64_t writes_before =
        reg.counter("obs.stats.prom_writes").value();

    StatsPump pump;
    pump.setPromPath(prom);
    pump.start(stats, 60'000);
    pump.stop();

    EXPECT_GE(reg.counter("obs.stats.prom_writes").value(),
              writes_before + 1);
    std::ifstream out(prom);
    EXPECT_TRUE(out.good());
    std::string tmp =
        strprintf("%s.tmp.%ld", prom.c_str(),
                  static_cast<long>(getpid()));
    std::ifstream leaked(tmp);
    EXPECT_FALSE(leaked.good()) << "leaked staging file " << tmp;
    std::remove(stats.c_str());
    std::remove(prom.c_str());
}

TEST(StatsPump, SetStatsEnabledControlsGateWithoutPump)
{
    // The daemon's speed reporter lights the per-packet gate without
    // a pump; the toggle must be visible and restorable.
    ASSERT_FALSE(statsEnabled());
    setStatsEnabled(true);
    EXPECT_TRUE(statsEnabled());
    setStatsEnabled(false);
    EXPECT_FALSE(statsEnabled());
}

/** One pass over a fresh synthetic trace; returns packets run. */
uint64_t
packetPass(core::PacketBench &bench, uint32_t packets,
           bool extra_telemetry)
{
    net::SyntheticTrace trace(net::Profile::MRA, packets, 11);
    EngineTelemetry &telem = Telemetry::instance().engine(777);
    FlowId id;
    id.src = 0x0a0a0a0a;
    id.proto = 6;
    uint64_t fake_now = telemetryNowNs();
    uint64_t done = 0;
    for (uint32_t i = 0; i < packets; i++) {
        auto packet = trace.next();
        if (!packet)
            break;
        if (extra_telemetry) {
            // The marginal cost under test: another copy of the
            // per-packet telemetry hook, gated exactly like the one
            // in processPacket — with no pump running this must
            // compile down to one relaxed load and a branch.
            if (statsEnabled()) {
                fake_now += 1000;
                telem.record(fake_now, 100, 64, false);
                telem.topk.observe(i, id, 64, false);
            }
            bench.processPacket(*packet);
        } else {
            bench.processPacket(*packet);
        }
        done++;
    }
    return done;
}

TEST(StatsOverhead, DisabledTelemetryStaysUnderTwoPercent)
{
    ASSERT_FALSE(statsEnabled());
    test::HeaderSumApp app;
    core::PacketBench bench(app, {});

    // <2% is the acceptance bound; a windowed record is a handful of
    // relaxed atomic adds against a multi-microsecond simulated
    // packet, and the flow gate is one relaxed load and a branch.
    // overhead_gate.hh describes how the measurement keeps host
    // noise out of the comparison.
    constexpr double bound = 0.02;
    test::Overhead m = test::measureOverhead(
        [&](bool extra) { return packetPass(bench, 1'500, extra); },
        bound);
    RecordProperty("measurement", m.describe());
    EXPECT_LT(m.overhead, bound) << m.describe();
}

} // namespace
