/**
 * @file
 * Disabled-tracing overhead microbenchmark: instrumentation points
 * cost one relaxed load and a branch when the tracer is off, so a
 * packet loop carrying *extra* disabled macros must run within 2% of
 * the same loop without them.  overhead_gate.hh describes how the
 * measurement keeps host noise out of the comparison.
 */

#include <gtest/gtest.h>

#include "core/packetbench.hh"
#include "net/tracegen.hh"
#include "obs/tracing.hh"
#include "overhead_gate.hh"

namespace
{

using namespace pb;
using namespace pb::obs;

/** One pass over a fresh synthetic trace; returns packets run. */
uint64_t
packetPass(core::PacketBench &bench, uint32_t packets, bool extra_macros)
{
    net::SyntheticTrace trace(net::Profile::MRA, packets, 11);
    uint64_t done = 0;
    for (uint32_t i = 0; i < packets; i++) {
        auto packet = trace.next();
        if (!packet)
            break;
        if (extra_macros) {
            // The marginal cost under test: additional disabled
            // instrumentation points in the per-packet loop.
            PB_TRACE_SPAN("bench", "extra");
            PB_TRACE_INSTANT("bench", "extra.instant");
            PB_TRACE_COUNTER("bench", "extra.counter", i);
            bench.processPacket(*packet);
        } else {
            bench.processPacket(*packet);
        }
        done++;
    }
    return done;
}

TEST(TracingOverhead, DisabledMacrosStayUnderTwoPercent)
{
    ASSERT_FALSE(traceEnabled());
    test::HeaderSumApp app;
    core::PacketBench bench(app, {});

    // <2% is the acceptance bound; the measured cost of three
    // disabled instrumentation points is a handful of nanoseconds
    // against a multi-microsecond simulated packet.
    constexpr double bound = 0.02;
    test::Overhead m = test::measureOverhead(
        [&](bool extra) { return packetPass(bench, 1'500, extra); },
        bound);
    RecordProperty("measurement", m.describe());
    EXPECT_LT(m.overhead, bound) << m.describe();
}

} // namespace
