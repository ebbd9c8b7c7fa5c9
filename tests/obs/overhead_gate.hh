/**
 * @file
 * Shared measurement for the disabled-instrumentation overhead gates
 * (TracingOverhead, StatsOverhead): a packet loop carrying *extra*
 * disabled instrumentation must run within a bound of the same loop
 * without it.
 *
 * The measurement is built so that host noise cannot pass for
 * overhead:
 *
 *  - Trials are time-based: each adds up whole passes over the
 *    workload until it has run for at least minTrialNs, however fast
 *    one pass is.
 *  - Each round runs three trials — the base loop A, the loop with
 *    the extra instrumentation B, and the base loop again A' —
 *    interleaved pass by pass in a rotating order, so every
 *    configuration takes every position equally often and a change
 *    in host speed hits all three alike.
 *  - A round's overhead is the median over its cycles (one pass of
 *    each trial) of B/A - 1, and the measurement's is the median over
 *    the rounds.  The same estimator over A'/A - 1 measures the noise
 *    floor: the "overhead" of a configuration against itself.
 *  - A measurement whose noise floor reaches half the bound cannot
 *    resolve the bound, so it is retaken (a few times at most).  The
 *    bound itself never moves.
 */

#ifndef PB_TESTS_OBS_OVERHEAD_GATE_HH
#define PB_TESTS_OBS_OVERHEAD_GATE_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/app.hh"
#include "isa/assembler.hh"
#include "sim/memmap.hh"

namespace pb::test
{

/** Table 2-style header-processing handler: checksum the header. */
class HeaderSumApp : public core::Application
{
  public:
    std::string name() const override { return "header-sum"; }

    isa::Program
    setup(sim::Memory &mem) override
    {
        (void)mem;
        return isa::Assembler(sim::layout::textBase).assemble(R"(
main:
    li  t0, 0
    li  t1, 0
loop:
    lw  t2, 0(a0)
    add t1, t1, t2
    addi a0, a0, 4
    addi t0, t0, 4
    blt t0, a1, loop
    li  a1, 1
    sys 1
)");
    }
};

/** One overhead measurement. */
struct Overhead
{
    double overhead = 0;     ///< median of B/A - 1
    double noiseFloor = 0;   ///< median of A'/A - 1
    double baseNsPerPkt = 0; ///< median A pass, ns per packet
    int attempts = 0;        ///< measurements taken (retakes + 1)

    std::string
    describe() const
    {
        return "overhead " + std::to_string(overhead * 100) +
               "%, A-vs-A noise floor " +
               std::to_string(noiseFloor * 100) + "%, base " +
               std::to_string(baseNsPerPkt) + " ns/pkt, " +
               std::to_string(attempts) + " attempt(s)";
    }
};

inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * Measure the overhead of the extra instrumentation.  @p pass runs
 * one pass over the workload — with the extra instrumentation when
 * its argument is true — and returns the packets it processed.
 */
template <typename Pass>
Overhead
measureOverhead(Pass pass, double bound)
{
    using clock = std::chrono::steady_clock;
    constexpr uint64_t minTrialNs = 200'000'000;
    constexpr int rounds = 5;
    constexpr int maxAttempts = 3;

    // ns per packet of one pass; adds the pass's time to @p spent.
    auto timePass = [&](bool extra, uint64_t &spent) {
        auto start = clock::now();
        uint64_t packets = pass(extra);
        uint64_t ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock::now() - start)
                .count());
        spent += ns;
        return static_cast<double>(ns) /
               static_cast<double>(std::max<uint64_t>(packets, 1));
    };

    // Warm-up: fault in code paths, caches, and the first-touch cost
    // of simulated memory before timing anything.
    for (uint64_t warm = 0; warm < minTrialNs / 4;)
        timePass(false, warm);

    Overhead best;
    for (int attempt = 1; attempt <= maxAttempts; attempt++) {
        std::vector<double> ab, aa, base;
        for (int r = 0; r < rounds; r++) {
            // The round's three trials (A, B, A') interleave pass by
            // pass, in an order rotated every cycle, until each has
            // run for minTrialNs.  Comparing the passes of one cycle
            // and taking the median over cycles keeps a change in
            // host speed, or a burst of other load, from landing on
            // one configuration only.
            uint64_t spent[3] = {0, 0, 0};
            std::vector<double> cab, caa, ca;
            for (int cycle = 0;
                 std::min({spent[0], spent[1], spent[2]}) < minTrialNs;
                 cycle++) {
                double t[3] = {};
                for (int k = 0; k < 3; k++) {
                    int which = (k + cycle) % 3;
                    t[which] = timePass(which == 1, spent[which]);
                }
                cab.push_back(t[1] / t[0] - 1.0);
                caa.push_back(t[2] / t[0] - 1.0);
                ca.push_back(t[0]);
            }
            ab.push_back(median(cab));
            aa.push_back(median(caa));
            base.push_back(median(ca));
        }
        Overhead m{median(ab), median(aa), median(base), attempt};
        if (attempt == 1 ||
            std::fabs(m.noiseFloor) < std::fabs(best.noiseFloor))
            best = m;
        best.attempts = attempt;
        if (std::fabs(best.noiseFloor) < bound / 2)
            break;
    }
    return best;
}

} // namespace pb::test

#endif // PB_TESTS_OBS_OVERHEAD_GATE_HH
