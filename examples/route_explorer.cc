/**
 * @file
 * Route explorer: the paper's IPv4-radix vs IPv4-trie comparison as
 * an interactive report.
 *
 * Builds both forwarding applications over the *same* routing table,
 * runs them over the same traffic, verifies they agree on every
 * forwarding decision, and reports the per-packet workload contrast
 * that motivates the paper's Table II / Table III discussion.
 *
 * Usage: route_explorer [prefixes] [packets]
 */

#include <cstdio>

#include "apps/ipv4_radix.hh"
#include "apps/ipv4_trie.hh"
#include "common/strutil.hh"
#include "common/texttable.hh"
#include "core/packetbench.hh"
#include "net/tracegen.hh"
#include "route/radix.hh"

int
main(int argc, char **argv)
{
    using namespace pb;
    try {
        uint32_t prefixes = 8192;
        uint32_t packets = 1000;
        if (argc > 1) {
            if (auto v = parseInt(argv[1]))
                prefixes = static_cast<uint32_t>(*v);
        }
        if (argc > 2) {
            if (auto v = parseInt(argv[2]))
                packets = static_cast<uint32_t>(*v);
        }

        auto table = route::generateCoreTable(prefixes, 1);
        apps::Ipv4RadixApp radix_app(table);
        apps::Ipv4TrieApp trie_app(table);

        std::printf("routing table: %zu entries "
                    "(radix: %zu nodes; LC-trie: %zu nodes + %zu "
                    "leaves, avg depth %.2f)\n\n",
                    table.size(), route::RadixTable(table).numNodes(),
                    trie_app.trie().numNodes(),
                    trie_app.trie().numLeaves(),
                    trie_app.trie().averageDepth());

        core::BenchConfig cfg;
        cfg.scramble = true;
        core::PacketBench radix_bench(radix_app, cfg);
        core::PacketBench trie_bench(trie_app, cfg);

        struct Tally
        {
            double insts = 0;
            double pkt = 0;
            double nonpkt = 0;
            uint64_t min = UINT64_MAX;
            uint64_t max = 0;
        };
        Tally radix_tally;
        Tally trie_tally;
        uint32_t mismatches = 0;

        net::SyntheticTrace trace_a(net::Profile::MRA, packets, 2);
        net::SyntheticTrace trace_b(net::Profile::MRA, packets, 2);
        for (uint32_t i = 0; i < packets; i++) {
            auto pa = trace_a.next();
            auto pb_ = trace_b.next();
            core::PacketOutcome a = radix_bench.processPacket(*pa);
            core::PacketOutcome b = trie_bench.processPacket(*pb_);
            if (a.verdict != b.verdict ||
                (a.verdict == isa::SysCode::Send &&
                 a.outInterface != b.outInterface)) {
                mismatches++;
            }
            auto add = [](Tally &tally,
                          const core::PacketOutcome &outcome) {
                tally.insts +=
                    static_cast<double>(outcome.stats.instCount);
                tally.pkt += outcome.stats.packetAccesses();
                tally.nonpkt += outcome.stats.nonPacketAccesses();
                tally.min =
                    std::min(tally.min, outcome.stats.instCount);
                tally.max =
                    std::max(tally.max, outcome.stats.instCount);
            };
            add(radix_tally, a);
            add(trie_tally, b);
        }

        std::printf("forwarding agreement: %u/%u packets%s\n\n",
                    packets - mismatches, packets,
                    mismatches ? "  <-- BUG" : "");

        TextTable report(6);
        report.header({"App", "insts/pkt", "min", "max", "pkt mem",
                       "non-pkt mem"});
        auto row = [&](const char *name, const Tally &tally) {
            report.row({name,
                        strprintf("%.1f", tally.insts / packets),
                        std::to_string(tally.min),
                        std::to_string(tally.max),
                        strprintf("%.1f", tally.pkt / packets),
                        strprintf("%.1f", tally.nonpkt / packets)});
        };
        row("IPv4-radix", radix_tally);
        row("IPv4-trie", trie_tally);
        std::printf("%s", report.render().c_str());
        std::printf("\nradix/trie instruction ratio: %.1fx "
                    "(the paper's headline contrast)\n",
                    radix_tally.insts / trie_tally.insts);
        return mismatches ? 1 : 0;
    } catch (const Error &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
