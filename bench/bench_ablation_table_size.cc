/**
 * @file
 * Ablation: routing-table size vs lookup cost.
 *
 * The paper attributes IPv4-radix's weight to walking the radix
 * structure and IPv4-trie's speed to level compression.  This bench
 * sweeps the table size and reports the per-packet simulated cost of
 * both structures plus the LC-trie's average depth — showing that
 * the radix walk grows with prefix-length coverage while the LC-trie
 * stays nearly flat.
 */

#include "apps/ipv4_radix.hh"
#include "apps/ipv4_trie.hh"
#include "bench_util.hh"
#include "common/texttable.hh"
#include "net/tracegen.hh"
#include "route/lctrie.hh"
#include "route/radix.hh"

namespace
{

double
meanInsts(pb::core::Application &app, uint32_t packets)
{
    using namespace pb;
    core::BenchConfig cfg;
    cfg.scramble = true;
    core::PacketBench bench(app, cfg);
    net::SyntheticTrace trace(net::Profile::MRA, packets, 2);
    double total = 0;
    uint32_t n = 0;
    while (auto packet = trace.next()) {
        total += static_cast<double>(
            bench.processPacket(*packet).stats.instCount);
        n++;
    }
    return total / n;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pb;
    return bench::benchMain(argc, argv, [&] {
        uint32_t packets = bench::packetArg(argc, argv, 300);
        bench::banner(
            strprintf("Ablation: Routing Table Size vs Lookup Cost "
                      "(MRA, %u packets per point)", packets),
            "radix cost grows with table depth; LC-trie stays flat "
            "(level compression)");

        TextTable table(6);
        table.header({"Prefixes", "radix insts/pkt",
                      "radix nodes", "trie insts/pkt",
                      "trie avg depth", "trie nodes"});
        for (uint32_t size : {256u, 1024u, 4096u, 16384u, 65536u}) {
            auto entries = route::generateCoreTable(size, 1);
            apps::Ipv4RadixApp radix_app(entries);
            apps::Ipv4TrieApp trie_app(entries);
            route::RadixTable radix(entries);
            route::LcTrie trie(entries);
            table.row({withCommas(size),
                       strprintf("%.0f", meanInsts(radix_app, packets)),
                       withCommas(radix.numNodes()),
                       strprintf("%.0f", meanInsts(trie_app, packets)),
                       strprintf("%.2f", trie.averageDepth()),
                       withCommas(trie.numNodes())});
        }
        std::printf("%s", table.render().c_str());
    });
}
