/**
 * @file
 * perfbench: the end-to-end PacketBench benchmark (README.md).
 *
 *   perfbench --phase gen --workload W --seed S --dir D
 *       writes the workload's seeded inputs as pcap files under D;
 *   perfbench --phase run --workload W --seed S --dir D
 *             --seconds T --trace 0|1 [--trace-out FILE]
 *       runs the workload over those files for about T seconds,
 *       checks the outputs against the repository's oracles and
 *       prints every metric; the last stdout line is the JSON result;
 *   perfbench --phase sweep --seed S --dir D --seconds T
 *       the compute sweep over the bare_forward input (no gate).
 *
 * Generation runs in its own process so that the run's peak RSS is
 * the program's, not the generator's.  Every layer is timed from
 * outside, around calls into its public functions; the program's own
 * registry counters are read as deltas.
 */

#include <cpuid.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiments.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "core/multicore.hh"
#include "isa/assembler.hh"
#include "ledger.hh"
#include "net/ipv4.hh"
#include "net/pcap.hh"
#include "net/scramble.hh"
#include "net/simd/kernels.hh"
#include "net/tracegen.hh"
#include "obs/metrics.hh"
#include "obs/stats.hh"
#include "service/daemon.hh"
#include "sim/memmap.hh"

namespace perfbench
{

using namespace pb;

namespace
{

/**
 * @name Input sizes.
 * One rep is one complete pass over a workload's input, with
 * freshly set-up applications; a run repeats reps for --seconds.  Sizes
 * aim at a few tenths of a second per rep on a 4-CPU x86 host.
 * @{
 */
constexpr uint32_t mixPacketsPerTrace = 6000; ///< MRA and LAN each
constexpr uint32_t fwdPackets = 200'000;
constexpr uint32_t freshPackets = 100'000;
/** @} */

/** Packets replayed through the side passes (trace runs). */
constexpr size_t sidePassPackets = 32768;

/** Engines for service_fresh: with dispatcher and replayer, nproc. */
constexpr uint32_t serviceEngines = 2;

/**
 * Tolerance for the traced run's attribution check: the read and
 * process spans must cover at least 1 - this share of wall time.
 * What they leave out is the benchmark's own per-packet bookkeeping
 * and clock reads: about 6% of a 1.7 us bare_forward packet on a KVM
 * guest, where one clock read costs tens of ns.
 */
constexpr double maxUnattributedFrac = 0.10;

/** Spans kept for the Chrome trace file. */
constexpr size_t spanCap = 30'000;

/** About one packet in this many is replayed through the oracle. */
constexpr uint64_t oracleSampleMask = 15;

const char *const appNames[] = {"ipv4-radix", "ipv4-trie", "flow-class",
                                "tsa",        "fwd",       "nat"};

struct Options
{
    std::string phase;
    std::string workload;
    std::string dir;
    std::string traceOut;
    uint32_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

uint64_t
splitmix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** FNV-1a over everything an oracle compares for one packet. */
uint64_t
outcomeDigest(const core::PacketOutcome &o, const net::Packet &p)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(static_cast<uint64_t>(o.verdict));
    mix(o.outInterface);
    mix(static_cast<uint64_t>(o.fault));
    mix(o.stats.instCount);
    mix(o.stats.uniqueInstCount);
    mix(o.stats.packetReads);
    mix(o.stats.packetWrites);
    mix(o.stats.nonPacketReads);
    mix(o.stats.nonPacketWrites);
    mix(p.bytes.size());
    for (uint8_t b : p.bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * The minimal NPE32 forwarder: decrement TTL, send on interface 0
 * (5 instructions).  @p pad_to > 6 prepends a countdown loop so one
 * packet costs @p pad_to instructions (the compute sweep).
 */
class ForwarderApp : public core::Application
{
  public:
    explicit ForwarderApp(uint32_t pad_to = 0) : padTo(pad_to) {}

    std::string name() const override { return "fwd"; }

    isa::Program
    setup(sim::Memory &) override
    {
        std::string src = "main:\n";
        if (padTo > 6)
            src += strprintf("    li   t1, %u\n"
                             "pad:\n"
                             "    addi t1, t1, -1\n"
                             "    bnez t1, pad\n",
                             (padTo - 6) / 2);
        src += "    lbu  t0, 8(a0)\n"
               "    addi t0, t0, -1\n"
               "    sb   t0, 8(a0)\n"
               "    li   a1, 0\n"
               "    sys  1\n";
        return isa::Assembler(sim::layout::textBase)
            .assemble(src, "fwd.s");
    }

  private:
    uint32_t padTo;
};

/** One (application, input file) pass of a serial workload. */
struct Pass
{
    std::string app; ///< metric label; must equal the app's name()
    std::function<std::unique_ptr<core::Application>()> make;
    core::BenchConfig cfg;
    std::string file;
};

/** Registry counters read as deltas around a rep. */
struct Counters
{
    uint64_t packets, sent, dropped, faults, insts, simNs, readNs;
    uint64_t mcPackets, mcBatches;

    static Counters
    now()
    {
        obs::Registry &r = obs::defaultRegistry();
        return {r.counter("pb.packets").value(),
                r.counter("pb.sent").value(),
                r.counter("pb.dropped").value(),
                r.counter("pb.faults.total").value(),
                r.counter("pb.insts").value(),
                r.counter("phase.simulate_ns").value(),
                r.counter("phase.trace_read_ns").value(),
                r.counter("mc.packets").value(),
                r.counter("mc.batches").value()};
    }

    Counters
    operator-(const Counters &o) const
    {
        return {packets - o.packets, sent - o.sent,
                dropped - o.dropped, faults - o.faults,
                insts - o.insts,     simNs - o.simNs,
                readNs - o.readNs,   mcPackets - o.mcPackets,
                mcBatches - o.mcBatches};
    }
};

/** Everything one rep measured (span sums only when traced). */
struct Rep
{
    bool traced = false;
    uint64_t packets = 0, faults = 0;
    uint64_t wallNs = 0, cpuNs = 0, setupNs = 0;
    Counters delta{};
    uint64_t readNs = 0, processNs = 0; ///< span sums
    uint64_t readAllocs = 0, processAllocs = 0;
    double pktP50 = 0, pktP99 = 0;
    std::map<std::string, uint64_t> appSetupNs, appInsts, appPackets;

    /** Serial: sampled packets that disagreed with the reference. */
    uint64_t mismatches = 0;
    /** Serial: instructions and packets per pass. */
    std::vector<uint64_t> passInsts, passPackets;

    /** Service only. */
    std::vector<core::EngineLoad> engines;
    double imbalance = 0, flows = 0;
    uint64_t ringDropped = 0, replayed = 0;
};

/** Outcome of the oracle checks and self-checks of one run. */
struct Verdict
{
    uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    fail(uint64_t packets, std::string why)
    {
        failed += packets;
        problems.push_back(std::move(why));
    }

    void problem(std::string why) { problems.push_back(std::move(why)); }
};

// ---------------------------------------------------------------- inputs

std::string
inputPath(const Options &o, const char *name)
{
    return o.dir + "/" + name + ".pcap";
}

uint64_t
writeTrace(const std::string &path, net::TraceSource &src,
           net::LinkType link)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot write '%s'", path.c_str());
    net::PcapWriter writer(out, link);
    uint64_t n = 0;
    while (auto p = src.next()) {
        writer.write(*p);
        n++;
    }
    out.close();
    if (!out)
        fatal("write to '%s' failed", path.c_str());
    return n;
}

/**
 * 40-byte IPv4/TCP packets on the flows and NLANR-renumbered
 * addresses of a synthetic MRA trace (its TTLs kept, so they vary).
 */
class FortyByteSource : public net::TraceSource
{
  public:
    FortyByteSource(uint32_t count, uint32_t seed)
        : mra(net::Profile::MRA, count, seed), rng(seed ^ 0x40404040u)
    {
    }

    std::optional<net::Packet>
    next() override
    {
        auto p = mra.next();
        if (!p)
            return std::nullopt;
        net::FiveTuple t;
        if (!net::parseFiveTuple(*p, t))
            fatal("synthetic MRA packet without a 5-tuple");
        if (t.proto != static_cast<uint8_t>(net::IpProto::Tcp)) {
            t.proto = static_cast<uint8_t>(net::IpProto::Tcp);
            t.srcPort = static_cast<uint16_t>(rng.range(1024, 65535));
            t.dstPort = static_cast<uint16_t>(rng.range(1, 1023));
        }
        uint8_t ttl = std::max<uint8_t>(p->l3()[8], 2);
        net::Packet q;
        q.tsUsec = p->tsUsec;
        q.wireLen = 40;
        q.bytes = net::buildIpv4Packet(t, 40, ttl);
        return q;
    }

    std::string name() const override { return "fwd40"; }

  private:
    net::SyntheticTrace mra;
    Rng rng;
};

void
generate(const Options &o)
{
    auto gen = [&](const char *name, net::TraceSource &src,
                   net::LinkType link, uint64_t expect) {
        uint64_t n = writeTrace(inputPath(o, name), src, link);
        if (n != expect)
            fatal("%s: wrote %llu packets, expected %llu", name,
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(expect));
        std::fprintf(stderr, "perfbench: %s.pcap: %llu packets\n", name,
                     static_cast<unsigned long long>(n));
    };
    if (o.workload == "paper_mix") {
        net::SyntheticTrace mra(net::Profile::MRA, mixPacketsPerTrace,
                                o.seed);
        net::SyntheticTrace lan(net::Profile::LAN, mixPacketsPerTrace,
                                o.seed);
        gen("mra", mra, mra.profile().link, mixPacketsPerTrace);
        gen("lan", lan, lan.profile().link, mixPacketsPerTrace);
    } else if (o.workload == "bare_forward" || o.workload == "sweep") {
        FortyByteSource fwd(fwdPackets, o.seed);
        gen("fwd", fwd, net::LinkType::Raw, fwdPackets);
    } else if (o.workload == "service_fresh") {
        net::SyntheticTrace mra(net::Profile::MRA, freshPackets, o.seed);
        gen("fresh", mra, mra.profile().link, freshPackets);
    } else {
        fatal("unknown workload '%s'", o.workload.c_str());
    }
}

std::vector<net::Packet>
loadPackets(const std::string &path, size_t max)
{
    std::vector<net::Packet> out;
    auto src = net::openPcapFile(path);
    while (out.size() < max) {
        auto p = src->next();
        if (!p)
            break;
        out.push_back(std::move(*p));
    }
    return out;
}

// ---------------------------------------------------------------- serial

core::BenchConfig
benchConfig(net::Profile profile)
{
    core::BenchConfig cfg =
        an::benchConfigFor(profile, an::ExperimentConfig{});
    cfg.faultPolicy = core::FaultPolicy::Drop; // count, don't abort
    cfg.heartbeatMs = 0;
    return cfg;
}

std::vector<Pass>
paperMixPasses(const Options &o)
{
    std::vector<Pass> passes;
    const an::AppKind kinds[] = {an::AppKind::Ipv4Radix,
                                 an::AppKind::Ipv4Trie,
                                 an::AppKind::FlowClass, an::AppKind::Tsa};
    for (size_t k = 0; k < 4; k++) {
        for (net::Profile prof : {net::Profile::MRA, net::Profile::LAN}) {
            an::AppKind kind = kinds[k];
            passes.push_back(
                {appNames[k],
                 [kind] {
                     return an::makeApp(kind, an::ExperimentConfig{});
                 },
                 benchConfig(prof),
                 inputPath(o, prof == net::Profile::MRA ? "mra" : "lan")});
        }
    }
    return passes;
}

std::vector<Pass>
forwardPasses(const Options &o, uint32_t pad_to)
{
    return {{"fwd",
             [pad_to] { return std::make_unique<ForwarderApp>(pad_to); },
             benchConfig(net::Profile::MRA), inputPath(o, "fwd")}};
}

/** Runs serial workloads rep by rep (paper_mix, bare_forward). */
class SerialRunner
{
  public:
    SerialRunner(std::vector<Pass> passes, uint32_t seed, SpanLog *log)
        : passes(std::move(passes)), salt(splitmix(seed)), log(log)
    {
    }

    Rep
    rep(bool traced)
    {
        Rep r;
        r.traced = traced;
        r.passInsts.assign(passes.size(), 0);
        r.passPackets.assign(passes.size(), 0);

        // Set-up: makeApp (tables included) + PacketBench, per pass.
        std::vector<std::unique_ptr<core::Application>> apps;
        std::vector<std::unique_ptr<core::PacketBench>> benches;
        for (const Pass &p : passes) {
            uint64_t t = nowNs();
            apps.push_back(p.make());
            benches.push_back(
                std::make_unique<core::PacketBench>(*apps.back(), p.cfg));
            uint64_t dt = nowNs() - t;
            r.setupNs += dt;
            r.appSetupNs[p.app] += dt;
            if (apps.back()->name() != p.app)
                fatal("pass label '%s' != app '%s'", p.app.c_str(),
                      apps.back()->name().c_str());
        }

        bool keep = traced && log && !spansTaken;
        int64_t rep_span = -1;
        if (keep)
            rep_span = log->add({"rep", "bench", nowNs(), 0, -1, 0, 0, 0});
        std::vector<double> pkt_ns;
        uint64_t net_a0 = allocCount(Layer::Net);
        uint64_t core_a0 = allocCount(Layer::Core);
        Counters c0 = Counters::now();
        uint64_t w0 = nowNs(), cpu0 = cpuNs();
        for (size_t i = 0; i < passes.size(); i++) {
            if (traced)
                runPassTraced(i, *benches[i], r, keep, rep_span, pkt_ns);
            else
                runPass(i, *benches[i], r);
        }
        r.wallNs = nowNs() - w0;
        r.cpuNs = cpuNs() - cpu0;
        r.delta = Counters::now() - c0;
        r.readAllocs = allocCount(Layer::Net) - net_a0;
        r.processAllocs = allocCount(Layer::Core) - core_a0;
        if (keep) {
            log->close(rep_span, nowNs());
            spansTaken = true;
        }
        r.pktP50 = quantile(pkt_ns, 0.50);
        r.pktP99 = quantile(pkt_ns, 0.99);
        for (size_t i = 0; i < passes.size(); i++) {
            r.appInsts[passes[i].app] += r.passInsts[i];
            r.appPackets[passes[i].app] += r.passPackets[i];
        }
        return r;
    }

    /**
     * The oracle, run once before the timed reps: replay every pass
     * through a fresh PacketBench on the per-instruction reference
     * interpreter.  Each rep then compares its sampled packets'
     * verdict, outInterface, fault, PacketStats and copied-back bytes
     * (as digests) and each pass's instruction total with it.
     */
    void
    runReference(Verdict &v)
    {
        for (const Pass &p : passes) {
            core::BenchConfig cfg = p.cfg;
            cfg.dispatch = sim::DispatchMode::Reference;
            auto app = p.make();
            core::PacketBench ref(*app, cfg);
            std::vector<uint64_t> &digests = refDigests.emplace_back();
            uint64_t &insts = refInsts.emplace_back(0);
            uint64_t faults = 0;
            auto src = net::openPcapFile(p.file);
            for (uint64_t idx = 0;; idx++) {
                auto pkt = src->next();
                if (!pkt)
                    break;
                core::PacketOutcome out = ref.processPacket(*pkt);
                insts += out.stats.instCount;
                faults += out.faulted();
                if (sampled(idx))
                    digests.push_back(outcomeDigest(out, *pkt));
            }
            if (faults)
                v.fail(faults, strprintf("%s %s: %llu reference faults",
                                         p.app.c_str(), p.file.c_str(),
                                         static_cast<unsigned long long>(
                                             faults)));
        }
    }

    /** Charge every rep's disagreements with the reference. */
    void
    check(const std::vector<Rep> &reps, Verdict &v) const
    {
        for (size_t r = 0; r < reps.size(); r++) {
            if (reps[r].mismatches)
                v.fail(reps[r].mismatches,
                       strprintf("rep %zu: %llu sampled packets differ "
                                 "from the reference interpreter",
                                 r, static_cast<unsigned long long>(
                                        reps[r].mismatches)));
            for (size_t i = 0; i < passes.size(); i++)
                if (reps[r].passInsts[i] != refInsts[i])
                    v.fail(1, strprintf("%s %s rep %zu: %llu insts, "
                                        "reference %llu",
                                        passes[i].app.c_str(),
                                        passes[i].file.c_str(), r,
                                        static_cast<unsigned long long>(
                                            reps[r].passInsts[i]),
                                        static_cast<unsigned long long>(
                                            refInsts[i])));
        }
    }

  private:
    bool sampled(uint64_t idx) const
    {
        return (splitmix(idx ^ salt) & oracleSampleMask) == 0;
    }

    /**
     * Count one processed packet; @p k is the pass's next sample
     * slot in refDigests.
     */
    void
    account(size_t i, uint64_t idx, size_t &k,
            const core::PacketOutcome &out, const net::Packet &pkt,
            Rep &r)
    {
        r.packets++;
        r.faults += out.faulted();
        r.passInsts[i] += out.stats.instCount;
        r.passPackets[i]++;
        if (!refDigests.empty() && sampled(idx)) {
            const std::vector<uint64_t> &ref = refDigests[i];
            r.mismatches +=
                k >= ref.size() || ref[k] != outcomeDigest(out, pkt);
            k++;
        }
    }

    /** Samples the reference has that the pass never reached. */
    void
    finishPass(size_t i, size_t k, Rep &r) const
    {
        if (!refDigests.empty() && k < refDigests[i].size())
            r.mismatches += refDigests[i].size() - k;
    }

    void
    runPass(size_t i, core::PacketBench &bench, Rep &r)
    {
        auto src = net::openPcapFile(passes[i].file);
        size_t k = 0;
        for (uint64_t idx = 0;; idx++) {
            auto pkt = src->next();
            if (!pkt)
                break;
            core::PacketOutcome out = bench.processPacket(*pkt);
            account(i, idx, k, out, *pkt, r);
        }
        finishPass(i, k, r);
    }

    void
    runPassTraced(size_t i, core::PacketBench &bench, Rep &r, bool keep,
                  int64_t rep_span, std::vector<double> &pkt_ns)
    {
        const obs::Counter &sim_ctr =
            obs::defaultRegistry().counter("phase.simulate_ns");
        int64_t pass_span =
            keep ? log->add({log->intern(passes[i].app), "bench", nowNs(),
                             0, rep_span, 0, 0, 0})
                 : -1;
        std::unique_ptr<net::TraceSource> src;
        {
            LayerScope layer(Layer::Net);
            uint64_t t0 = nowNs();
            src = net::openPcapFile(passes[i].file);
            uint64_t t1 = nowNs();
            r.readNs += t1 - t0;
            if (keep)
                log->add({"open", "net", t0, t1, pass_span, 0, 0, 0});
        }
        size_t k = 0;
        for (uint64_t idx = 0;; idx++) {
            std::optional<net::Packet> pkt;
            uint64_t t0, t1;
            {
                LayerScope layer(Layer::Net);
                t0 = nowNs();
                pkt = src->next();
                t1 = nowNs();
            }
            r.readNs += t1 - t0;
            if (!pkt)
                break;
            uint64_t sim0 = sim_ctr.value();
            core::PacketOutcome out;
            uint64_t t2;
            {
                LayerScope layer(Layer::Core);
                out = bench.processPacket(*pkt);
                t2 = nowNs();
            }
            r.processNs += t2 - t1;
            pkt_ns.push_back(static_cast<double>(t2 - t1));
            if (keep) {
                uint64_t id = packetId++;
                log->add({"read", "net", t0, t1, pass_span, id, 0, 0});
                log->add({"process", "core", t1, t2, pass_span, id, 0,
                          sim_ctr.value() - sim0});
            }
            account(i, idx, k, out, *pkt, r);
        }
        finishPass(i, k, r);
        if (keep)
            log->close(pass_span, nowNs());
    }

    std::vector<Pass> passes;
    uint64_t salt;
    std::vector<std::vector<uint64_t>> refDigests; ///< per pass
    std::vector<uint64_t> refInsts;                ///< per pass
    SpanLog *log;
    bool spansTaken = false;
    uint64_t packetId = 0;
};

// ---------------------------------------------------------------- service

/** Running totals of the span around the replayer's trace source. */
struct SourceStats
{
    uint64_t ns = 0, calls = 0, allocs = 0;
};

/** Times every call into the source handed to the replayer. */
class TimedSource : public net::TraceSource
{
  public:
    TimedSource(std::unique_ptr<net::TraceSource> inner,
                SourceStats &stats, SpanLog *log, int64_t parent)
        : inner(std::move(inner)), stats(stats), log(log), parent(parent)
    {
    }

    std::optional<net::Packet>
    next() override
    {
        LayerScope layer(Layer::Net);
        uint64_t a0 = allocCount(Layer::Net);
        uint64_t t0 = nowNs();
        auto p = inner->next();
        uint64_t t1 = nowNs();
        stats.ns += t1 - t0;
        stats.calls++;
        stats.allocs += allocCount(Layer::Net) - a0;
        if (log)
            log->add({"read", "net", t0, t1, parent, stats.calls, 1, 0});
        return p;
    }

    std::string name() const override { return inner->name(); }

  private:
    std::unique_ptr<net::TraceSource> inner;
    SourceStats &stats;
    SpanLog *log;
    int64_t parent;
};

/** Runs service_fresh rep by rep: a fresh packetbenchd per rep. */
class ServiceRunner
{
  public:
    ServiceRunner(const Options &o, SpanLog *log)
        : file(inputPath(o, "fresh")), log(log)
    {
        cfg.engines = serviceEngines;
        cfg.bench = benchConfig(net::Profile::MRA);
        cfg.bench.parallel = true;
        cfg.bench.dispatchPolicy = core::DispatchPolicy::Stealing;
        cfg.speedIntervalMs = 0;
        cfg.replay.ratePps = 0;
        cfg.replay.loop = false;
        cfg.replay.dropWhenFull = false;
    }

    static std::unique_ptr<core::Application>
    makeNat()
    {
        return an::makeApp(an::AppKind::Nat, an::ExperimentConfig{});
    }

    Rep
    rep(bool traced)
    {
        Rep r;
        r.traced = traced;
        uint64_t t = nowNs();
        auto daemon = std::make_unique<service::PacketBenchd>(makeNat, cfg);
        r.setupNs = nowNs() - t;
        r.appSetupNs["nat"] = r.setupNs;

        bool keep = traced && log && !spansTaken;
        int64_t run_span = -1;
        if (keep)
            run_span = log->add(
                {"PacketBenchd::run", "service", nowNs(), 0, -1, 0, 0, 0});
        // Called on the replayer thread, which run() joins before it
        // returns, so the references stay valid.
        SourceStats src_stats;
        SpanLog *span_log = keep ? log : nullptr;
        auto factory = [&]() -> std::unique_ptr<net::TraceSource> {
            if (!traced)
                return net::openPcapFile(file);
            return std::make_unique<TimedSource>(
                net::openPcapFile(file), src_stats, span_log, run_span);
        };

        Counters c0 = Counters::now();
        uint64_t w0 = nowNs(), cpu0 = cpuNs();
        service::ServiceResult res = daemon->run(factory);
        r.wallNs = nowNs() - w0;
        r.cpuNs = cpuNs() - cpu0;
        r.delta = Counters::now() - c0;
        if (keep) {
            log->close(run_span, nowNs());
            spansTaken = true;
        }

        obs::Registry &reg = obs::defaultRegistry();
        r.packets = res.mc.totalPackets;
        r.faults = res.mc.totalFaults;
        r.engines = res.mc.engines;
        r.imbalance = res.mc.imbalance();
        r.flows = reg.gauge("mc.dispatch.flows").value();
        r.ringDropped = res.ringDropped;
        r.replayed = res.replayed;
        r.readNs = src_stats.ns;
        r.readAllocs = src_stats.allocs;
        r.appInsts["nat"] = res.mc.totalInstructions;
        r.appPackets["nat"] = res.mc.totalPackets;
        return r;
    }

    /**
     * The oracle: a serial MultiCoreBench with the same policy over
     * the same input must give every engine the same packets and
     * instructions as each measured parallel rep.
     */
    void
    check(const std::vector<Rep> &reps, Verdict &v)
    {
        core::BenchConfig serial = cfg.bench;
        serial.parallel = false;
        core::MultiCoreBench mc(makeNat, cfg.engines, serial);
        auto src = net::openPcapFile(file);
        core::MultiCoreResult ref = mc.run(*src, UINT32_MAX);
        if (ref.totalPackets != freshPackets)
            v.fail(freshPackets,
                   strprintf("serial oracle read %llu packets",
                             static_cast<unsigned long long>(
                                 ref.totalPackets)));
        for (size_t r = 0; r < reps.size(); r++) {
            const Rep &rep = reps[r];
            if (rep.ringDropped)
                v.fail(rep.ringDropped,
                       strprintf("rep %zu: ring dropped packets", r));
            if (rep.replayed != freshPackets)
                v.problem(strprintf("rep %zu: replayed %llu", r,
                                    static_cast<unsigned long long>(
                                        rep.replayed)));
            for (size_t e = 0; e < ref.engines.size(); e++) {
                core::EngineLoad got = e < rep.engines.size()
                                           ? rep.engines[e]
                                           : core::EngineLoad{};
                const core::EngineLoad &want = ref.engines[e];
                if (got.packets != want.packets ||
                    got.instructions != want.instructions)
                    v.fail(std::max(got.packets, want.packets),
                           strprintf("rep %zu engine %zu: %llu pkts %llu "
                                     "insts, serial oracle %llu / %llu",
                                     r, e,
                                     static_cast<unsigned long long>(
                                         got.packets),
                                     static_cast<unsigned long long>(
                                         got.instructions),
                                     static_cast<unsigned long long>(
                                         want.packets),
                                     static_cast<unsigned long long>(
                                         want.instructions)));
            }
        }
    }

  private:
    std::string file;
    service::ServiceConfig cfg;
    SpanLog *log;
    bool spansTaken = false;
};

// ---------------------------------------------------------------- side passes

/** Median ns/packet of @p body over @p n packets, 5 timed rounds. */
template <typename F>
double
sidePass(size_t n, F body)
{
    std::vector<double> per;
    for (int round = 0; round < 5; round++) {
        uint64_t t0 = nowNs();
        body();
        per.push_back(static_cast<double>(nowNs() - t0) /
                      static_cast<double>(std::max<size_t>(n, 1)));
    }
    return median(per);
}

void
sidePasses(const std::string &file, Metrics &m)
{
    std::vector<net::Packet> pkts = loadPackets(file, sidePassPackets);
    size_t n = pkts.size();

    // In place on a copy; scrambling keeps a valid checksum valid,
    // so later rounds do the same work as the first.
    net::AddressScrambler scrambler(an::ExperimentConfig{}.scrambleKey);
    std::vector<net::Packet> work = pkts;
    m.set("net.scramble_ns_per_pkt", sidePass(n, [&] {
              for (net::Packet &p : work)
                  scrambler.scramblePacket(p);
          }),
          "ns");

    std::vector<const net::Packet *> ptrs;
    for (const net::Packet &p : pkts)
        ptrs.push_back(&p);
    uint32_t hash[16];
    bool valid[16];
    m.set("net.hash_ns_per_pkt", sidePass(n, [&] {
              for (size_t i = 0; i < n; i += 16) {
                  unsigned k = static_cast<unsigned>(
                      std::min<size_t>(16, n - i));
                  net::hashPacketBatch(ptrs.data() + i, k, hash, valid);
              }
          }),
          "ns");

    // The per-packet work behind the telemetry gate in processPacket:
    // 5-tuple parse, windowed record, top-K observe.
    obs::EngineTelemetry telem;
    uint64_t clock = obs::telemetryNowNs();
    m.set("obs.telemetry_ns_per_pkt", sidePass(n, [&] {
              for (const net::Packet &p : pkts) {
                  net::FiveTuple t;
                  bool ok = net::parseFiveTuple(p, t);
                  clock += 1000;
                  telem.record(clock, 100, p.l3Len(), false);
                  if (ok) {
                      obs::FlowId id{t.src, t.dst, t.srcPort, t.dstPort,
                                     t.proto};
                      telem.topk.observe(net::flowHash(t), id, p.l3Len(),
                                         false);
                  }
              }
          }),
          "ns");
}

// ---------------------------------------------------------------- metrics

std::string
cpuModel()
{
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004)
        return "unknown";
    for (unsigned i = 0; i < 3; i++)
        __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char *>(regs), sizeof regs);
    s = s.c_str();
    size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
}

std::map<std::string, std::string>
hostFingerprint(const Options &o)
{
    std::string compiler =
#if defined(__clang__)
        "clang ";
#else
        "g++ ";
#endif
    compiler += __VERSION__;
    return {
        {"cpu", cpuModel()},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"simd", std::string(net::simd::backendName(
                     net::simd::activeBackend()))},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"compiler", compiler},
        {"seed", std::to_string(o.seed)},
        {"workload", o.workload},
        {"trace", o.trace ? "1" : "0"},
    };
}

template <typename F>
double
medianOf(const std::vector<Rep> &reps, F f)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(f(r));
    return median(v);
}

double
perPkt(double v, const Rep &r)
{
    return r.packets ? v / static_cast<double>(r.packets) : 0.0;
}

void
endToEnd(const std::vector<Rep> &reps, double rss, uint64_t attempted,
         uint64_t failed, Metrics &m)
{
    // Throughput and CPU cost over every measured interval of the run
    // (set-up excluded), not a median of reps: on a shared host the
    // speed drifts between regimes that last tens of seconds, and the
    // whole-run ratio varies less from run to run than a median that
    // can land in either regime.
    double packets = 0, wall = 0, cpu = 0;
    for (const Rep &r : reps) {
        packets += static_cast<double>(r.packets);
        wall += static_cast<double>(r.wallNs);
        cpu += static_cast<double>(r.cpuNs);
    }
    m.set("pps", packets * 1e9 / wall, "1/s");
    m.set("cpu_ns_per_pkt", cpu / packets, "ns");
    m.set("setup_s",
          medianOf(reps, [](const Rep &r) { return r.setupNs / 1e9; }),
          "s");
    m.set("peak_rss_mb", rss, "MiB");
    m.set("ok_frac",
          attempted ? static_cast<double>(attempted - failed) /
                          static_cast<double>(attempted)
                    : 0.0,
          "fraction");
}

/** Per-layer metrics from the traced reps (all names always set). */
void
perLayer(const std::vector<Rep> &all, bool serial, Metrics &m,
         Verdict &v)
{
    std::vector<Rep> traced, plain;
    for (const Rep &r : all)
        (r.traced ? traced : plain).push_back(r);

    auto med = [&](auto f) { return medianOf(traced, f); };
    m.set("net.read_ns_per_pkt",
          med([](const Rep &r) { return perPkt(r.readNs, r); }), "ns");
    m.set("net.read_counter_ns_per_pkt",
          med([](const Rep &r) { return perPkt(r.delta.readNs, r); }),
          "ns");
    m.set("net.read_allocs_per_pkt",
          med([](const Rep &r) { return perPkt(r.readAllocs, r); }),
          "count");
    m.set("sim.ns_per_pkt",
          med([](const Rep &r) { return perPkt(r.delta.simNs, r); }),
          "ns");
    m.set("sim.mips", med([](const Rep &r) {
              return r.delta.simNs ? r.delta.insts * 1e3 / r.delta.simNs
                                   : 0.0;
          }),
          "MIPS");
    m.set("sim.share", med([](const Rep &r) {
              return static_cast<double>(r.delta.simNs) / r.cpuNs;
          }),
          "fraction");
    for (const char *app : appNames) {
        m.set(strprintf("sim.insts_per_pkt.%s", app),
              med([app](const Rep &r) {
                  auto i = r.appInsts.find(app);
                  auto p = r.appPackets.find(app);
                  return i == r.appInsts.end() || !p->second
                             ? 0.0
                             : static_cast<double>(i->second) /
                                   static_cast<double>(p->second);
              }),
              "count");
        m.set(strprintf("setup.app_ms.%s", app), med([app](const Rep &r) {
                  auto i = r.appSetupNs.find(app);
                  return i == r.appSetupNs.end() ? 0.0 : i->second / 1e6;
              }),
              "ms");
    }

    auto serialOnly = [&](auto f) { return serial ? med(f) : 0.0; };
    m.set("core.process_ns_per_pkt",
          serialOnly([](const Rep &r) { return perPkt(r.processNs, r); }),
          "ns");
    m.set("core.self_ns_per_pkt", serialOnly([](const Rep &r) {
              return perPkt(static_cast<double>(r.processNs) -
                                static_cast<double>(r.delta.simNs),
                            r);
          }),
          "ns");
    m.set("core.process_allocs_per_pkt",
          serialOnly(
              [](const Rep &r) { return perPkt(r.processAllocs, r); }),
          "count");
    m.set("core.pkt_p50_ns",
          serialOnly([](const Rep &r) { return r.pktP50; }), "ns");
    m.set("core.pkt_p99_ns",
          serialOnly([](const Rep &r) { return r.pktP99; }), "ns");
    // Serial: wall time outside the read and process spans.  Service:
    // wall time of the rep outside PacketBenchd::run is ~0 by
    // construction, so the read span's share is not a gap there.
    double unattributed = serialOnly([](const Rep &r) {
        return 1.0 - static_cast<double>(r.readNs + r.processNs) /
                         static_cast<double>(r.wallNs);
    });
    m.set("core.unattributed_frac", unattributed, "fraction");
    if (serial && unattributed > maxUnattributedFrac)
        v.problem(strprintf("attribution: %.1f%% of wall time is outside "
                            "the read and process spans (limit %.0f%%)",
                            unattributed * 100,
                            maxUnattributedFrac * 100));

    bool svc = !serial;
    auto svcOnly = [&](auto f) { return svc ? med(f) : 0.0; };
    m.set("mc.nonsim_cpu_ns_per_pkt", svcOnly([](const Rep &r) {
              return perPkt(static_cast<double>(r.cpuNs) -
                                static_cast<double>(r.delta.simNs),
                            r);
          }),
          "ns");
    m.set("mc.imbalance", svcOnly([](const Rep &r) { return r.imbalance; }),
          "ratio");
    m.set("mc.pkts_per_batch", svcOnly([](const Rep &r) {
              return r.delta.mcBatches
                         ? static_cast<double>(r.delta.mcPackets) /
                               r.delta.mcBatches
                         : 0.0;
          }),
          "count");
    m.set("mc.flows", svcOnly([](const Rep &r) { return r.flows; }),
          "count");
    m.set("service.source_ns_per_pkt",
          svcOnly([](const Rep &r) { return perPkt(r.readNs, r); }), "ns");
    double dropped = 0;
    for (const Rep &r : all)
        dropped += static_cast<double>(r.ringDropped);
    m.set("service.ring_dropped", dropped, "count");

    double wall_traced = medianOf(traced, [](const Rep &r) {
        return r.wallNs / static_cast<double>(r.packets);
    });
    double wall_plain = medianOf(plain, [](const Rep &r) {
        return r.wallNs / static_cast<double>(r.packets);
    });
    m.set("obs.bench_trace_overhead_frac",
          wall_plain > 0 ? wall_traced / wall_plain - 1.0 : 0.0,
          "fraction");

    // Allocation counts of a serial pass are a pure function of the
    // input, so every traced rep must count the same.
    bool repeat = true;
    for (const Rep &r : traced)
        repeat = repeat && r.readAllocs == traced.front().readAllocs &&
                 r.processAllocs == traced.front().processAllocs;
    m.set("bench.alloc_counts_repeat", repeat ? 1.0 : 0.0, "bool");
}

/** Checks every run makes, whatever it measures. */
void
selfChecks(const std::vector<Rep> &reps, bool serial, Verdict &v)
{
    for (size_t i = 0; i < reps.size(); i++) {
        const Rep &r = reps[i];
        const Counters &d = r.delta;
        if (d.packets != d.sent + d.dropped + d.faults)
            v.problem(strprintf("rep %zu: pb.packets %llu != sent + "
                                "dropped + faults %llu",
                                i,
                                static_cast<unsigned long long>(d.packets),
                                static_cast<unsigned long long>(
                                    d.sent + d.dropped + d.faults)));
        if (d.packets != r.packets)
            v.problem(strprintf("rep %zu: pb.packets moved by %llu, "
                                "%llu packets processed",
                                i,
                                static_cast<unsigned long long>(d.packets),
                                static_cast<unsigned long long>(
                                    r.packets)));
        if (r.faults)
            v.fail(r.faults, strprintf("rep %zu: %llu packets faulted", i,
                                       static_cast<unsigned long long>(
                                           r.faults)));
        if (r.appInsts != reps.front().appInsts)
            v.problem(strprintf("rep %zu: instruction counts differ from "
                                "rep 0 on the same input",
                                i));
        if (serial && r.traced && r.delta.readNs > r.readNs)
            v.problem(strprintf("rep %zu: phase.trace_read_ns (%llu) "
                                "exceeds the read spans around it (%llu)",
                                i,
                                static_cast<unsigned long long>(
                                    r.delta.readNs),
                                static_cast<unsigned long long>(r.readNs)));
    }
}

// ---------------------------------------------------------------- phases

/** Run reps until the deadline (at least @p min_reps of them). */
template <typename R>
std::vector<Rep>
repeat(R &runner, const Options &o, size_t min_reps)
{
    std::vector<Rep> reps;
    uint64_t deadline =
        nowNs() + static_cast<uint64_t>(o.seconds * 1e9);
    while (reps.size() < min_reps || nowNs() < deadline) {
        // Traced runs alternate traced and plain reps, so the tracing
        // overhead is measured inside one process.
        bool traced = o.trace && reps.size() % 2 == 1;
        reps.push_back(runner.rep(traced));
        const Rep &r = reps.back();
        std::fprintf(stderr,
                     "perfbench: rep %zu%s: %llu packets, wall %.1f ms, "
                     "%.1f ns/pkt, cpu %.1f ns/pkt, setup %.2f ms\n",
                     reps.size() - 1, traced ? " (traced)" : "",
                     static_cast<unsigned long long>(r.packets),
                     r.wallNs / 1e6, perPkt(r.wallNs, r),
                     perPkt(r.cpuNs, r), r.setupNs / 1e6);
    }
    return reps;
}

int
runWorkload(const Options &o)
{
    bool serial = o.workload != "service_fresh";
    SpanLog log(spanCap);
    SpanLog *logp = o.trace ? &log : nullptr;

    std::vector<Rep> reps;
    double rss = 0;
    Verdict v;
    std::string side_file;
    if (serial) {
        std::vector<Pass> passes;
        if (o.workload == "paper_mix") {
            passes = paperMixPasses(o);
            side_file = inputPath(o, "mra");
        } else if (o.workload == "bare_forward") {
            passes = forwardPasses(o, 0);
            side_file = inputPath(o, "fwd");
        } else {
            fatal("unknown workload '%s'", o.workload.c_str());
        }
        SerialRunner runner(std::move(passes), o.seed, logp);
        runner.runReference(v);
        reps = repeat(runner, o, o.trace ? 4 : 3);
        rss = peakRssMb();
        runner.check(reps, v);
    } else {
        ServiceRunner runner(o, logp);
        reps = repeat(runner, o, o.trace ? 4 : 3);
        rss = peakRssMb();
        runner.check(reps, v);
        side_file = inputPath(o, "fresh");
    }
    selfChecks(reps, serial, v);

    uint64_t attempted = 0;
    for (const Rep &r : reps)
        attempted += r.packets;

    Metrics m;
    std::map<std::string, std::string> host = hostFingerprint(o);
    if (o.trace) {
        perLayer(reps, serial, m, v);
        sidePasses(side_file, m);
        if (!o.traceOut.empty() && !log.writeChrome(o.traceOut, host))
            v.problem("cannot write " + o.traceOut);
    } else {
        endToEnd(reps, rss, attempted, v.failed, m);
    }

    std::string host_line;
    for (const auto &[k, val] : host)
        host_line += " " + k + "=" + val;
    std::printf("perfbench host:%s\n", host_line.c_str());
    std::printf("perfbench %s: %zu reps, %llu packets, %llu failed\n",
                o.workload.c_str(), reps.size(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(v.failed));
    std::printf("%s", m.table().c_str());
    for (const std::string &p : v.problems)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
    bool correct = v.problems.empty() && v.failed == 0;
    std::printf("%s\n",
                m.resultJson(correct, attempted, v.failed).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

int
runSweep(const Options &o)
{
    std::printf("compute sweep: bare_forward input, forwarder padded to "
                "N instructions/packet (no bound, no gate)\n");
    std::printf("%10s %14s %10s %12s\n", "insts/pkt", "pps", "sim.share",
                "measured");
    Options per = o;
    per.seconds = o.seconds / 4;
    per.trace = false;
    for (uint32_t pad : {10u, 100u, 1000u, 10000u}) {
        SerialRunner runner(forwardPasses(o, pad), o.seed, nullptr);
        // One rep at 10k instructions/packet already takes ~20 s.
        std::vector<Rep> reps = repeat(runner, per, 1);
        double pps = medianOf(reps, [](const Rep &r) {
            return r.packets * 1e9 / static_cast<double>(r.wallNs);
        });
        double share = medianOf(reps, [](const Rep &r) {
            return static_cast<double>(r.delta.simNs) / r.cpuNs;
        });
        double insts = medianOf(reps, [](const Rep &r) {
            return perPkt(static_cast<double>(r.delta.insts), r);
        });
        std::printf("%10u %14.0f %10.3f %12.1f\n", pad, pps, share, insts);
    }
    return 0;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], val = argv[i + 1];
        auto num = parseInt(val);
        if (k == "--phase")
            o.phase = val;
        else if (k == "--workload")
            o.workload = val;
        else if (k == "--dir")
            o.dir = val;
        else if (k == "--trace-out")
            o.traceOut = val;
        else if (k == "--seed" && num && *num >= 0)
            o.seed = static_cast<uint32_t>(*num);
        else if (k == "--seconds" && num && *num > 0)
            o.seconds = static_cast<double>(*num);
        else if (k == "--trace" && num && (*num == 0 || *num == 1))
            o.trace = *num == 1;
        else
            return false;
    }
    return argc % 2 == 1 && !o.phase.empty() && !o.dir.empty();
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options o;
    if (!parseArgs(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: perfbench --phase gen|run|sweep --workload W "
                     "--seed N --dir DIR [--seconds T] [--trace 0|1] "
                     "[--trace-out FILE]\n");
        return 2;
    }
    try {
        if (o.phase == "gen") {
            generate(o);
            return 0;
        }
        if (o.phase == "run")
            return runWorkload(o);
        if (o.phase == "sweep")
            return runSweep(o);
        std::fprintf(stderr, "perfbench: unknown phase '%s'\n",
                     o.phase.c_str());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
