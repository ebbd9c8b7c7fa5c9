/**
 * @file
 * Selective accounting: per-packet workload statistics.
 *
 * The paper modified SimpleScalar so that only instructions belonging
 * to the application — not the PacketBench framework — are counted.
 * In this reproduction the framework runs natively on the host, so
 * everything the simulated CPU executes *is* application work; the
 * PacketRecorder is attached for exactly the duration of each
 * process_packet() call and detached while the framework moves
 * packets around, which realizes the same accounting boundary.
 */

#ifndef PB_SIM_ACCOUNTING_HH
#define PB_SIM_ACCOUNTING_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/bblock.hh"
#include "sim/cpu.hh"
#include "sim/zeropages.hh"

namespace pb::sim
{

/** What level of per-packet detail to keep. */
struct RecorderConfig
{
    /** Keep the full instruction-address trace (Fig. 6). */
    bool instTrace = false;
    /** Keep the full data-memory access trace (Fig. 9). */
    bool memTrace = false;
    /** Keep the set of basic blocks each packet executes (Figs. 7-8). */
    bool blockSets = false;
};

/** Statistics for one processed packet. */
struct PacketStats
{
    uint64_t instCount = 0;       ///< total instructions executed
    uint32_t uniqueInstCount = 0; ///< distinct instruction addresses
    uint32_t packetReads = 0;     ///< loads from packet memory
    uint32_t packetWrites = 0;    ///< stores to packet memory
    uint32_t nonPacketReads = 0;  ///< loads from data/stack memory
    uint32_t nonPacketWrites = 0; ///< stores to data/stack memory

    uint32_t packetAccesses() const { return packetReads + packetWrites; }
    uint32_t
    nonPacketAccesses() const
    {
        return nonPacketReads + nonPacketWrites;
    }

    /** Basic blocks executed at least once (sorted ids); optional. */
    std::vector<uint32_t> blocks;
    /** Executed instruction addresses in order; optional. */
    std::vector<uint32_t> instTrace;

    /** A data access annotated with when it happened. */
    struct TracedAccess
    {
        uint64_t instIndex; ///< ordinal of the accessing instruction
        MemAccessEvent event;
    };

    /** Data accesses in order; optional. */
    std::vector<TracedAccess> memTrace;
};

/** Number of InstClass values tracked in the mix histogram. */
constexpr size_t numInstClasses =
    static_cast<size_t>(isa::InstClass::Invalid) + 1;

/**
 * ExecObserver that produces PacketStats per packet plus run-level
 * aggregates (memory coverage, instruction mix).
 */
class PacketRecorder final : public ExecObserver
{
  public:
    PacketRecorder(const isa::Program &prog, const BlockMap &blocks,
                   RecorderConfig cfg = {});

    /** Start accounting a new packet. */
    void beginPacket();

    /** Finish the current packet and return its statistics. */
    PacketStats endPacket();

    void onInst(uint32_t addr, const isa::Inst &inst) override;

    /**
     * The @p n instructions of program slots [slot, slot + n) executed
     * in order: the straight-line run that starts at @p slot, or a
     * prefix of it when the run was clipped by the budget or by a
     * fault.  Equivalent to n onInst() calls, but the instruction and
     * class counts come from prefix sums, and a complete run that
     * already executed in this packet costs O(1) — every word of it
     * was marked then.  Only the CPU's devirtualized block-stepped
     * loop delivers this event (see asRecorder()).  Defined inline:
     * it and onMemAccess are that loop's per-event hot path.
     */
    void
    onRun(uint32_t slot, uint32_t n)
    {
        current.instCount += n;
        totalInsts_ += n;
        const ClassTally &lo = classPrefix[slot];
        const ClassTally &hi = classPrefix[slot + n];
        for (size_t c = 0; c < numInstClasses; c++)
            classCounts_[c] += hi[c] - lo[c];

        const bool full = n == runLen[slot];
        if (full && runEpoch[slot] == epoch)
            return;
        for (uint32_t word = slot; word < slot + n; word++)
            markWord(word);
        if (full)
            runEpoch[slot] = epoch;
    }

    void
    onMemAccess(const MemAccessEvent &event) override
    {
        switch (event.region) {
          case MemRegion::Packet:
            if (event.isStore)
                current.packetWrites++;
            else
                current.packetReads++;
            packetTouch.mark(event.addr, event.size);
            break;
          case MemRegion::Data:
            if (event.isStore)
                current.nonPacketWrites++;
            else
                current.nonPacketReads++;
            dataTouch.mark(event.addr, event.size);
            break;
          case MemRegion::Stack:
            if (event.isStore)
                current.nonPacketWrites++;
            else
                current.nonPacketReads++;
            stackTouch.mark(event.addr, event.size);
            break;
          case MemRegion::Text:
          case MemRegion::Unmapped:
            // Reads of constants embedded in text count as
            // non-packet.
            if (event.isStore)
                current.nonPacketWrites++;
            else
                current.nonPacketReads++;
            break;
        }
        if (cfg.memTrace)
            current.memTrace.push_back({current.instCount, event});
    }

    /**
     * The recorder takes per-run events unless it keeps a trace: the
     * instruction trace needs every address in order, and each traced
     * memory access carries the ordinal of its instruction, which a
     * per-run count does not know yet.  Those configurations stay on
     * the CPU's per-instruction path.
     */
    PacketRecorder *
    asRecorder() override
    {
        return cfg.instTrace || cfg.memTrace ? nullptr : this;
    }

    /**
     * True when the recorder was built for a program of @p words
     * words at @p base, so per-run slot numbers line up with it.
     */
    bool
    tracks(uint32_t base, size_t words) const
    {
        return base == progBase && words == progWords;
    }

    /**
     * @name Run-level aggregates (across all packets so far).
     * @{
     */
    /** Bytes of instruction memory touched (paper Table IV col 1). */
    uint64_t instMemoryBytes() const;
    /** Bytes of data memory touched (paper Table IV col 2). */
    uint64_t dataMemoryBytes() const;
    /** Executed-instruction histogram by class. */
    const std::array<uint64_t, numInstClasses> &
    classCounts() const
    {
        return classCounts_;
    }
    /** Total instructions across all packets. */
    uint64_t totalInsts() const { return totalInsts_; }
    /** @} */

  private:
    /**
     * Tracks which byte offsets of a region have been touched.  The
     * bitmap lives in lazily zeroed pages, like simulated memory
     * itself: a recorder commits bitmap pages only where the
     * application touches its regions.
     */
    struct TouchMap
    {
        uint32_t base = 0;
        uint32_t size = 0;
        /** One bit per byte offset, as 64-bit words. */
        ZeroPages bits;
        uint64_t count = 0;

        void
        init(uint32_t base_addr, uint32_t size_bytes)
        {
            base = base_addr;
            size = size_bytes;
            bits = ZeroPages((size_t{size_bytes} + 63) / 64 *
                             sizeof(uint64_t));
            count = 0;
        }

        /** Mark [addr, addr + len), clipped to the region. */
        void
        mark(uint32_t addr, uint32_t len)
        {
            uint32_t off = addr - base;
            if (off >= size)
                return;
            len = std::min(len, size - off);
            // An aligned access never straddles a 64-byte chunk, so
            // this loop normally runs once.
            while (len > 0) {
                const uint32_t bit = off & 63;
                const uint32_t take = std::min(len, 64 - bit);
                const uint64_t mask =
                    (take == 64 ? ~uint64_t{0}
                                : (uint64_t{1} << take) - 1)
                    << bit;
                // Store only on news: most accesses re-touch bytes
                // marked long ago, and a store per access costs far
                // more than the load.
                uint64_t &w = bits.as<uint64_t>()[off >> 6];
                if (const uint64_t fresh = mask & ~w) {
                    count += static_cast<uint64_t>(std::popcount(fresh));
                    w |= fresh;
                }
                off += take;
                len -= take;
            }
        }
    };

    /** Executed-instruction counts by class. */
    using ClassTally = std::array<uint32_t, numInstClasses>;

    /** Count @p word unique in this packet unless already marked. */
    void
    markWord(uint32_t word)
    {
        if (wordEpoch[word] == epoch)
            return;
        wordEpoch[word] = epoch;
        current.uniqueInstCount++;
        // A word's first-ever execution is always also its first
        // execution within some packet, so the run-level instruction
        // footprint only needs checking on the per-packet-unique
        // path; the per-instruction hot path pays nothing for it.
        if (!wordTouched[word]) {
            wordTouched[word] = true;
            wordsTouched_++;
        }
        if (cfg.blockSets) {
            uint32_t block = blockMap.blockOf(progBase + word * 4);
            if (blockEpoch[block] != epoch) {
                blockEpoch[block] = epoch;
                current.blocks.push_back(block);
            }
        }
    }

    const RecorderConfig cfg;
    const uint32_t progBase;
    const uint32_t progWords;
    const BlockMap &blockMap;

    // Per-packet epoch marking: a word (or block) is unique within the
    // packet iff its stamp differs from the current epoch.
    uint32_t epoch = 0;
    std::vector<uint32_t> wordEpoch;
    std::vector<uint32_t> blockEpoch;

    // Per-run accounting (onRun).  runLen is the CPU's straight-line
    // run length per slot (sim::straightLineRuns); a complete run is
    // fully marked in the current packet iff its start slot's stamp
    // equals the epoch.  classPrefix[i] tallies slots [0, i).
    std::vector<uint32_t> runLen;
    std::vector<uint32_t> runEpoch;
    std::vector<ClassTally> classPrefix;

    /** Program words executed at least once over the whole run. */
    std::vector<bool> wordTouched;
    uint64_t wordsTouched_ = 0;

    PacketStats current;
    bool inPacket = false;

    // Run-level aggregates.
    std::array<uint64_t, numInstClasses> classCounts_{};
    uint64_t totalInsts_ = 0;
    TouchMap dataTouch;
    TouchMap packetTouch;
    TouchMap stackTouch;
};

/** Forwards the execution stream to several observers. */
class FanoutObserver : public ExecObserver
{
  public:
    /** Attach another downstream observer. */
    void add(ExecObserver *observer) { sinks.push_back(observer); }

    /**
     * Detach @p observer (no-op when absent).  Lets the framework
     * attach per-packet observers — e.g. the sampled NPE32 event
     * tracer (obs/tracing.hh) — for exactly one packet's run.
     */
    void
    remove(ExecObserver *observer)
    {
        sinks.erase(std::remove(sinks.begin(), sinks.end(), observer),
                    sinks.end());
    }

    void
    onInst(uint32_t addr, const isa::Inst &inst) override
    {
        for (auto *sink : sinks)
            sink->onInst(addr, inst);
    }

    void
    onMemAccess(const MemAccessEvent &event) override
    {
        for (auto *sink : sinks)
            sink->onMemAccess(event);
    }

    void
    onBranch(uint32_t addr, bool taken, uint32_t target) override
    {
        for (auto *sink : sinks)
            sink->onBranch(addr, taken, target);
    }

    /**
     * With exactly one sink attached, hand the CPU that sink directly
     * so every event costs one virtual call instead of two.  With any
     * other sink count the fan-out itself stays in the path.
     */
    ExecObserver *
    soloSink() override
    {
        return sinks.size() == 1 ? sinks[0]->soloSink() : this;
    }

  private:
    std::vector<ExecObserver *> sinks;
};

} // namespace pb::sim

#endif // PB_SIM_ACCOUNTING_HH
