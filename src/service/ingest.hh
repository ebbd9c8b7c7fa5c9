/**
 * @file
 * Packet-ingest ring: the boundary between packet producers and the
 * processing engines in service mode.
 *
 * A persistent daemon (service/daemon.hh) does not own its input the
 * way a batch run owns a trace file: packets arrive continuously
 * from whoever produces them — the built-in rate-controlled trace
 * replayer (service/replay.hh) today, sockets or shared-memory
 * producers tomorrow.  IngestRing is that boundary: a bounded MPMC
 * queue of packets that any number of producer threads feed and any
 * number of consumers drain (the daemon runs one consumer, the
 * MultiCoreBench dispatcher, which preserves arrival order into the
 * flow-ordered per-engine queues).
 *
 * Semantics:
 *  - push() blocks while the ring is full (back-pressure onto the
 *    producer — replay pacing), and returns false once the ring is
 *    closed or a process shutdown is requested, so a parked producer
 *    can never deadlock a terminating daemon;
 *  - tryPush() never blocks: a full ring drops the packet and counts
 *    it ("service.ingest.dropped"), which is NIC semantics for an
 *    overrun — the mode for producers that must not stall;
 *  - pop() blocks while the ring is empty and returns false once the
 *    ring is closed *and* drained (close() wakes all waiters);
 *  - IngestSource adapts the consumer side to net::TraceSource, so
 *    the whole existing engine/bench stack runs off a live ring
 *    unchanged.
 *
 * The hand-off is per packet at service rates, where a lock costs
 * more than reading the packet from the trace (docs/PERFORMANCE.md),
 * so the data path is lock-free: a bounded MPMC ring in the style of
 * Vyukov's, where every slot carries a sequence number and producers
 * and consumers claim tickets by CAS on an enqueue and a dequeue
 * index.  Delivery is FIFO in ticket order, so one producer's order
 * is the consumer's order.
 *
 * close() sets a closed bit *inside* the enqueue index, so a push
 * either claimed its ticket before the close (and its packet is
 * drained) or fails its claim and returns false: an accepted packet
 * is never lost to teardown.  Blocked sides wait spin -> yield ->
 * park with the same protocol as the engines' SPSC queues
 * (common/parker.hh), which keeps an idle ring at near-zero CPU, the
 * daemon's idle contract.
 */

#ifndef PB_SERVICE_INGEST_HH
#define PB_SERVICE_INGEST_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/parker.hh"
#include "net/trace.hh"

namespace pb::service
{

/** Bounded MPMC packet queue between producers and the dispatcher. */
class IngestRing
{
  public:
    /** @param capacity maximum queued packets (back-pressure bound) */
    explicit IngestRing(size_t capacity);

    IngestRing(const IngestRing &) = delete;
    IngestRing &operator=(const IngestRing &) = delete;

    /**
     * Enqueue @p packet, blocking while the ring is full.  Returns
     * false — without enqueuing — once the ring is closed or a
     * graceful shutdown is requested (common/shutdown.hh), so a
     * producer parked on a full ring always unblocks on teardown.
     */
    bool push(net::Packet &&packet);

    /**
     * Non-blocking enqueue.  A full (or closed) ring refuses the
     * packet and counts it into dropped() /
     * "service.ingest.dropped".
     */
    bool tryPush(net::Packet &&packet);

    /**
     * Dequeue into @p out, blocking while the ring is empty.
     * Returns false once the ring is closed and fully drained.
     */
    bool pop(net::Packet &out);

    /** Non-blocking dequeue; false when nothing was available. */
    bool tryPop(net::Packet &out);

    /**
     * No further pushes will be accepted; wakes every parked
     * producer and consumer.  Consumers still drain queued packets.
     */
    void close();

    /** True once close() was called (packets may still be queued). */
    bool
    closed() const
    {
        return enq.load(std::memory_order_acquire) & closedBit;
    }

    /** Current occupancy (approximate while other threads run). */
    size_t size() const;

    /** Maximum occupancy. */
    size_t capacity() const { return cap; }

    /** Packets accepted into the ring so far. */
    uint64_t
    accepted() const
    {
        return accepted_.load(std::memory_order_relaxed);
    }

    /** Packets refused by tryPush() on a full ring so far. */
    uint64_t
    dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

  private:
    /// Set in the enqueue index by close(); the rest is the ticket.
    static constexpr uint64_t closedBit = uint64_t(1) << 63;

    /**
     * Ticket t lives in slot t % cap.  The slot is free for ticket t
     * when seq == 2t, holds its packet when seq == 2t + 1, and is
     * freed for ticket t + cap by the pop.  (Doubling, rather than
     * Vyukov's t / t + 1, keeps "full" and "free" apart when
     * cap == 1.)  One slot per cache line, so a consumer right behind
     * the producer does not share a line with the slot being filled.
     */
    struct alignas(64) Slot
    {
        std::atomic<uint64_t> seq;
        net::Packet packet;
    };

    enum class Claim { Done, Full, Closed };

    Claim tryEnqueue(net::Packet &packet);
    bool writable() const;
    bool readable() const;
    bool drained() const;

    const size_t cap;
    std::unique_ptr<Slot[]> slots;

    // Producer-written, consumer-written and parker state each get
    // their own cache lines.
    alignas(64) std::atomic<uint64_t> enq{0}; ///< next ticket | closedBit
    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> dropped_{0};
    alignas(64) std::atomic<uint64_t> deq{0}; ///< next ticket to pop
    /// Set by close() after the closed bit, so a consumer waiting on
    /// an empty ring polls no line that producers write per packet.
    std::atomic<bool> closing{false};
    alignas(64) Parker notEmpty;              ///< parked consumers
    alignas(64) Parker notFull;               ///< parked producers
};

/**
 * TraceSource view of an IngestRing's consumer side: next() blocks
 * on the live ring and reports end-of-trace when the ring is closed
 * and drained.  This is what lets MultiCoreBench::run() — and with
 * it every dispatch, fault, and telemetry behavior of the batch path
 * — serve continuous ingest unchanged.
 */
class IngestSource : public net::TraceSource
{
  public:
    explicit IngestSource(IngestRing &ring,
                          std::string label = "ingest")
        : ring(ring), label(std::move(label))
    {
    }

    std::optional<net::Packet> next() override;
    std::string name() const override { return label; }

  private:
    IngestRing &ring;
    std::string label;
};

} // namespace pb::service

#endif // PB_SERVICE_INGEST_HH
