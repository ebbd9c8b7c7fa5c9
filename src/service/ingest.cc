/**
 * @file
 * IngestRing / IngestSource implementation.
 *
 * A parked thread re-checks its wait condition every kParkSlice, so
 * a producer parked on a full ring sees a process shutdown request
 * (common/shutdown.hh) within one slice; close() wakes every waiter
 * at once.
 */

#include "ingest.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/shutdown.hh"
#include "obs/metrics.hh"

namespace pb::service
{

namespace
{
/** Backstop for blocking waits; shutdown poll period when parked. */
constexpr std::chrono::milliseconds kParkSlice{50};
} // namespace

IngestRing::IngestRing(size_t capacity)
    : cap(capacity ? capacity : 1), slots(new Slot[cap])
{
    for (size_t i = 0; i < cap; i++)
        slots[i].seq.store(2 * i, std::memory_order_relaxed);
}

IngestRing::Claim
IngestRing::tryEnqueue(net::Packet &packet)
{
    uint64_t e = enq.load(std::memory_order_relaxed);
    for (;;) {
        if (e & closedBit)
            return Claim::Closed;
        Slot &slot = slots[e % cap];
        uint64_t seq = slot.seq.load(std::memory_order_acquire);
        auto diff = static_cast<int64_t>(seq - 2 * e);
        if (diff < 0)
            return Claim::Full; // ticket e - cap not popped yet
        if (diff > 0) {
            e = enq.load(std::memory_order_relaxed); // stale ticket
            continue;
        }
        // A concurrent close() changes enq, so this CAS fails and
        // the next pass sees the closed bit.
        if (!enq.compare_exchange_weak(e, e + 1,
                                       std::memory_order_relaxed))
            continue;
        accepted_.fetch_add(1, std::memory_order_relaxed);
        PB_COUNTER("service.ingest.accepted");
        slot.packet = std::move(packet);
        slot.seq.store(2 * e + 1, std::memory_order_release);
        notEmpty.wake();
        return Claim::Done;
    }
}

bool
IngestRing::tryPop(net::Packet &out)
{
    uint64_t d = deq.load(std::memory_order_relaxed);
    for (;;) {
        Slot &slot = slots[d % cap];
        uint64_t seq = slot.seq.load(std::memory_order_acquire);
        auto diff = static_cast<int64_t>(seq - (2 * d + 1));
        if (diff < 0)
            return false; // ticket d not published yet
        if (diff > 0) {
            d = deq.load(std::memory_order_relaxed); // stale ticket
            continue;
        }
        if (!deq.compare_exchange_weak(d, d + 1,
                                       std::memory_order_relaxed))
            continue;
        out = std::move(slot.packet);
        slot.seq.store(2 * (d + cap), std::memory_order_release);
        notFull.wake();
        return true;
    }
}

bool
IngestRing::writable() const
{
    uint64_t e = enq.load(std::memory_order_acquire);
    return (e & closedBit) ||
           slots[e % cap].seq.load(std::memory_order_acquire) == 2 * e;
}

bool
IngestRing::readable() const
{
    uint64_t d = deq.load(std::memory_order_acquire);
    return slots[d % cap].seq.load(std::memory_order_acquire) ==
           2 * d + 1;
}

bool
IngestRing::drained() const
{
    // Once closed, the enqueue ticket is final: every packet claimed
    // before the close is below it, so no more can arrive.
    if (!closing.load(std::memory_order_acquire))
        return false;
    uint64_t e = enq.load(std::memory_order_acquire);
    return (e & closedBit) &&
           deq.load(std::memory_order_acquire) >= (e & ~closedBit);
}

bool
IngestRing::push(net::Packet &&packet)
{
    for (;;) {
        if (shutdownRequested())
            return false;
        switch (tryEnqueue(packet)) {
          case Claim::Done:
            return true;
          case Claim::Closed:
            return false;
          case Claim::Full:
            break;
        }
        notFull.wait([this] { return writable() || shutdownRequested(); },
                     kParkSlice);
    }
}

bool
IngestRing::tryPush(net::Packet &&packet)
{
    if (tryEnqueue(packet) == Claim::Done)
        return true;
    dropped_.fetch_add(1, std::memory_order_relaxed);
    PB_COUNTER("service.ingest.dropped");
    return false;
}

bool
IngestRing::pop(net::Packet &out)
{
    for (;;) {
        if (tryPop(out))
            return true;
        if (drained())
            return false;
        notEmpty.wait([this] { return readable() || drained(); },
                      kParkSlice);
    }
}

void
IngestRing::close()
{
    enq.fetch_or(closedBit, std::memory_order_seq_cst);
    closing.store(true, std::memory_order_release);
    notFull.wakeAll();
    notEmpty.wakeAll();
}

size_t
IngestRing::size() const
{
    uint64_t d = deq.load(std::memory_order_acquire);
    uint64_t e = enq.load(std::memory_order_acquire) & ~closedBit;
    return e > d ? std::min<uint64_t>(e - d, cap) : 0;
}

std::optional<net::Packet>
IngestSource::next()
{
    net::Packet packet;
    if (!ring.pop(packet))
        return std::nullopt;
    return packet;
}

} // namespace pb::service
