/**
 * @file
 * Bounded single-producer/single-consumer queue.
 *
 * The parallel multi-engine run loop (core/multicore.hh) hands
 * batches of packets from one dispatcher thread to one worker thread
 * per engine.  That pairing is exactly SPSC, so the queue needs no
 * locks on the fast path: a ring buffer with an acquire/release
 * head/tail pair is enough, and the bounded capacity provides
 * back-pressure when the dispatcher outruns a worker.
 *
 * Waiting is spin -> yield -> park (common/parker.hh).  A pure
 * yield() spin was fine for finite batch runs, but a persistent
 * daemon (service/daemon.hh) pins one core per *idle* worker at 100%
 * with it.  The peer wakes a parked side only when someone is
 * actually parked, so the streaming fast path stays a pair of atomic
 * ops plus one fence and an un-contended flag load.
 *
 * Contract:
 *  - exactly one thread calls push()/close(), exactly one calls pop(),
 *  - push() blocks (parking when idle) while the queue is full,
 *  - pop() blocks while the queue is empty and not closed, and
 *    returns false once the queue is closed *and* drained,
 *  - close() is called by the producer after its last push().
 */

#ifndef PB_COMMON_SPSCQUEUE_HH
#define PB_COMMON_SPSCQUEUE_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <vector>

#include "common/parker.hh"

namespace pb
{

/** Bounded SPSC ring buffer holding up to @p capacity items. */
template <typename T>
class SpscQueue
{
  public:
    explicit SpscQueue(size_t capacity) : slots(capacity + 1) {}

    SpscQueue(const SpscQueue &) = delete;
    SpscQueue &operator=(const SpscQueue &) = delete;

    /** Producer: enqueue @p item, waiting while the queue is full. */
    void
    push(T &&item)
    {
        size_t h = head.load(std::memory_order_relaxed);
        size_t nh = next(h);
        if (nh == tail.load(std::memory_order_acquire)) {
            parker.wait(
                [&] { return nh != tail.load(std::memory_order_acquire); },
                parkSlice);
        }
        slots[h] = std::move(item);
        head.store(nh, std::memory_order_release);
        parker.wake();
    }

    /**
     * Consumer: dequeue into @p out, waiting while the queue is
     * empty.  Returns false once the producer has close()d the queue
     * and every item has been drained.
     */
    bool
    pop(T &out)
    {
        size_t t = tail.load(std::memory_order_relaxed);
        if (t == head.load(std::memory_order_acquire)) {
            parker.wait(
                [&] {
                    return t != head.load(std::memory_order_acquire) ||
                           closed_.load(std::memory_order_acquire);
                },
                parkSlice);
            if (t == head.load(std::memory_order_acquire))
                return false; // closed and drained
        }
        out = std::move(slots[t]);
        tail.store(next(t), std::memory_order_release);
        parker.wake();
        return true;
    }

    /** Producer: no further push() calls will follow. */
    void
    close()
    {
        closed_.store(true, std::memory_order_release);
        // Always wake: a consumer parked on an empty queue must
        // observe closed and return false.
        parker.wakeAll();
    }

    /** True once close() was called (items may still be queued). */
    bool closed() const
    {
        return closed_.load(std::memory_order_acquire);
    }

    /** Maximum number of queued items. */
    size_t capacity() const { return slots.size() - 1; }

    /**
     * Approximate occupancy (racy by nature: either index may move
     * while we read).  Good enough for back-pressure telemetry —
     * the dispatcher samples it into queue-occupancy trace events.
     */
    size_t
    size() const
    {
        size_t h = head.load(std::memory_order_acquire);
        size_t t = tail.load(std::memory_order_acquire);
        return h >= t ? h - t : h + slots.size() - t;
    }

  private:
    /**
     * Backstop re-check period for a parked side; the wake protocol
     * makes a lost wake impossible, so this only turns "impossible"
     * into "100 ms hiccup".
     */
    static constexpr std::chrono::milliseconds parkSlice{100};

    size_t
    next(size_t i) const
    {
        return i + 1 == slots.size() ? 0 : i + 1;
    }

    std::vector<T> slots;
    std::atomic<size_t> head{0}; ///< producer-owned write index
    std::atomic<size_t> tail{0}; ///< consumer-owned read index
    std::atomic<bool> closed_{false};

    /**
     * One parker serves both sides: the producer waits only on a
     * full queue and the consumer only on an empty one, so at most
     * one side is ever parked.
     */
    Parker parker;
};

} // namespace pb

#endif // PB_COMMON_SPSCQUEUE_HH
