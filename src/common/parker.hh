/**
 * @file
 * Spin -> yield -> park wait protocol for lock-free queues.
 *
 * A blocked side of a lock-free queue (SpscQueue, service::IngestRing)
 * must be cheap in both regimes it sees.  While the peer is actively
 * streaming the wait is short, so it spins: first with the CPU's
 * pause hint, then with yield().  A persistent daemon also sits idle
 * for long stretches, and a spinning waiter would pin one core per
 * idle thread at 100%, so past the spin budget the waiter parks on a
 * condition variable.
 *
 * The peer pays for this only on the rare path: after publishing a
 * state change it calls wake(), which is one seq_cst fence plus an
 * un-contended load of the sleeper count, and takes the mutex only
 * while someone is parked.  The fences pair Dekker-style — the
 * waker's publish is ordered before its sleeper-count load, the
 * waiter's sleeper-count increment before its predicate re-check —
 * so at least one side sees the other and a wake cannot be lost.
 *
 * One Parker serves one wait condition (say "not empty"); a queue
 * whose producers and consumers can both block holds one per side.
 */

#ifndef PB_COMMON_PARKER_HH
#define PB_COMMON_PARKER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace pb
{

namespace detail
{

/** One polite spin-wait iteration for the pre-park phase. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#else
    std::this_thread::yield();
#endif
}

} // namespace detail

/** Waiters on one condition, and the wake side that releases them. */
class Parker
{
  public:
    /// Pause-loop iterations before escalating to yield().
    static constexpr int pauseSpins = 256;
    /// Total spin iterations (pause + yield) before parking.
    static constexpr int maxSpins = 2048;

    /**
     * Block until @p ready() holds.  @p ready must read only atomics
     * that the waking side publishes before it calls wake() or
     * wakeAll().  A parked waiter also re-evaluates @p ready every
     * @p slice: a backstop against a missed wake, and the poll period
     * for conditions nobody wakes on, such as a shutdown flag.
     */
    template <typename Ready>
    void
    wait(Ready &&ready, std::chrono::milliseconds slice)
    {
        for (int i = 0; i < maxSpins; i++) {
            if (ready())
                return;
            if (i < pauseSpins)
                detail::cpuRelax();
            else
                std::this_thread::yield();
        }
        std::unique_lock<std::mutex> lock(mu);
        sleepers.fetch_add(1, std::memory_order_seq_cst);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        while (!ready())
            cv.wait_for(lock, slice);
        sleepers.fetch_sub(1, std::memory_order_relaxed);
    }

    /**
     * Release parked waiters, if any, after a state change was
     * published.  Notifies under the mutex so a wake cannot slip
     * between a waiter's final re-check and its wait.
     */
    void
    wake()
    {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (sleepers.load(std::memory_order_relaxed) == 0)
            return;
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
    }

    /** Release every parked waiter unconditionally (close paths). */
    void
    wakeAll()
    {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
    }

  private:
    /** Threads parked (or about to park) on cv. */
    std::atomic<uint32_t> sleepers{0};
    std::mutex mu;
    std::condition_variable cv;
};

} // namespace pb

#endif // PB_COMMON_PARKER_HH
