/**
 * @file
 * The benchmark's own measurement kit: clocks, per-layer allocation
 * counts, in-memory spans with Chrome trace-event export, and the
 * result line.
 *
 * Everything here measures the program from outside, around calls
 * into its public functions; nothing is added inside src/.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic wall clock, ns. */
uint64_t nowNs();

/** CPU time of the whole process (every thread), ns. */
uint64_t cpuNs();

/** High-water resident set of the process so far, MiB. */
double peakRssMb();

/**
 * Layer a thread is currently inside, set by the spans below.  The
 * benchmark replaces global operator new, and each allocation counts
 * against the calling thread's current layer.
 */
enum class Layer : uint8_t
{
    Bench, ///< the benchmark itself, or no span open
    Net,   ///< trace source reads
    Core,  ///< PacketBench::processPacket
    Count,
};

/** Make @p layer current on this thread; returns the previous one. */
Layer setLayer(Layer layer);

/** Allocations this thread has made while @p layer was current. */
uint64_t allocCount(Layer layer);

/** Sets a layer for its lifetime and restores the previous one. */
class LayerScope
{
  public:
    explicit LayerScope(Layer layer) : prev(setLayer(layer)) {}
    ~LayerScope() { setLayer(prev); }
    LayerScope(const LayerScope &) = delete;
    LayerScope &operator=(const LayerScope &) = delete;

  private:
    Layer prev;
};

/** One recorded interval (Chrome "X" event). */
struct Span
{
    const char *name = ""; ///< a literal or SpanLog::intern()ed
    const char *cat = "";
    uint64_t start = 0; ///< nowNs()
    uint64_t end = 0;
    int64_t parent = -1;  ///< index of the enclosing span, -1 = root
    uint64_t packet = 0;  ///< packet id shared by one packet's spans
    uint32_t tid = 0;     ///< trace row: 0 = benchmark, 1 = replayer
    uint64_t simNs = 0; ///< Δphase.simulate_ns inside this span
};

/**
 * Spans kept in memory and written at the end.  Recording stops at
 * a fixed cap so a long run cannot grow without bound; aggregates
 * are kept by the callers, not derived from the stored spans.
 */
class SpanLog
{
  public:
    explicit SpanLog(size_t cap) : cap(cap) { spans.reserve(cap); }

    /** A copy of @p name that lives as long as the log. */
    const char *
    intern(const std::string &name)
    {
        return names.insert(name).first->c_str();
    }

    /** Record one span; returns its index, or -1 once full. */
    int64_t add(const Span &span);

    /** Set the end of span @p index (ignored when it was dropped). */
    void
    close(int64_t index, uint64_t end)
    {
        if (index >= 0)
            spans[static_cast<size_t>(index)].end = end;
    }

    /**
     * Write Chrome trace-event JSON (loads in Perfetto and
     * chrome://tracing); @p meta lands in the process-name row.
     */
    bool writeChrome(const std::string &path,
                     const std::map<std::string, std::string> &meta)
        const;

  private:
    size_t cap;
    std::vector<Span> spans;
    std::set<std::string> names;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** @p q-quantile by nearest rank (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Ordered name -> (value, unit) map printed as the result line. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);

    /** Aligned human-readable listing. */
    std::string table() const;

    /** The result line: {"correct","attempted","failed","metrics"}. */
    std::string resultJson(bool correct, uint64_t attempted,
                           uint64_t failed) const;

  private:
    std::map<std::string, std::pair<double, std::string>> values;
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
