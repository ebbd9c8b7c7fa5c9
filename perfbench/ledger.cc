/**
 * @file
 * Measurement kit implementation, including the global operator
 * new/delete replacement that counts allocations per layer.
 */

#include "ledger.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>

namespace perfbench
{

namespace
{

// Trivially initialized, so operator new may touch them on any
// thread at any time, including during static initialization.
thread_local Layer currentLayer = Layer::Bench;
thread_local uint64_t layerAllocs[static_cast<size_t>(Layer::Count)] =
    {};

uint64_t
clockNs(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/** Chrome trace timestamps are microseconds; keep ns precision. */
std::string
usec(uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu.%03u",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned>(ns % 1000));
    return buf;
}

void *
countedAlloc(std::size_t size, std::size_t align)
{
    layerAllocs[static_cast<size_t>(currentLayer)]++;
    if (size == 0)
        size = 1;
    if (align <= alignof(std::max_align_t))
        return std::malloc(size);
    return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void *
allocOrThrow(std::size_t size, std::size_t align)
{
    void *p = countedAlloc(size, align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

uint64_t
nowNs()
{
    return clockNs(CLOCK_MONOTONIC);
}

uint64_t
cpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

Layer
setLayer(Layer layer)
{
    Layer prev = currentLayer;
    currentLayer = layer;
    return prev;
}

uint64_t
allocCount(Layer layer)
{
    return layerAllocs[static_cast<size_t>(layer)];
}

int64_t
SpanLog::add(const Span &span)
{
    if (spans.size() >= cap)
        return -1;
    spans.push_back(span);
    return static_cast<int64_t>(spans.size() - 1);
}

bool
SpanLog::writeChrome(const std::string &path,
                     const std::map<std::string, std::string> &meta)
    const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    uint64_t origin = spans.empty() ? 0 : spans.front().start;
    std::string args;
    for (const auto &[k, v] : meta)
        args += ",\"" + jsonEscape(k) + "\":\"" + jsonEscape(v) + "\"";
    std::fprintf(f,
                 "{\"traceEvents\":[\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                 "\"name\":\"process_name\",\"args\":{\"name\":"
                 "\"perfbench\"%s}}",
                 args.c_str());
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        std::fprintf(f,
                     ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%s,"
                     "\"dur\":%s,\"cat\":\"%s\",\"name\":\"%s\","
                     "\"args\":{\"id\":%zu,\"parent\":%lld,"
                     "\"packet\":%llu,\"sim_ns\":%llu}}",
                     s.tid, usec(s.start - origin).c_str(),
                     usec(s.end - s.start).c_str(), s.cat, s.name, i,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.packet),
                     static_cast<unsigned long long>(s.simNs));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank ? rank - 1 : 0)];
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    values[name] = {std::isfinite(value) ? value : 0.0, unit};
}

std::string
Metrics::table() const
{
    std::string out;
    for (const auto &[name, vu] : values) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-34s %18.6g %s\n",
                      name.c_str(), vu.first, vu.second.c_str());
        out += line;
    }
    return out;
}

std::string
Metrics::resultJson(bool correct, uint64_t attempted,
                    uint64_t failed) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : values) {
        char num[40];
        std::snprintf(num, sizeof num, "%.17g", vu.first);
        out += first ? "" : ", ";
        out += "\"" + jsonEscape(name) + "\": {\"value\": " + num +
               ", \"unit\": \"" + jsonEscape(vu.second) + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

} // namespace perfbench

// ---- global allocation functions (counted per layer) --------------

void *operator new(std::size_t n)
{
    return perfbench::allocOrThrow(n, 0);
}
void *operator new[](std::size_t n)
{
    return perfbench::allocOrThrow(n, 0);
}
void *operator new(std::size_t n, std::align_val_t a)
{
    return perfbench::allocOrThrow(n, static_cast<std::size_t>(a));
}
void *operator new[](std::size_t n, std::align_val_t a)
{
    return perfbench::allocOrThrow(n, static_cast<std::size_t>(a));
}
void *operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return perfbench::countedAlloc(n, 0);
}
void *operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return perfbench::countedAlloc(n, 0);
}
void *operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t &) noexcept
{
    return perfbench::countedAlloc(n, static_cast<std::size_t>(a));
}
void *operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t &) noexcept
{
    return perfbench::countedAlloc(n, static_cast<std::size_t>(a));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t,
                     const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t,
                       const std::nothrow_t &) noexcept
{
    std::free(p);
}
