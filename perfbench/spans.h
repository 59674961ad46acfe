/**
 * @file
 * In-memory span recorder for the traced run. Spans are opened and
 * closed around calls into the simulator's public API from the
 * benchmark's own code, kept in memory, and written out once at exit
 * as Chrome trace-event JSON (the format `minjie-trace chrome` emits,
 * so the same viewer opens both).
 *
 * A disabled tracer records nothing; Scope then costs one branch.
 * Single-threaded: spans are opened and closed on the calling thread.
 */

#ifndef MINJIE_PERFBENCH_SPANS_H
#define MINJIE_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** Seconds since the tracer was created. */
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    /** Open a span as a child of the innermost open one. */
    int
    begin(const char *name)
    {
        if (!enabled_)
            return -1;
        int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, now(), 0, parent});
        open_.push_back(static_cast<int>(spans_.size() - 1));
        return open_.back();
    }

    void
    end(int idx)
    {
        if (idx < 0)
            return;
        spans_[static_cast<size_t>(idx)].end = now();
        if (!open_.empty() && open_.back() == idx)
            open_.pop_back();
    }

    /** Record an already-timed span under the innermost open one. */
    void
    record(const char *name, double start, double end)
    {
        if (!enabled_)
            return;
        int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, start, end, parent});
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as a Chrome "complete" event; false on error. */
    bool
    writeChrome(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%zu,\"parent\":%d}}",
                         i ? "," : "", s.name.c_str(),
                         moduleOf(s.name).c_str(), s.start * 1e6,
                         (s.end - s.start) * 1e6, i, s.parent);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

    /** RAII span around one call. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : t_(t), idx_(t.begin(name)) {}
        ~Scope() { t_.end(idx_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int idx_;
    };

  private:
    bool enabled_;
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace perfbench

#endif // MINJIE_PERFBENCH_SPANS_H
