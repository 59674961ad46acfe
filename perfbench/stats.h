/**
 * @file
 * The benchmark's own arithmetic: order statistics, the tail-percentile
 * rule, span self time, fan-out efficiency and the metric-name charset.
 * Header-only so the unit tests link nothing from the simulator.
 */

#ifndef MINJIE_PERFBENCH_STATS_H
#define MINJIE_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/**
 * Percentile @p p (0..100) of @p v by linear interpolation between
 * closest ranks (the rule numpy and Python's "inclusive" method use).
 * An empty input yields 0.
 */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

/** Samples strictly above which a tail percentile is reported. */
constexpr size_t TAIL_BEYOND = 10;

/**
 * The highest of the standard percentiles (99.9, 99, 90, 50) that has
 * at least TAIL_BEYOND of @p n samples beyond it; 0 when even the
 * median has fewer (n < 20), meaning no tail can be reported.
 */
inline double
tailPercentileFor(size_t n)
{
    for (double p : {99.9, 99.0, 90.0, 50.0})
        if (static_cast<double>(n) * (1.0 - p / 100.0) >=
            static_cast<double>(TAIL_BEYOND) - 1e-9)
            return p;
    return 0;
}

/** One recorded span; times in seconds from the tracer's origin. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
};

/**
 * Self time of every span: its duration minus the union of its direct
 * children's intervals clipped to it. Children may overlap each other
 * (spans recorded from several threads), so the union is taken rather
 * than the sum.
 */
inline std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const auto &s : spans)
        if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size())
            kids[static_cast<size_t>(s.parent)].emplace_back(s.start,
                                                             s.end);
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, curLo = 0, curHi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.start);
            hi = std::min(hi, s.end);
            if (hi <= lo)
                continue;
            if (open && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (open)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            open = true;
        }
        if (open)
            covered += curHi - curLo;
        self[i] = std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

/** Module of a span: its name up to the first '.'. */
inline std::string
moduleOf(const std::string &spanName)
{
    return spanName.substr(0, spanName.find('.'));
}

/** @p with / @p without; 0 when the base is not positive. */
inline double
ratio(double with, double without)
{
    return without > 0 ? with / without : 0;
}

/**
 * Share of an overhead removed by an ablation: the full run takes
 * @p full, the baseline without the checker @p base, and the run with
 * one component turned off @p ablated.
 */
inline double
overheadShare(double full, double ablated, double base)
{
    return full > base ? (full - ablated) / (full - base) : 0;
}

/**
 * How well @p workers forked workers kept busy: the serial sum of the
 * slice times over the capacity the parallel run held.
 */
inline double
fanoutEfficiency(double serialSliceSum, unsigned workers,
                 double parallelWall)
{
    return workers && parallelWall > 0
               ? serialSliceSum / (workers * parallelWall)
               : 0;
}

/** A metric name: 1-64 chars of [A-Za-z0-9_.-], leading alnum. */
inline bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    for (char c : name)
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    return true;
}

} // namespace perfbench

#endif // MINJIE_PERFBENCH_STATS_H
