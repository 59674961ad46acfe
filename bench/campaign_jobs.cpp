/**
 * @file
 * Campaign job cost by kind, and what worker-owned rigs save.
 *
 * Runs a fixed seed range serially, job by job, twice per rep: on one
 * JobRig reused across the range (what a campaign worker does) and on
 * a fresh rig per job (runJob). Reports each job kind's median time on
 * the reused rig and the reused/fresh throughput ratio.
 *
 * Flags:
 *   --smoke       per-instruction-cost gate (ctest label
 *                 "bench-smoke"): the median `*-tci` job must cost at
 *                 most 2x the median spike-vs-dromajo job, best ratio
 *                 of 5 reps (both medians come from the same
 *                 interleaved run, so each rep is a paired
 *                 measurement); exit 1 otherwise
 *   --json FILE   write the measurements as JSON (CI uploads this as
 *                 BENCH_campaign.json)
 */

#include "bench_util.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>

#include "campaign/campaign.h"
#include "common/jsonw.h"

using namespace bench;
using namespace minjie;
using namespace minjie::campaign;

namespace {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One rep: per-kind job times on a reused rig, and both rigs'
 *  throughput over the same seeds. */
struct Rep
{
    std::map<std::string, std::vector<double>> ms; ///< reused rig
    double reusedSec = 0, freshSec = 0;
    unsigned failures = 0;

    double
    tciRatio() const
    {
        std::vector<double> tci;
        for (const char *k : {"spike-vs-tci", "nemu-vs-tci"})
            if (auto it = ms.find(k); it != ms.end())
                tci.insert(tci.end(), it->second.begin(), it->second.end());
        auto base = ms.find("spike-vs-dromajo");
        double b = base == ms.end() ? 0 : median(base->second);
        return b > 0 ? median(tci) / b : 0;
    }
};

Rep
runRep(const CampaignConfig &cfg)
{
    Rep rep;
    JobRig rig(cfg);
    Stopwatch all;
    for (uint64_t s = cfg.seedBase; s < cfg.seedBase + cfg.seedCount; ++s) {
        JobResult jr = rig.run(s);
        rep.ms[jr.kind].push_back(jr.sec * 1e3);
        rep.failures += jr.failed;
    }
    rep.reusedSec = all.elapsedSec();
    Stopwatch fresh;
    for (uint64_t s = cfg.seedBase; s < cfg.seedBase + cfg.seedCount; ++s)
        rep.failures += runJob(cfg, s).failed;
    rep.freshSec = fresh.elapsedSec();
    return rep;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string jsonFile;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonFile = argv[++i];
        else {
            std::fprintf(stderr, "usage: %s [--smoke] [--json FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    constexpr int REPS = 5;
    constexpr double MAX_TCI_RATIO = 2.0;
    CampaignConfig cfg;
    cfg.seedBase = 7ULL << 20;
    cfg.seedCount = smoke || fastMode() ? 600 : 2000;
    cfg.difftestPct = 20;

    std::printf("=== campaign job cost by kind: reused vs fresh rig ===\n");
    std::printf("(%llu seeds per rep, %d reps, 20%% DiffTest, serial; "
                "gate: best p50(*-tci) / p50(spike-vs-dromajo) <= %.1f)\n\n",
                static_cast<unsigned long long>(cfg.seedCount), REPS,
                MAX_TCI_RATIO);
    (void)runRep(cfg); // untimed warm-up: first-touch allocation noise

    std::vector<Rep> reps;
    double bestTci = 0, bestReuse = 0;
    unsigned failures = 0;
    for (int r = 0; r < REPS; ++r) {
        reps.push_back(runRep(cfg));
        const Rep &rep = reps.back();
        double tci = rep.tciRatio();
        double reuse = rep.reusedSec > 0 ? rep.freshSec / rep.reusedSec : 0;
        bestTci = r == 0 ? tci : std::min(bestTci, tci);
        bestReuse = std::max(bestReuse, reuse);
        failures += rep.failures;
        std::printf("rep %d: tci/dromajo %.2fx, reused %.0f jobs/s, fresh "
                    "%.0f jobs/s (%.2fx)\n",
                    r, tci, static_cast<double>(cfg.seedCount) /
                                rep.reusedSec,
                    static_cast<double>(cfg.seedCount) / rep.freshSec,
                    reuse);
    }

    // Per-kind medians over all reps' reused-rig jobs.
    std::map<std::string, std::vector<double>> all;
    for (const Rep &rep : reps)
        for (const auto &[kind, v] : rep.ms)
            all[kind].insert(all[kind].end(), v.begin(), v.end());
    std::printf("\n%-18s %8s %10s\n", "job kind", "jobs", "p50 ms");
    hr('-', 38);
    for (const auto &[kind, v] : all)
        std::printf("%-18s %8zu %10.3f\n", kind.c_str(), v.size(),
                    median(v));
    hr('-', 38);
    std::printf("best tci/dromajo ratio %.2fx, best reused/fresh %.2fx, "
                "%u failed jobs\n",
                bestTci, bestReuse, failures);

    if (!jsonFile.empty()) {
        JsonWriter jw;
        jw.beginObject();
        jw.key("bench").value("campaign_jobs");
        jw.key("seeds_per_rep").value(cfg.seedCount);
        jw.key("reps").value(static_cast<uint64_t>(REPS));
        jw.key("gate_max_tci_ratio").value(MAX_TCI_RATIO);
        jw.key("tci_over_dromajo_best").value(bestTci);
        jw.key("reused_over_fresh_best").value(bestReuse);
        jw.key("failed_jobs").value(static_cast<uint64_t>(failures));
        jw.key("job_ms_p50").beginObject();
        for (const auto &[kind, v] : all)
            jw.key(kind).value(median(v));
        jw.endObject();
        jw.endObject();
        std::ofstream f(jsonFile);
        f << jw.str() << "\n";
        if (!f)
            std::fprintf(stderr, "campaign_jobs: cannot write %s\n",
                         jsonFile.c_str());
        else
            std::printf("JSON written to %s\n", jsonFile.c_str());
    }

    if (failures) {
        std::printf("\nFAIL: %u jobs failed on a clean campaign\n",
                    failures);
        return 1;
    }
    if (smoke && (bestTci <= 0 || bestTci > MAX_TCI_RATIO)) {
        std::printf("\nFAIL: *-tci jobs cost %.2fx spike-vs-dromajo "
                    "(gate <= %.1fx)\n",
                    bestTci, MAX_TCI_RATIO);
        return 1;
    }
    std::printf("\nPASS\n");
    return 0;
}
