/**
 * @file
 * perfbench: the repository's end-to-end benchmark driver.
 *
 *   perfbench --workload cosim|sampled|campaign --seed N --seconds S
 *             --trace 0|1 --out DIR
 *
 * Untraced (--trace 0): set up the workload several times and report
 * the median set-up time, then repeat whole units of the workload's
 * work for S seconds and report the median unit wall time, the
 * simulated-instruction rate and the peak RSS.
 *
 * Traced (--trace 1): set up as above, run the layer ledger (every
 * module, spans around every public call), then the workload's own
 * units for S/2 seconds traced and S/2 untraced; report the per-layer
 * metrics, each module's self time, the tracing overhead and the
 * workload's self-time shares, and write the spans to DIR as Chrome
 * trace-event JSON.
 *
 * The last line of standard output is one JSON object:
 * {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/clock.h"
#include "flows.h"
#include "stats.h"

using namespace perfbench;
using namespace minjie;

namespace {

class Workload
{
  public:
    virtual ~Workload() = default;
    /**
     * Set-up repetitions per run; set-up time is their median. A single
     * set-up moves by ±25% between repetitions on a shared host, so
     * each workload repeats about 3 s of set-up. The count is fixed, not
     * timed, because the heap state it leaves moves peak RSS.
     */
    virtual int setupReps() const = 0;
    /** Build the inputs and construct the simulators; returns the
     *  seconds spent building programs. */
    virtual double setup(Tracer &tr) = 0;
    /** One unit of timed work. */
    virtual UnitResult unit(Tracer &tr, Ops &ops) = 0;
    /** Untimed checks after the timed section. */
    virtual void finish(Ops &, bool &) {}
};

/** flow (b): DiffTest-checked co-simulation with LightSSS snapshots. */
class Cosim : public Workload
{
  public:
    explicit Cosim(uint64_t seed) : seed_(seed) {}

    int setupReps() const override { return 5; }

    double
    setup(Tracer &tr) override
    {
        Stopwatch sw;
        progs_ = buildProxies(names(), COSIM_ITERS, seed_, COSIM_VARIANTS, tr);
        double build = sw.elapsedSec();
        for (const auto &p : progs_)
            makeCosimRig(p, {}, tr);
        return build;
    }

    UnitResult
    unit(Tracer &tr, Ops &ops) override
    {
        UnitResult u;
        for (const auto &p : progs_) {
            CosimRig rig = makeCosimRig(p, {}, tr);
            CosimRun r = runCosim(rig, tr);
            ops.count(r.ok);
            u.sec += r.sec;
            u.instrs += static_cast<double>(r.instrs);
        }
        return u;
    }

  private:
    static std::vector<std::string>
    names()
    {
        return {std::begin(COSIM_PROXIES), std::end(COSIM_PROXIES)};
    }

    uint64_t seed_;
    std::vector<wl::Program> progs_;
};

/** flow (a): program -> BBV profile -> checkpoints -> pack -> slices. */
class Sampled : public Workload
{
  public:
    Sampled(uint64_t seed, unsigned workers, std::string outDir)
        : seed_(seed), workers_(workers), outDir_(std::move(outDir))
    {
    }

    int setupReps() const override { return 12; }

    double
    setup(Tracer &tr) override
    {
        Stopwatch sw;
        progs_ = buildProxies({std::begin(SAMPLED_PROXIES),
                               std::end(SAMPLED_PROXIES)},
                              SAMPLED_ITERS, seed_, SAMPLED_VARIANTS, tr);
        return sw.elapsedSec();
    }

    UnitResult
    unit(Tracer &tr, Ops &ops) override
    {
        UnitResult u;
        ipc_.clear();
        k_.clear();
        Stopwatch sw;
        for (const auto &p : progs_) {
            SampledRun r = runSampledFlow(p, workers_, tr);
            if (!r.pack.valid())
                ops.count(false);
            for (const auto &s : r.rep.slices)
                ops.count(sliceOk(s));
            ipc_.push_back(r.rep.weightedIpc());
            k_.push_back(r.gen.checkpoints.size());
            u.instrs += static_cast<double>(r.gen.totalInsts);
        }
        u.sec = sw.elapsedSec();
        return u;
    }

    void
    finish(Ops &, bool &correct) override
    {
        auto full = fullRunIpc(progs_, outDir_);
        for (size_t i = 0; i < progs_.size(); ++i) {
            std::printf("sampled %-10s %zu checkpoints, ipc %.4f, full-run "
                        "ipc %.4f\n",
                        progs_[i].name.c_str(), k_[i], ipc_[i], full[i]);
            if (full[i] <= 0)
                correct = false;
        }
        std::printf("sampled_ipc_err_pct %.4f %%\n",
                    ipcErrorPct(ipc_, full));
    }

  private:
    uint64_t seed_;
    unsigned workers_;
    std::string outDir_;
    std::vector<wl::Program> progs_;
    std::vector<double> ipc_; ///< last unit's weighted IPC per program
    std::vector<size_t> k_;   ///< last unit's checkpoints per program
};

/** Fuzz campaign: lockstep engine pairs plus a share of DiffTest jobs. */
class Campaign : public Workload
{
  public:
    Campaign(uint64_t seed, unsigned workers)
        : cfg_(campaignConfig(seed, CAMPAIGN_SEEDS, workers))
    {
    }

    int setupReps() const override { return 30; }

    double
    setup(Tracer &tr) override
    {
        Stopwatch sw;
        buildCampaignPrograms(cfg_, tr);
        return sw.elapsedSec();
    }

    UnitResult
    unit(Tracer &tr, Ops &ops) override
    {
        Stopwatch sw;
        campaign::CampaignReport rep;
        {
            Tracer::Scope span(tr, "campaign.runCampaign");
            rep = campaign::runCampaign(cfg_);
        }
        UnitResult u{sw.elapsedSec(), campaignInstrs(rep)};
        for (const auto &jr : rep.results)
            ops.count(!jr.failed);
        if (rep.jobs != cfg_.seedCount)
            jobsMismatch_ = true;
        return u;
    }

    void
    finish(Ops &, bool &correct) override
    {
        if (jobsMismatch_)
            correct = false;
    }

  private:
    campaign::CampaignConfig cfg_;
    bool jobsMismatch_ = false;
};

struct Section
{
    std::vector<double> unitSec;
    std::vector<double> unitMinstPerSec;
    double sec = 0;
    double instrs = 0;
};

/** Repeat whole units until @p seconds of wall time have passed. */
Section
timedSection(Workload &w, double seconds, Tracer &tr, Ops &ops)
{
    Section s;
    Stopwatch wall;
    do {
        UnitResult u = w.unit(tr, ops);
        s.unitSec.push_back(u.sec);
        s.unitMinstPerSec.push_back(ratio(u.instrs, u.sec) / 1e6);
        s.sec += u.sec;
        s.instrs += u.instrs;
    } while (wall.elapsedSec() < seconds);
    return s;
}

double
peakRssMb()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    std::printf("peak rss: self %.1f MiB, largest child %.1f MiB\n",
                static_cast<double>(self.ru_maxrss) / 1024.0,
                static_cast<double>(kids.ru_maxrss) / 1024.0);
    return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
           1024.0;
}

/** Self time per module over the spans under @p root (all if -1). */
std::map<std::string, double>
moduleSelf(const std::vector<Span> &spans, int root)
{
    auto self = selfTimes(spans);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        bool under = root < 0;
        for (int p = spans[i].parent; !under && p >= 0;
             p = spans[static_cast<size_t>(p)].parent)
            under = p == root;
        if (under && moduleOf(spans[i].name) != "perfbench")
            out[moduleOf(spans[i].name)] += self[i];
    }
    return out;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "cosim|sampled|campaign --seed N --seconds S --trace 0|1 "
                 "--out DIR\n",
                 why);
    std::exit(2);
}

void
printJson(bool correct, const Ops &ops, const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(ops.attempted),
                static_cast<unsigned long long>(ops.failed));
    for (size_t i = 0; i < m.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m[i].name.c_str(), m[i].value,
                    m[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, outDir;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v, &end, 10);
            haveSeed = *v && !*end;
        } else if (a == "--seconds") {
            seconds = std::strtod(v, &end);
            if (!*v || *end)
                seconds = 0;
        } else if (a == "--trace") {
            trace = std::strcmp(v, "0") == 0 ? 0
                    : std::strcmp(v, "1") == 0 ? 1
                                               : -1;
        } else if (a == "--out") {
            outDir = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!haveSeed || seconds <= 0 || trace < 0 || outDir.empty())
        usage("--seed, --seconds > 0, --trace 0|1 and --out are required");

    unsigned workers = benchWorkers();
    std::unique_ptr<Workload> w;
    if (workload == "cosim")
        w = std::make_unique<Cosim>(seed);
    else if (workload == "sampled")
        w = std::make_unique<Sampled>(seed, workers, outDir);
    else if (workload == "campaign")
        w = std::make_unique<Campaign>(seed, workers);
    else
        usage(("unknown workload '" + workload + "'").c_str());

    std::printf("perfbench: workload %s seed %llu seconds %g trace %d "
                "workers %u host cores %u config %s\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                seconds, trace, workers, std::thread::hardware_concurrency(),
                benchCore().name.c_str());

    Tracer tr(trace == 1);
    Tracer off(false);
    Ops ops;
    bool correct = true;
    Metrics m;

    std::vector<double> setupSec, buildSec;
    {
        Tracer::Scope span(tr, "perfbench.setup");
        for (int r = 0; r < w->setupReps(); ++r) {
            Stopwatch sw;
            buildSec.push_back(w->setup(tr));
            setupSec.push_back(sw.elapsedSec());
        }
    }
    std::printf("set-up seconds:");
    for (double t : setupSec)
        std::printf(" %.4f", t);
    std::printf("\n");

    if (trace == 0) {
        Section s = timedSection(*w, seconds, off, ops);
        // Before finish(): the untimed reference runs are not the flow.
        double rss = peakRssMb();
        w->finish(ops, correct);
        m.push_back({"setup_s", median(setupSec), "s"});
        m.push_back({"peak_rss_mb", rss, "MiB"});
        m.push_back({"wall_s", median(s.unitSec), "s"});
        m.push_back({"minst_per_s", median(s.unitMinstPerSec), "Minst/s"});
        std::printf("units %zu, %.3f host s, %.0f simulated instructions\n",
                    s.unitSec.size(), s.sec, s.instrs);
        std::printf("unit seconds:");
        for (double t : s.unitSec)
            std::printf(" %.3f", t);
        std::printf("\n");
        if (workload == "cosim")
            std::printf("cosim_minst_per_s %.4f Minst/s\n",
                        median(s.unitMinstPerSec));
        else if (workload == "sampled")
            std::printf("sampled_wall_s %.4f s\n", median(s.unitSec));
        else
            std::printf("campaign_jobs_per_s %.1f jobs/s\n",
                        ratio(static_cast<double>(CAMPAIGN_SEEDS),
                              median(s.unitSec)));
    } else {
        runLedger(seed, workers, outDir, tr, m, ops, correct);
        int root = tr.begin("perfbench.section");
        Section traced = timedSection(*w, seconds / 2, tr, ops);
        tr.end(root);
        Section plain = timedSection(*w, seconds / 2, off, ops);
        w->finish(ops, correct);

        m.push_back({"workload.build_s", median(buildSec), "s"});
        m.push_back({"trace.overhead_x",
                     ratio(median(traced.unitSec), median(plain.unitSec)),
                     "x"});
        for (const auto &[mod, sec] : moduleSelf(tr.spans(), -1))
            m.push_back({mod + ".self_s", sec, "s"});

        auto shares = moduleSelf(tr.spans(), root);
        double total = 0;
        for (const auto &[mod, sec] : shares)
            total += sec;
        for (const auto &[mod, sec] : shares)
            std::printf("share %s %-10s %6.2f%% of %.3fs traced section\n",
                        workload.c_str(), mod.c_str(),
                        100.0 * ratio(sec, total), total);
        std::string path = outDir + "/trace-" + workload + "-" +
                           std::to_string(seed) + ".json";
        if (!tr.writeChrome(path)) {
            std::printf("cannot write %s\n", path.c_str());
            correct = false;
        } else {
            std::printf("spans: %zu written to %s\n", tr.spans().size(),
                        path.c_str());
        }
    }

    for (const auto &x : m) {
        if (!validMetricName(x.name)) {
            std::printf("invalid metric name '%s'\n", x.name.c_str());
            correct = false;
        }
        std::printf("%-36s %14.6g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
    }
    if (ops.attempted == 0)
        correct = false;
    correct = correct && ops.failed == 0;
    printJson(correct, ops, m);
    return 0;
}
