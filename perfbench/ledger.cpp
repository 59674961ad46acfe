/**
 * @file
 * The traced run's layer ledger: one fixed pass over every module the
 * two paper flows use, timing calls into each module's public
 * functions from here and deriving the per-layer rates, ratios and
 * counts. Host times are single measurements and carry no bound; the
 * counts are pure functions of the seed and repeat exactly.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/clock.h"
#include "flows.h"
#include "obs/collect.h"
#include "stats.h"

namespace perfbench {

using namespace minjie;

namespace {

/** Cosim ledger programs: the cosim proxies, shorter. */
constexpr uint64_t LEDGER_COSIM_ITERS = 2000;
/** Interleaved repetitions; host times are their medians. */
constexpr unsigned LEDGER_COSIM_REPS = 3;
/** Enough DiffTest jobs (20%) that p99 keeps ten samples beyond it. */
constexpr uint64_t LEDGER_CAMPAIGN_SEEDS = 6000;
constexpr uint64_t LEDGER_FIXED_JOBS = 400;
/** "Minimal body" of the fixed-cost probe. */
constexpr unsigned LEDGER_FIXED_BODY = 1;

double
childPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
put(Metrics &m, const std::string &name, double v, const char *unit)
{
    m.push_back({name, v, unit});
}

/** Sum "mem.<prefix>*.{hits,misses}" over a snapshot. */
void
addCacheCounts(const obs::CounterSnapshot &s, const std::string &prefix,
               double &hits, double &misses)
{
    for (const auto &[k, v] : s.values) {
        if (k.compare(0, prefix.size(), prefix) != 0)
            continue;
        if (k.size() > 5 && k.compare(k.size() - 5, 5, ".hits") == 0)
            hits += static_cast<double>(v);
        else if (k.size() > 7 && k.compare(k.size() - 7, 7, ".misses") == 0)
            misses += static_cast<double>(v);
    }
}

void
ledgerSampled(uint64_t seed, unsigned workers, const std::string &outDir,
              Tracer &tr, Metrics &m, Ops &ops, bool &correct)
{
    std::vector<std::string> names(std::begin(SAMPLED_PROXIES),
                                   std::end(SAMPLED_PROXIES));
    auto progs = buildProxies(names, SAMPLED_ITERS, seed, SAMPLED_VARIANTS, tr);

    double genSec = 0, packSec = 0, runSec = 0, sliceSum = 0;
    double profInsts = 0, profSec = 0, genInsts = 0, genPassSec = 0;
    double packKib = 0, poolPages = 0, count = 0, sliceInstrs = 0;
    obs::CpiStack td;
    std::vector<double> sampledIpc;
    for (const auto &prog : progs) {
        SampledRun r = runSampledFlow(prog, workers, tr);
        genSec += r.generateSec;
        packSec += r.packSec;
        runSec += r.runSec;
        auto insts = static_cast<double>(r.gen.totalInsts);
        if (r.gen.profileMips > 0) {
            profInsts += insts;
            profSec += insts / (r.gen.profileMips * 1e6);
        }
        if (r.gen.generateMips > 0) {
            genInsts += insts;
            genPassSec += insts / (r.gen.generateMips * 1e6);
        }
        packKib += static_cast<double>(r.packBytes) / 1024.0;
        poolPages += static_cast<double>(r.pack.poolPages());
        count += static_cast<double>(r.gen.checkpoints.size());
        for (const auto &s : r.rep.slices)
            ops.count(sliceOk(s));
        if (!r.pack.valid()) {
            ops.count(false);
            continue;
        }
        td.cycles += r.rep.stack.cycles;
        td.instrs += r.rep.stack.instrs;
        td.retiring += r.rep.stack.retiring;
        td.frontend += r.rep.stack.frontend;
        td.badSpec += r.rep.stack.badSpec;
        td.backendMem += r.rep.stack.backendMem;
        td.backendCore += r.rep.stack.backendCore;
        sampledIpc.push_back(r.rep.weightedIpc());

        // Serial in-process slices: the work the fan-out divides.
        for (size_t i = 0; i < r.pack.count(); ++i) {
            Stopwatch sw;
            sample::SliceResult s;
            {
                Tracer::Scope span(tr, "sample.runSlice");
                s = sample::runSlice(r.pack, i, sampleConfig(1));
            }
            sliceSum += sw.elapsedSec();
            sliceInstrs += static_cast<double>(s.instrs);
        }
        // Worker-count invariance: serial == forked, byte for byte.
        sample::SampleReport serial;
        {
            Tracer::Scope span(tr, "sample.runSampled");
            serial = sample::runSampled(r.pack, sampleConfig(1));
        }
        bool same = serial.weighted.toJson() == r.rep.weighted.toJson() &&
                    serial.weightedCycles == r.rep.weightedCycles &&
                    serial.weightedInstrs == r.rep.weightedInstrs;
        if (!same) {
            std::printf("ledger: %s serial and %u-worker runSampled differ\n",
                        prog.name.c_str(), workers);
            correct = false;
        }
    }
    double childRss = childPeakRssMb();
    auto full = fullRunIpc(progs, outDir);
    for (double ipc : full)
        if (ipc <= 0)
            correct = false; // a reference run did not complete
    double err = sampledIpc.size() == full.size()
                     ? ipcErrorPct(sampledIpc, full)
                     : 100.0;

    put(m, "checkpoint.generate_s", genSec, "s");
    put(m, "checkpoint.count", count, "count");
    put(m, "nemu.profile_mips", ratio(profInsts, profSec) / 1e6, "MIPS");
    put(m, "nemu.generate_mips", ratio(genInsts, genPassSec) / 1e6, "MIPS");
    put(m, "sample.pack_s", packSec, "s");
    put(m, "sample.pack_kib", packKib, "KiB");
    put(m, "sample.pool_pages", poolPages, "count");
    put(m, "sample.run_s", runSec, "s");
    put(m, "sample.slice_s_sum", sliceSum, "s");
    put(m, "sample.fanout_efficiency",
        fanoutEfficiency(sliceSum, workers, runSec), "ratio");
    put(m, "sample.child_peak_rss_mb", childRss, "MiB");
    put(m, "sample.ipc_err_pct", err, "%");
    put(m, "xiangshan.slice_minst_per_s", ratio(sliceInstrs, sliceSum) / 1e6,
        "Minst/s");
    put(m, "obs.topdown.retiring", static_cast<double>(td.retiring), "count");
    put(m, "obs.topdown.frontend", static_cast<double>(td.frontend), "count");
    put(m, "obs.topdown.bad_spec", static_cast<double>(td.badSpec), "count");
    put(m, "obs.topdown.backend_mem", static_cast<double>(td.backendMem),
        "count");
    put(m, "obs.topdown.backend_core", static_cast<double>(td.backendCore),
        "count");
    std::printf("ledger: sampled %zu programs, %g checkpoints, ipc error "
                "%.3f%%, fan-out efficiency %.3f at %u workers\n",
                progs.size(), count, err,
                fanoutEfficiency(sliceSum, workers, runSec), workers);
}

void
ledgerCosim(uint64_t seed, Tracer &tr, Metrics &m, Ops &ops)
{
    std::vector<std::string> names(std::begin(COSIM_PROXIES),
                                   std::end(COSIM_PROXIES));
    auto progs = buildProxies(names, LEDGER_COSIM_ITERS, seed, 1, tr);

    // Per repetition: host seconds summed over the programs.
    std::vector<double> tDut(LEDGER_COSIM_REPS), tDt(LEDGER_COSIM_REPS),
        tNoSb(LEDGER_COSIM_REPS), tSss(LEDGER_COSIM_REPS);
    double instrs = 0, cycles = 0, commits = 0, csr = 0;
    double l1dHit = 0, l1dMiss = 0, l2Hit = 0, l2Miss = 0;
    double uopHits = 0, uopLookups = 0, tlbFlushes = 0, forks = 0;
    std::vector<double> constructMs, forkMs;
    for (size_t run = 0; run < LEDGER_COSIM_REPS * progs.size(); ++run) {
        const size_t rep = run / progs.size();
        const wl::Program &prog = progs[run % progs.size()];
        // Counts are identical across repetitions; take them once.
        const bool first = rep == 0;
        {
            CosimRig rig = makeCosimRig(prog, {false, false, true}, tr);
            Stopwatch sw;
            xs::Soc::RunResult r;
            {
                Tracer::Scope span(tr, "xiangshan.run");
                r = rig.soc->run(2'000'000'000);
            }
            tDut[rep] += sw.elapsedSec();
            const auto &sc = rig.soc->system().simctrl;
            ops.count(r.completed && sc.exited() && sc.exitCode() == 0);
            if (first) {
                const auto &p = rig.soc->core(0).perf();
                instrs += static_cast<double>(p.instrs);
                cycles += static_cast<double>(p.cycles);
                obs::CounterGroup root("soc");
                obs::collectSoc(root, *rig.soc);
                obs::CounterSnapshot snap = root.snapshot();
                addCacheCounts(snap, "soc.mem.L1D.", l1dHit, l1dMiss);
                addCacheCounts(snap, "soc.mem.L2.", l2Hit, l2Miss);
            }
        }
        for (bool scoreboard : {true, false}) {
            CosimRig rig = makeCosimRig(prog, {true, false, scoreboard}, tr);
            constructMs.push_back(rig.difftestConstructSec * 1e3);
            Stopwatch sw;
            {
                Tracer::Scope span(tr, "difftest.run");
                rig.dt->run(2'000'000'000);
            }
            (scoreboard ? tDt : tNoSb)[rep] += sw.elapsedSec();
            const auto &sc = rig.soc->system().simctrl;
            ops.count(rig.dt->ok() && sc.exited() && sc.exitCode() == 0);
            if (!scoreboard || !first)
                continue;
            commits += static_cast<double>(rig.dt->stats().commitsChecked);
            csr += static_cast<double>(rig.dt->stats().csrChecks);
            const auto &ns = rig.dt->ref(0).stats();
            uopHits += static_cast<double>(ns.uopHits);
            uopLookups += static_cast<double>(ns.uopHits + ns.translations);
            tlbFlushes += static_cast<double>(ns.hostTlbFlushes);
        }
        {
            CosimRig rig = makeCosimRig(prog, {true, true, true}, tr);
            CosimRun r = runCosim(rig, tr);
            ops.count(r.ok);
            tSss[rep] += r.sec;
            if (first)
                forks += static_cast<double>(rig.sss->stats().forks);
            forkMs.insert(forkMs.end(), r.forkMs.begin(), r.forkMs.end());
        }
    }

    double dut = median(tDut), full = median(tDt), noSb = median(tNoSb),
           sss = median(tSss);
    put(m, "xiangshan.dut_minst_per_s", ratio(instrs, dut) / 1e6, "Minst/s");
    put(m, "xiangshan.cycles", cycles, "count");
    put(m, "xiangshan.instrs", instrs, "count");
    put(m, "uarch.l1d_miss_ratio", ratio(l1dMiss, l1dHit + l1dMiss), "ratio");
    put(m, "uarch.l2_miss_ratio", ratio(l2Miss, l2Hit + l2Miss), "ratio");
    put(m, "difftest.overhead_x", ratio(full, dut), "x");
    put(m, "difftest.scoreboard_share", overheadShare(full, noSb, dut),
        "ratio");
    put(m, "difftest.construct_ms", median(constructMs), "ms");
    put(m, "difftest.commits_checked", commits, "count");
    put(m, "difftest.csr_checks", csr, "count");
    put(m, "nemu.ref_uop_hit_ratio", ratio(uopHits, uopLookups), "ratio");
    put(m, "nemu.ref_tlb_flushes", tlbFlushes, "count");
    put(m, "lightsss.forks", forks, "count");
    put(m, "lightsss.fork_ms_p50", median(forkMs), "ms");
    put(m, "lightsss.fork_ms_max",
        forkMs.empty() ? 0 : *std::max_element(forkMs.begin(), forkMs.end()),
        "ms");
    put(m, "lightsss.overhead_x", ratio(sss, full), "x");
    std::printf("ledger: cosim medians of %u: DUT %.3fs, DiffTest %.3fs, "
                "scoreboard off %.3fs, DiffTest+LightSSS %.3fs, %g forks\n",
                LEDGER_COSIM_REPS, dut, full, noSb, sss, forks);
}

/** Value at the tail percentile the sample count supports (in ms). */
double
tailMs(const std::vector<double> &ms, const char *what)
{
    double p = tailPercentileFor(ms.size());
    if (p < 99)
        std::printf("ledger: %s has %zu samples; tail reported at p%g\n",
                    what, ms.size(), p);
    return percentile(ms, p);
}

void
ledgerCampaign(uint64_t seed, unsigned workers, Tracer &tr, Metrics &m,
               Ops &ops, bool &correct)
{
    auto cfg = campaignConfig(seed, LEDGER_CAMPAIGN_SEEDS, workers);
    campaign::CampaignReport rep;
    {
        Tracer::Scope span(tr, "campaign.runCampaign");
        rep = campaign::runCampaign(cfg);
    }
    if (rep.jobs != cfg.seedCount || rep.results.size() != cfg.seedCount) {
        std::printf("ledger: campaign ran %llu jobs for %llu seeds\n",
                    static_cast<unsigned long long>(rep.jobs),
                    static_cast<unsigned long long>(cfg.seedCount));
        correct = false;
    }
    std::vector<double> lock, dt;
    std::map<std::string, std::vector<double>> byPair;
    double steps = 0, busy = 0;
    for (const auto &jr : rep.results) {
        ops.count(!jr.failed);
        steps += static_cast<double>(jr.steps);
        (jr.kind == "difftest" ? dt : lock).push_back(jr.sec * 1e3);
        if (jr.kind != "difftest")
            byPair[jr.kind].push_back(jr.sec * 1e3);
    }
    for (const auto &w : rep.workers)
        busy += w.busySec;

    // Fixed cost per job: the same seeds, run serially with the
    // campaign's body and with a one-instruction body.
    auto minimal = cfg;
    minimal.nInsts = LEDGER_FIXED_BODY;
    std::vector<double> fixedMs, fullMs;
    for (uint64_t i = 0; i < LEDGER_FIXED_JOBS; ++i) {
        for (const auto *c : {&minimal, &cfg}) {
            double t0 = tr.now();
            campaign::JobResult jr;
            {
                Tracer::Scope span(tr, "campaign.runJob");
                jr = campaign::runJob(*c, c->seedBase + i);
            }
            (c == &cfg ? fullMs : fixedMs).push_back((tr.now() - t0) * 1e3);
            ops.count(!jr.failed);
        }
    }

    put(m, "campaign.job_ms_p50.lockstep", median(lock), "ms");
    put(m, "campaign.job_ms_p50.difftest", median(dt), "ms");
    put(m, "campaign.job_ms_p99.lockstep", tailMs(lock, "lockstep"), "ms");
    put(m, "campaign.job_ms_p99.difftest", tailMs(dt, "difftest"), "ms");
    for (const auto &pair : cfg.pairs) {
        std::string kind = std::string(campaign::engineName(pair.first)) +
                           "-vs-" + campaign::engineName(pair.second);
        std::string key = std::string(campaign::engineName(pair.first)) +
                          "-" + campaign::engineName(pair.second);
        put(m, "campaign.job_ms_p50." + key, median(byPair[kind]), "ms");
    }
    put(m, "campaign.job_fixed_ms", median(fixedMs), "ms");
    put(m, "campaign.fixed_cost_share", ratio(median(fixedMs), median(fullMs)),
        "ratio");
    put(m, "campaign.worker_busy_frac",
        ratio(busy, workers * rep.elapsedSec), "ratio");
    put(m, "campaign.steps", steps, "count");
    std::printf("ledger: campaign %llu jobs (%zu lockstep, %zu DiffTest) "
                "in %.3fs, %llu failures\n",
                static_cast<unsigned long long>(rep.jobs), lock.size(),
                dt.size(), rep.elapsedSec,
                static_cast<unsigned long long>(rep.failures));
}

} // namespace

void
runLedger(uint64_t seed, unsigned workers, const std::string &outDir,
          Tracer &tr, Metrics &m, Ops &ops, bool &correct)
{
    Tracer::Scope span(tr, "perfbench.ledger");
    // Sampled first, so the child peak RSS is that of slice workers
    // rather than of LightSSS snapshots.
    ledgerSampled(seed, workers, outDir, tr, m, ops, correct);
    ledgerCosim(seed, tr, m, ops);
    ledgerCampaign(seed, workers, tr, m, ops, correct);
}

} // namespace perfbench
