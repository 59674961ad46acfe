#include "flows.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <thread>

#include "common/clock.h"
#include "obs/topdown.h"
#include "workload/shrinkable.h"

namespace perfbench {

using namespace minjie;

unsigned
benchWorkers()
{
    // Fixed at 3 so a 4-core host keeps one core for the parent and
    // the system; fewer cores than that run one worker per core.
    unsigned n = std::max(1u, std::thread::hardware_concurrency());
    return std::min(3u, n);
}

xs::CoreConfig
benchCore()
{
    return xs::CoreConfig::nh();
}

std::vector<wl::Program>
buildProxies(const std::vector<std::string> &names, uint64_t iters,
             uint64_t seed, unsigned variants, Tracer &tr)
{
    std::vector<const wl::ProxySpec *> specs;
    for (const auto &name : names) {
        const wl::ProxySpec *spec = nullptr;
        for (const auto *suite : {&wl::specIntSuite(), &wl::specFpSuite()})
            for (const auto &s : *suite)
                if (name == s.name)
                    spec = &s;
        if (!spec) {
            std::fprintf(stderr, "perfbench: no proxy named %s\n",
                         name.c_str());
            std::exit(1);
        }
        specs.push_back(spec);
    }
    std::vector<wl::Program> progs;
    for (unsigned v = 0; v < variants; ++v) {
        for (const auto *spec : specs) {
            Tracer::Scope span(tr, "workload.buildProxy");
            progs.push_back(wl::buildProxy(*spec, iters, seed * 64 + v + 1));
        }
    }
    return progs;
}

// ---- cosim ----

CosimRig
makeCosimRig(const wl::Program &prog, const CosimRigOptions &o,
             Tracer &tr)
{
    CosimRig rig;
    {
        Tracer::Scope span(tr, "xiangshan.construct");
        rig.soc = std::make_unique<xs::Soc>(benchCore());
        prog.loadInto(rig.soc->system().dram);
        rig.soc->setEntry(prog.entry);
    }
    if (o.difftest) {
        Stopwatch sw;
        Tracer::Scope span(tr, "difftest.construct");
        difftest::RuleConfig rules;
        rules.scoreboard = o.scoreboard;
        rig.dt = std::make_unique<difftest::DiffTest>(*rig.soc, rules);
        for (const auto &seg : prog.segments)
            rig.dt->loadRefMemory(seg.base, seg.bytes.data(),
                                  seg.bytes.size());
        rig.dt->resetRefs(prog.entry);
        rig.difftestConstructSec = sw.elapsedSec();
    }
    if (o.snapshots)
        rig.sss = std::make_unique<lightsss::LightSSS>();
    return rig;
}

CosimRun
runCosim(CosimRig &rig, Tracer &tr)
{
    xs::Soc &soc = *rig.soc;
    CosimRun out;
    const Cycle maxCycles = 2'000'000'000;
    Cycle cycle = 0;
    bool completed = false;
    Stopwatch sw;
    {
        Tracer::Scope span(tr, rig.dt ? "difftest.cosim" : "xiangshan.run");
        while (cycle < maxCycles) {
            if (rig.sss) {
                double t0 = tr.enabled() ? tr.now() : 0;
                uint64_t forks = rig.sss->stats().forks;
                auto role = rig.sss->tick(cycle);
                // No replay is ever requested, so a woken snapshot only
                // leaves; it must not run the benchmark a second time.
                if (role == lightsss::LightSSS::Role::ReplayChild)
                    lightsss::LightSSS::finishReplay(0);
                if (tr.enabled() && rig.sss->stats().forks != forks) {
                    double t1 = tr.now();
                    tr.record("lightsss.tick", t0, t1);
                    out.forkMs.push_back((t1 - t0) * 1e3);
                }
            }
            soc.system().clint.tick();
            bool allDone = true;
            Cycle consumed = 1;
            for (unsigned c = 0; c < soc.numCores(); ++c) {
                if (!soc.core(c).done()) {
                    consumed = std::max(consumed,
                                        soc.core(c).tick(maxCycles - cycle));
                    allDone = false;
                }
            }
            cycle += consumed;
            if (consumed > 1)
                soc.system().clint.tick(consumed - 1);
            if (rig.dt && !rig.dt->ok())
                break;
            if (allDone) {
                completed = true;
                break;
            }
        }
        if (rig.sss)
            rig.sss->discardAll();
    }
    out.sec = sw.elapsedSec();
    const auto &p = soc.core(0).perf();
    out.instrs = p.instrs;
    out.cycles = p.cycles;
    const auto &sc = soc.system().simctrl;
    out.ok = completed && (!rig.dt || rig.dt->ok()) && sc.exited() &&
             sc.exitCode() == 0;
    return out;
}

// ---- sampled ----

sample::SampleConfig
sampleConfig(unsigned workers)
{
    sample::SampleConfig c;
    c.workers = workers;
    c.measureInsts = SAMPLED_INTERVAL;
    c.coreCfg = benchCore();
    return c;
}

SampledRun
runSampledFlow(const wl::Program &prog, unsigned workers, Tracer &tr)
{
    SampledRun r;
    Stopwatch sw;
    {
        Tracer::Scope span(tr, "checkpoint.generateCheckpoints");
        r.gen = checkpoint::generateCheckpoints(prog, SAMPLED_INTERVAL,
                                                SAMPLED_MAX_K);
    }
    r.generateSec = sw.elapsedSec();
    sw.reset();
    {
        Tracer::Scope span(tr, "sample.packFromGen");
        auto bytes = sample::packFromGen(r.gen);
        r.packBytes = bytes.size();
        if (!r.pack.openMemory(std::move(bytes)))
            r.packBytes = 0;
    }
    r.packSec = sw.elapsedSec();
    sw.reset();
    if (r.pack.valid()) {
        Tracer::Scope span(tr, "sample.runSampled");
        r.rep = sample::runSampled(r.pack, sampleConfig(workers));
    }
    r.runSec = sw.elapsedSec();
    return r;
}

bool
sliceOk(const sample::SliceResult &s)
{
    return s.ok &&
           obs::CpiStack::fromCounters(s.counters, "core0").sumsExactly();
}

namespace {

/** FNV-1a, 64-bit. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(const void *data, size_t len)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        for (size_t i = 0; i < len; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }
};

uint64_t
exeHash()
{
    std::ifstream f("/proc/self/exe", std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    Fnv h;
    h.add(bytes.data(), bytes.size());
    return h.h;
}

/** Reference key: executable, core configuration, program bytes. */
std::string
refKey(uint64_t exe, const wl::Program &prog)
{
    Fnv h;
    h.add(&exe, sizeof exe);
    std::string cfg = benchCore().name;
    h.add(cfg.data(), cfg.size());
    h.add(&prog.entry, sizeof prog.entry);
    for (const auto &seg : prog.segments) {
        h.add(&seg.base, sizeof seg.base);
        h.add(seg.bytes.data(), seg.bytes.size());
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h.h));
    return buf;
}

} // namespace

std::vector<double>
fullRunIpc(const std::vector<wl::Program> &progs,
           const std::string &cacheDir)
{
    uint64_t exe = exeHash();
    std::vector<double> ipc(progs.size(), 0);
    std::vector<std::string> paths(progs.size());
    std::vector<std::thread> pool;
    for (size_t i = 0; i < progs.size(); ++i) {
        paths[i] = cacheDir + "/fullrun-" + refKey(exe, progs[i]) + ".txt";
        uint64_t instrs = 0, cycles = 0;
        if (std::FILE *f = std::fopen(paths[i].c_str(), "r")) {
            unsigned long long a = 0, b = 0;
            if (std::fscanf(f, "%llu %llu", &a, &b) == 2 && b) {
                instrs = a;
                cycles = b;
            }
            std::fclose(f);
        }
        if (cycles) {
            ipc[i] = static_cast<double>(instrs) /
                     static_cast<double>(cycles);
            continue;
        }
        pool.emplace_back([&, i] {
            xs::Soc soc(benchCore());
            progs[i].loadInto(soc.system().dram);
            soc.setEntry(progs[i].entry);
            auto r = soc.run(2'000'000'000);
            const auto &p = soc.core(0).perf();
            if (!r.completed || !p.cycles)
                return;
            ipc[i] = p.ipc();
            std::string tmp = paths[i] + ".tmp";
            if (std::FILE *f = std::fopen(tmp.c_str(), "w")) {
                std::fprintf(f, "%llu %llu\n",
                             static_cast<unsigned long long>(p.instrs),
                             static_cast<unsigned long long>(p.cycles));
                if (std::fclose(f) == 0)
                    std::rename(tmp.c_str(), paths[i].c_str());
            }
        });
    }
    for (auto &t : pool)
        t.join();
    return ipc;
}

double
ipcErrorPct(const std::vector<double> &sampled,
            const std::vector<double> &full)
{
    double sum = 0;
    for (size_t i = 0; i < full.size(); ++i)
        sum += full[i] > 0 ? std::fabs(sampled[i] - full[i]) / full[i]
                           : 1.0;
    return full.empty() ? 0 : 100.0 * sum / static_cast<double>(full.size());
}

// ---- campaign ----

campaign::CampaignConfig
campaignConfig(uint64_t seed, uint64_t seeds, unsigned workers)
{
    campaign::CampaignConfig c;
    c.seedBase = seed << 20;
    c.seedCount = seeds;
    c.workers = workers;
    c.difftestPct = CAMPAIGN_DIFFTEST_PCT;
    return c;
}

size_t
buildCampaignPrograms(const campaign::CampaignConfig &cfg, Tracer &tr)
{
    Tracer::Scope span(tr, "workload.randomShrinkable");
    size_t segments = 0;
    for (uint64_t s = cfg.seedBase; s < cfg.seedBase + cfg.seedCount; ++s) {
        campaign::JobPlan plan = campaign::planJob(cfg, s);
        Rng rng(s);
        segments +=
            wl::randomShrinkable(rng, plan.spec).assemble().segments.size();
    }
    return segments;
}

double
campaignInstrs(const campaign::CampaignReport &rep)
{
    double n = 0;
    for (const auto &jr : rep.results)
        n += static_cast<double>(jr.steps) * (jr.kind == "difftest" ? 1 : 2);
    return n;
}

} // namespace perfbench
