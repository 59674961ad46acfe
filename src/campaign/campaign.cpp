#include "campaign/campaign.h"

#include <atomic>
#include <map>
#include <thread>

#include "campaign/corpus.h"
#include "campaign/shrink.h"
#include "common/clock.h"
#include "common/jsonw.h"
#include "difftest/difftest.h"
#include "xiangshan/config.h"

namespace minjie::campaign {

namespace wl = minjie::workload;

namespace {

/** Seed scrambler so job planning draws are decorrelated from the
 *  program generator draws (both start from the campaign seed). */
constexpr uint64_t PLAN_SALT = 0x9e3779b97f4a7c15ULL;

} // namespace

JobPlan
planJob(const CampaignConfig &cfg, uint64_t seed)
{
    Rng r(seed ^ PLAN_SALT);
    JobPlan p;
    p.spec.nInsts = cfg.nInsts;
    p.spec.withFp = r.chance(cfg.fpPct);
    p.spec.withRvc = r.chance(cfg.rvcPct);
    p.difftest = r.chance(cfg.difftestPct);
    if (p.difftest) {
        // DiffTest jobs stay integer-only: the cycle-accurate DUT is
        // orders of magnitude slower, and fp/RVC coverage is carried by
        // the cheap engine-pair jobs.
        p.spec.withFp = false;
        p.spec.withRvc = false;
        return p;
    }
    if (!cfg.pairs.empty()) {
        auto pair = cfg.pairs[r.below(cfg.pairs.size())];
        p.a = pair.first;
        p.b = pair.second;
    }
    if (p.spec.withFp &&
        (p.a == Engine::Nemu || p.b == Engine::Nemu)) {
        // Nemu executes fp on the host FPU; bit-exact fp fuzzing runs
        // on the soft-float engines only.
        p.a = Engine::Spike;
        p.b = Engine::Dromajo;
    }
    return p;
}

JobRig::JobRig(const CampaignConfig &cfg) : cfg_(cfg) {}

JobRig::~JobRig() = default;

EngineBox &
JobRig::box(Engine kind, unsigned copy)
{
    auto &slot = boxes_[static_cast<unsigned>(kind)][copy];
    if (!slot)
        slot = std::make_unique<EngineBox>(kind, cfg_.lockstep);
    return *slot;
}

LockstepResult
JobRig::lockstep(Engine a, Engine b, const wl::Program &prog)
{
    const BugInject *bug = cfg_.bug.enabled ? &cfg_.bug : nullptr;
    return runLockstep(box(a, 0), box(b, a == b ? 1 : 0), prog,
                       cfg_.maxSteps, bug);
}

std::string
JobRig::difftest(const wl::Program &prog, uint64_t *commits,
                 std::string *detail, PerfSummary *perf)
{
    if (!soc_) {
        xs::CoreConfig cc = xs::CoreConfig::nh();
        cc.model = cfg_.xsModel;
        soc_ = std::make_unique<xs::Soc>(cc);
        dt_ = std::make_unique<difftest::DiffTest>(*soc_);
    } else {
        soc_->reset();
        dt_->reset();
    }
    xs::Soc &soc = *soc_;
    difftest::DiffTest &dt = *dt_;
    prog.loadInto(soc.system().dram);
    for (const auto &seg : prog.segments)
        dt.loadRefMemory(seg.base, seg.bytes.data(), seg.bytes.size());
    soc.setEntry(prog.entry);
    dt.resetRefs(prog.entry);
    if (dutHook_)
        dutHook_(soc);
    dt.run(cfg_.difftestMaxCycles);
    if (commits)
        *commits = dt.stats().commitsChecked;
    if (perf) {
        const xs::PerfCounters &p = soc.core(0).perf();
        perf->valid = true;
        perf->cycles = p.cycles;
        perf->instrs = p.instrs;
        perf->branches = p.branches;
        perf->branchMispredicts = p.branchMispredicts;
        perf->tdRetiring = p.tdRetiring;
        perf->tdFrontend = p.tdFrontend;
        perf->tdBadSpec = p.tdBadSpec;
        perf->tdBackendMem = p.tdBackendMem;
        perf->tdBackendCore = p.tdBackendCore;
    }
    if (dt.ok())
        return "";
    if (detail)
        *detail = dt.failures().front();
    return dt.divergence().signature();
}

JobResult
JobRig::run(uint64_t seed)
{
    Stopwatch sw;
    JobPlan plan = planJob(cfg_, seed);
    Rng rng(seed);
    wl::ShrinkableProgram sp = wl::randomShrinkable(rng, plan.spec);
    wl::Program prog = sp.assemble();

    JobResult jr;
    jr.seed = seed;
    if (plan.difftest) {
        jr.kind = "difftest";
        uint64_t commits = 0;
        std::string detail;
        jr.signature = difftest(prog, &commits, &detail,
                                cfg_.perf ? &jr.perf : nullptr);
        jr.steps = commits;
        jr.failed = !jr.signature.empty();
        jr.detail = detail;
    } else {
        jr.kind = std::string(engineName(plan.a)) + "-vs-" +
                  engineName(plan.b);
        LockstepResult lr = lockstep(plan.a, plan.b, prog);
        jr.steps = lr.steps;
        jr.failed = lr.div.diverged();
        if (jr.failed) {
            jr.signature = lr.div.signature();
            jr.detail = lr.div.describe();
        }
    }
    jr.sec = sw.elapsedSec();
    return jr;
}

JobResult
runJob(const CampaignConfig &cfg, uint64_t seed)
{
    JobRig rig(cfg);
    return rig.run(seed);
}

CampaignReport
runCampaign(const CampaignConfig &cfg)
{
    CampaignReport rep;
    rep.jobs = cfg.seedCount;
    rep.results.resize(cfg.seedCount);
    rep.workers.resize(std::max(1u, cfg.workers));

    Stopwatch wall;
    std::atomic<uint64_t> next{0};

    auto workerFn = [&](unsigned wid) {
        JobRig rig(cfg);
        for (;;) {
            uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= cfg.seedCount)
                break;
            JobResult jr = rig.run(cfg.seedBase + i);
            jr.worker = wid;
            rep.workers[wid].busySec += jr.sec;
            ++rep.workers[wid].jobs;
            rep.results[i] = std::move(jr);
        }
    };

    if (cfg.workers <= 1) {
        workerFn(0);
    } else {
        std::vector<std::thread> pool;
        for (unsigned w = 0; w < cfg.workers; ++w)
            pool.emplace_back(workerFn, w);
        for (auto &t : pool)
            t.join();
    }
    rep.elapsedSec = wall.elapsedSec();

    // ---- bucket failures by signature, in seed order ----
    std::map<std::string, size_t> index;
    uint64_t totalSteps = 0;
    for (const auto &jr : rep.results) {
        totalSteps += jr.steps * (jr.kind == "difftest" ? 1 : 2);
        if (!jr.failed)
            continue;
        ++rep.failures;
        auto [it, fresh] =
            index.try_emplace(jr.signature, rep.buckets.size());
        if (fresh) {
            Bucket b;
            b.signature = jr.signature;
            b.repSeed = jr.seed;
            b.repDetail = jr.detail;
            rep.buckets.push_back(std::move(b));
        }
        rep.buckets[it->second].seeds.push_back(jr.seed);
    }

    rep.jobsPerSec =
        rep.elapsedSec > 0 ? static_cast<double>(rep.jobs) / rep.elapsedSec
                           : 0;
    rep.mips = rep.elapsedSec > 0
                   ? static_cast<double>(totalSteps) / rep.elapsedSec / 1e6
                   : 0;

    // ---- shrink one representative per bucket (deterministic:
    // single-threaded, bucket order is first-failing-seed order) ----
    if (cfg.shrinkFailures) {
        JobRig rig(cfg);
        for (auto &b : rep.buckets) {
            JobPlan plan = planJob(cfg, b.repSeed);
            Rng rng(b.repSeed);
            wl::ShrinkableProgram sp =
                wl::randomShrinkable(rng, plan.spec);

            SignatureFn sig;
            if (plan.difftest) {
                sig = [&rig](const wl::Program &p) {
                    return rig.difftest(p);
                };
            } else {
                Engine ea = plan.a, eb = plan.b;
                sig = [&rig, ea, eb](const wl::Program &p) {
                    LockstepResult lr = rig.lockstep(ea, eb, p);
                    return lr.div.diverged() ? lr.div.signature()
                                             : std::string();
                };
            }

            ShrinkResult sr = shrinkProgram(sp, b.signature, sig);
            b.shrunkChunks =
                static_cast<unsigned>(sr.program.chunks.size());
            b.shrunkInsts = sr.program.bodyInsts();

            if (!cfg.corpusDir.empty()) {
                CorpusEntry entry;
                entry.seed = b.repSeed;
                entry.engineA = plan.a;
                entry.engineB = plan.b;
                entry.signature = b.signature;
                entry.note = "shrunk from campaign seed";
                entry.program = sr.program;
                entry.program.name = "corpus";
                b.corpusFile = writeCorpusFile(cfg.corpusDir, entry);
            }
        }
    }

    return rep;
}

std::string
CampaignReport::toJson() const
{
    JsonWriter jw;
    jw.beginObject();
    jw.key("jobs").value(jobs);
    jw.key("failures").value(failures);
    jw.key("elapsed_sec").value(elapsedSec);
    jw.key("jobs_per_sec").value(jobsPerSec);
    jw.key("mips").value(mips);

    jw.key("buckets").beginArray();
    for (const auto &b : buckets) {
        jw.beginObject();
        jw.key("signature").value(b.signature);
        jw.key("count").value(static_cast<uint64_t>(b.seeds.size()));
        jw.key("rep_seed").value(b.repSeed);
        jw.key("rep_detail").value(b.repDetail);
        jw.key("shrunk_chunks").value(b.shrunkChunks);
        jw.key("shrunk_insts").value(b.shrunkInsts);
        if (!b.corpusFile.empty())
            jw.key("corpus_file").value(b.corpusFile);
        jw.key("seeds").beginArray();
        for (uint64_t s : b.seeds)
            jw.value(s);
        jw.endArray();
        jw.endObject();
    }
    jw.endArray();

    jw.key("workers").beginArray();
    for (const auto &w : workers) {
        jw.beginObject();
        jw.key("jobs").value(w.jobs);
        jw.key("busy_sec").value(w.busySec);
        jw.endObject();
    }
    jw.endArray();

    bool anyPerf = false;
    for (const auto &jr : results)
        anyPerf = anyPerf || jr.perf.valid;
    if (anyPerf) {
        jw.key("perf_jobs").beginArray();
        for (const auto &jr : results) {
            if (!jr.perf.valid)
                continue;
            const PerfSummary &p = jr.perf;
            double ipc = p.cycles ? static_cast<double>(p.instrs) /
                                        static_cast<double>(p.cycles)
                                  : 0.0;
            jw.beginObject();
            jw.key("seed").value(jr.seed);
            jw.key("cycles").value(p.cycles);
            jw.key("instrs").value(p.instrs);
            jw.key("ipc").value(ipc);
            jw.key("branches").value(p.branches);
            jw.key("branch_mispredicts").value(p.branchMispredicts);
            jw.key("td_retiring").value(p.tdRetiring);
            jw.key("td_frontend").value(p.tdFrontend);
            jw.key("td_bad_speculation").value(p.tdBadSpec);
            jw.key("td_backend_memory").value(p.tdBackendMem);
            jw.key("td_backend_core").value(p.tdBackendCore);
            jw.endObject();
        }
        jw.endArray();
        // Aggregate view: the worker-count-invariant merged snapshot.
        obs::CounterSnapshot total = perfCounters();
        jw.key("perf_total").beginObject();
        for (const auto &[k, v] : total.values)
            jw.key(k).value(v);
        jw.endObject();
    }

    jw.key("failing_jobs").beginArray();
    for (const auto &jr : results) {
        if (!jr.failed)
            continue;
        jw.beginObject();
        jw.key("seed").value(jr.seed);
        jw.key("kind").value(jr.kind);
        jw.key("signature").value(jr.signature);
        jw.key("detail").value(jr.detail);
        jw.endObject();
    }
    jw.endArray();

    jw.endObject();
    return jw.str();
}

obs::CounterSnapshot
CampaignReport::perfCounters() const
{
    obs::CounterSnapshot total;
    for (const auto &jr : results) {
        if (!jr.perf.valid)
            continue;
        const PerfSummary &p = jr.perf;
        obs::CounterSnapshot one;
        one.set("dut.jobs", 1);
        one.set("dut.cycles", p.cycles);
        one.set("dut.instrs", p.instrs);
        one.set("dut.branches", p.branches);
        one.set("dut.branch_mispredicts", p.branchMispredicts);
        one.set("dut.topdown.retiring", p.tdRetiring);
        one.set("dut.topdown.frontend", p.tdFrontend);
        one.set("dut.topdown.bad_speculation", p.tdBadSpec);
        one.set("dut.topdown.backend_memory", p.tdBackendMem);
        one.set("dut.topdown.backend_core", p.tdBackendCore);
        total.merge(one);
    }
    return total;
}

} // namespace minjie::campaign
