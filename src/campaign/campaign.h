/**
 * @file
 * Parallel fuzz co-simulation campaign engine (paper Section III-D's
 * "run as many simulation instances as the host allows" applied to
 * reference-model cross-checking).
 *
 * A campaign is a seed range [seedBase, seedBase + seedCount). Every
 * seed deterministically derives one job — a random program plus the
 * checker that runs it (an engine-pair lockstep run, or a full
 * NEMU-vs-XiangShan DiffTest co-simulation) — so the campaign outcome
 * is a pure function of the seed range: worker count only changes how
 * fast the range drains, never which failures are found or how they
 * bucket. Failures are grouped by first-divergence signature, one
 * representative per bucket is delta-debugged to a minimal reproducer,
 * and minimized failures can be persisted into the regression corpus.
 */

#ifndef MINJIE_CAMPAIGN_CAMPAIGN_H
#define MINJIE_CAMPAIGN_CAMPAIGN_H

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/lockstep.h"
#include "obs/counter.h"
#include "workload/shrinkable.h"
#include "xiangshan/config.h"

namespace minjie::xs {
class Soc;
} // namespace minjie::xs

namespace minjie::difftest {
class DiffTest;
} // namespace minjie::difftest

namespace minjie::campaign {

/** Campaign parameters. Everything a seed maps to lives here. */
struct CampaignConfig
{
    uint64_t seedBase = 1;
    uint64_t seedCount = 100;
    unsigned workers = 1;       ///< worker threads (jobs in flight)
    unsigned nInsts = 300;      ///< body instructions per random program
    uint64_t maxSteps = 100'000; ///< lockstep instruction budget per job
    uint64_t difftestMaxCycles = 2'000'000;

    unsigned fpPct = 25;        ///< % of seeds generating fp programs
    unsigned rvcPct = 30;       ///< % of seeds mixing in RVC sequences
    unsigned difftestPct = 0;   ///< % of seeds run as DUT-vs-REF DiffTest

    /** Engine pairs cycled through by seed (fp seeds avoid Nemu, whose
     *  host-fp backend is cross-validated separately). */
    std::vector<std::pair<Engine, Engine>> pairs = {
        {Engine::Spike, Engine::Dromajo},
        {Engine::Spike, Engine::Tci},
        {Engine::Nemu, Engine::Spike},
        {Engine::Nemu, Engine::Tci},
    };

    BugInject bug;              ///< optional self-test corruption
    LockstepOptions lockstep;   ///< NEMU ablation flags for every job
    xs::ModelOpts xsModel;      ///< DUT fast-path ablations (--xs-no-*)
    bool shrinkFailures = true; ///< delta-debug one rep per bucket
    std::string corpusDir;      ///< when set, write minimized failures
    bool perf = false;          ///< collect per-job DUT perf summaries
};

/**
 * DUT performance summary of one DiffTest job (collected under
 * CampaignConfig::perf). A pure function of the seed, so aggregation
 * across workers is invariant.
 */
struct PerfSummary
{
    bool valid = false;
    uint64_t cycles = 0;
    uint64_t instrs = 0;
    uint64_t branches = 0;
    uint64_t branchMispredicts = 0;
    uint64_t tdRetiring = 0;
    uint64_t tdFrontend = 0;
    uint64_t tdBadSpec = 0;
    uint64_t tdBackendMem = 0;
    uint64_t tdBackendCore = 0;
};

/** What one seed runs: derived deterministically by planJob(). */
struct JobPlan
{
    bool difftest = false; ///< NEMU-vs-XiangShan DiffTest job
    Engine a = Engine::Spike;
    Engine b = Engine::Dromajo;
    workload::RandomSpec spec;
};

/** Outcome of one job. */
struct JobResult
{
    uint64_t seed = 0;
    bool failed = false;
    std::string kind;      ///< "spike-vs-tci", "difftest", ...
    std::string signature; ///< bucket key (empty when clean)
    std::string detail;    ///< human-readable first divergence
    uint64_t steps = 0;    ///< instructions checked (per engine)
    double sec = 0;
    unsigned worker = 0;
    PerfSummary perf;      ///< filled for DiffTest jobs under --perf
};

/** Failures grouped by divergence signature. */
struct Bucket
{
    std::string signature;
    std::vector<uint64_t> seeds; ///< ascending
    uint64_t repSeed = 0;        ///< shrunk representative
    unsigned shrunkChunks = 0;
    unsigned shrunkInsts = 0;    ///< body instructions after shrinking
    std::string corpusFile;      ///< written corpus path (may be empty)
    std::string repDetail;
};

struct WorkerStats
{
    uint64_t jobs = 0;
    double busySec = 0;
};

/** Full campaign outcome; toJson() is the machine-readable report. */
struct CampaignReport
{
    uint64_t jobs = 0;
    uint64_t failures = 0;
    double elapsedSec = 0;
    double jobsPerSec = 0;
    double mips = 0; ///< aggregate engine-instructions per second / 1e6
    std::vector<JobResult> results; ///< indexed by seed - seedBase
    std::vector<Bucket> buckets;    ///< ordered by first failing seed
    std::vector<WorkerStats> workers;

    std::string toJson() const;

    /**
     * Merge every per-job PerfSummary into one counter snapshot
     * (keys "dut.cycles", "dut.topdown.retiring", ...). Deterministic
     * and worker-count-invariant: results are iterated in seed order
     * and merge() is a commutative sum, so 1-worker and N-worker runs
     * of the same seed range serialize byte-identically.
     */
    obs::CounterSnapshot perfCounters() const;
};

/** Derive the job for @p seed (pure function of config + seed). */
JobPlan planJob(const CampaignConfig &cfg, uint64_t seed);

/**
 * The engines, DUT and checker one campaign worker runs its jobs on.
 * Each part is built on first use, at most one engine box per engine
 * kind (a second one for a same-kind pair) and one SoC + DiffTest,
 * and every job resets the parts it uses instead of constructing
 * them. A job's result never depends on what the rig ran before: it
 * equals runJob() on a fresh rig.
 */
class JobRig
{
  public:
    explicit JobRig(const CampaignConfig &cfg);
    ~JobRig();
    JobRig(const JobRig &) = delete;
    JobRig &operator=(const JobRig &) = delete;

    /** Run the job of @p seed. */
    JobResult run(uint64_t seed);

    /** Lockstep @p prog on engines @p a and @p b (the config's bug
     *  injection and NEMU options apply). */
    LockstepResult lockstep(Engine a, Engine b,
                            const workload::Program &prog);

    /**
     * Co-simulate @p prog under DiffTest.
     * @return the divergence signature; empty when clean
     */
    std::string difftest(const workload::Program &prog,
                         uint64_t *commits = nullptr,
                         std::string *detail = nullptr,
                         PerfSummary *perf = nullptr);

    /** Called with the DUT once it is reset and loaded, before each
     *  DiffTest run (fault-injection tests hook in here). */
    void setDutHook(std::function<void(xs::Soc &)> hook)
    {
        dutHook_ = std::move(hook);
    }

  private:
    EngineBox &box(Engine kind, unsigned copy);

    CampaignConfig cfg_;
    std::unique_ptr<EngineBox> boxes_[4][2]; ///< [Engine][copy]
    std::unique_ptr<xs::Soc> soc_;
    std::unique_ptr<difftest::DiffTest> dt_;
    std::function<void(xs::Soc &)> dutHook_;
};

/** Run a single job on a rig of its own (one-shot callers; workers
 *  and the shrinker keep a JobRig). */
JobResult runJob(const CampaignConfig &cfg, uint64_t seed);

/** Run the whole campaign with cfg.workers threads, each on its own
 *  JobRig. */
CampaignReport runCampaign(const CampaignConfig &cfg);

} // namespace minjie::campaign

#endif // MINJIE_CAMPAIGN_CAMPAIGN_H
