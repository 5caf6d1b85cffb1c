#include "model.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>

#include "plan.h"
#include "queueing/mgn_sim.h"
#include "serving.h"
#include "sim/sim_harness.h"
#include "sim/trace_gen.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

namespace core = tb::core;

namespace {

// Job size: fixed, so model_wall_s times the same work on every run.
constexpr uint64_t kServiceSamples = 20000;
constexpr uint64_t kSimWarmup = 2000;
/** Requests per SimHarness run: the serving questions need enough
 * samples beyond p95 that the answer barely moves between seeds; the
 * scaling runs are there for coverage and the digest. */
constexpr uint64_t kSimMeasured = 200000;
constexpr uint64_t kScaleMeasured = 40000;
constexpr uint64_t kMgnMeasured = 100000;
constexpr uint64_t kCacheWarmupKi = 2000;
constexpr uint64_t kCacheMeasuredKi = 2000;
constexpr double kUtilization = 0.6;

double
wallS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<int64_t>
serviceSamples(tb::apps::App& app, uint64_t seed)
{
    tb::util::Rng rng(seed);
    std::vector<int64_t> out(kServiceSamples);
    for (int64_t& s : out)
        s = app.serviceNsFor(app.genRequest(rng));
    return out;
}

class Job {
  public:
    Job(ModelInputs& in, uint64_t seed, ModelResult& out)
        : in_(in), seed_(seed), out_(out)
    {
    }

    /** One SimHarness run, recorded into the text. */
    core::RunResult
    sim(tb::apps::App& app, unsigned cores, double qps, const char* tag,
        uint64_t measured = kSimMeasured)
    {
        core::HarnessConfig cfg;
        cfg.qps = qps;
        cfg.workerThreads = cores;
        cfg.warmupRequests = kSimWarmup;
        cfg.measuredRequests = measured;
        cfg.seed = tb::util::mix64(seed_, static_cast<uint64_t>(qps));
        tb::sim::SimHarness h;
        const double t0 = wallS();
        core::RunResult r = h.run(app, cfg);
        out_.simWallS += wallS() - t0;
        out_.simRequests += kSimWarmup + measured;
        const core::LatencySummary& s = r.latency.sojourn;
        line("sim %s %s cores=%u qps=%.17g achieved=%.17g p50=%lld "
             "p95=%lld p99=%lld mean=%.17g instr=%llu",
             tag, app.name().c_str(), cores, qps, r.achievedQps,
             static_cast<long long>(s.p50Ns),
             static_cast<long long>(s.p95Ns),
             static_cast<long long>(s.p99Ns), s.meanNs,
             static_cast<unsigned long long>(h.lastStats().instructions));
        return r;
    }

    void
    mgn(const std::vector<int64_t>& samples, const char* app,
        unsigned servers)
    {
        tb::queueing::MgnConfig cfg;
        cfg.servers = servers;
        cfg.lambda =
            kUtilization * servers * 1e9 / tb::util::meanOf(samples);
        cfg.measured = kMgnMeasured;
        cfg.seed = tb::util::mix64(seed_, servers);
        const double t0 = wallS();
        const tb::queueing::MgnResult r =
            tb::queueing::simulateMgn(samples, cfg);
        out_.mgnWallS += wallS() - t0;
        out_.mgnRequests += kMgnMeasured;
        line("mgn %s n=%u lambda=%.17g achieved=%.17g p50=%lld p95=%lld "
             "p99=%lld mean=%.17g",
             app, servers, cfg.lambda, r.achievedQps,
             static_cast<long long>(r.sojourn.p50Ns),
             static_cast<long long>(r.sojourn.p95Ns),
             static_cast<long long>(r.sojourn.p99Ns), r.sojourn.meanNs);
    }

    void
    cache(tb::apps::App& app)
    {
        const double t0 = wallS();
        const tb::sim::MeasuredMpki m = tb::sim::measureTraceMpki(
            app.profile(), seed_, kCacheWarmupKi, kCacheMeasuredKi);
        out_.cacheWallS += wallS() - t0;
        out_.cacheKiloInstr += kCacheWarmupKi + kCacheMeasuredKi;
        line("mpki %s l1i=%.17g l1d=%.17g l2=%.17g l3=%.17g instr=%llu "
             "converged=%d iterations=%d",
             app.name().c_str(), m.l1i, m.l1d, m.l2, m.l3,
             static_cast<unsigned long long>(m.instructions),
             m.converged ? 1 : 0, m.iterations);
    }

    void
    run()
    {
        tb::apps::App& silo = *in_.silo;
        tb::apps::App& moses = *in_.moses;

        // The serving questions, answered for silo on one core.
        core::RunResult lo = sim(silo, 1, kLoQps, "lo");
        core::RunResult hi = sim(silo, 1, kHiQps, "hi");
        core::RunResult over = sim(silo, 1, kOverloadQps, "overload");
        out_.p50LoNs = lo.latency.sojourn.p50Ns;
        out_.p95LoNs = lo.latency.sojourn.p95Ns;
        out_.p50HiNs = hi.latency.sojourn.p50Ns;
        out_.p95HiNs = hi.latency.sojourn.p95Ns;
        out_.satQps = over.achievedQps;
        const std::vector<double> ladder = ladderRates();
        std::vector<double> achieved(ladder.size(), 0.0);
        const long step = searchLadder(ladder.size(), [&](size_t i) {
            const core::RunResult r = sim(silo, 1, ladder[i], "ladder");
            achieved[i] = r.achievedQps;
            return r.latency.sojourn.p95Ns <= kSloP95Ns &&
                r.achievedQps >= kSloMinAchievedShare * ladder[i];
        });
        out_.sloQps = step < 0 ? 0.0 : achieved[static_cast<size_t>(step)];
        line("slo step=%ld qps=%.17g", step, out_.sloQps);

        // Multi-core scaling of both apps at equal utilization.
        const double silo_mu = 1e9 / tb::util::meanOf(in_.siloServiceNs);
        const double moses_mu = 1e9 / tb::util::meanOf(in_.mosesServiceNs);
        for (unsigned cores : {1u, 4u}) {
            sim(silo, cores, kUtilization * cores * silo_mu, "scale",
                kScaleMeasured);
            sim(moses, cores, kUtilization * cores * moses_mu, "scale",
                kScaleMeasured);
        }

        for (unsigned n : {1u, 4u}) {
            mgn(in_.siloServiceNs, "silo", n);
            mgn(in_.mosesServiceNs, "moses", n);
        }

        cache(silo);
        cache(moses);
        out_.digest = fnv1a(out_.text.data(), out_.text.size());
    }

  private:
    void
    line(const char* fmt, ...) __attribute__((format(printf, 2, 3)))
    {
        char buf[512];
        va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(buf, sizeof(buf), fmt, ap);
        va_end(ap);
        out_.text += buf;
        out_.text += '\n';
    }

    ModelInputs& in_;
    const uint64_t seed_;
    ModelResult& out_;
};

}  // namespace

ModelInputs
buildModelInputs(uint64_t seed)
{
    ModelInputs in;
    tb::apps::AppConfig cfg;
    cfg.seed = seed;
    in.silo = tb::apps::makeApp("silo");
    in.silo->init(cfg);
    in.moses = tb::apps::makeApp("moses");
    in.moses->init(cfg);
    in.siloServiceNs = serviceSamples(*in.silo, seed);
    in.mosesServiceNs = serviceSamples(*in.moses, seed);
    return in;
}

ModelResult
runModelJob(ModelInputs& in, uint64_t seed)
{
    ModelResult out;
    Job(in, seed, out).run();
    return out;
}

}  // namespace perfbench
