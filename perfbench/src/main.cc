/**
 * @file
 * The repo benchmark: one command per workload prints every metric by
 * name with its unit, checks the program's outputs, and ends with one
 * JSON line {correct, attempted, failed, metrics}. Usage:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--golden <file>] [--spans-out <file>]
 *
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * ones from a separately traced run. Exit status is 0 only when every
 * output checked was correct. See README.md for the workloads, the
 * metrics and which layer metric should move which end-to-end metric.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/common/app.h"
#include "core/harness.h"
#include "model.h"
#include "plan.h"
#include "serving.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace core = tb::core;

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

template <typename T>
double
median(std::vector<T> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? static_cast<double>(v[n / 2])
                 : (static_cast<double>(v[n / 2 - 1]) +
                    static_cast<double>(v[n / 2])) / 2.0;
}

/** Best of a set of rounds: the lowest latency or wall time. Host
 * interference (steal, a noisy neighbour) only ever slows a round, while
 * a slowdown of the program's own shows in every round, so the best
 * round tracks the program and shrugs off the host. */
template <typename T>
double
best(const std::vector<T>& v)
{
    if (v.empty())
        return 0.0;
    return static_cast<double>(*std::min_element(v.begin(), v.end()));
}

/** Best throughput of a set of rounds (see best()). */
double
bestRate(const std::vector<double>& v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/** Metrics in the order they are declared, with units. Every run of a
 * mode declares the same names, so each workload reports the same set;
 * a metric a workload has no layer for stays 0. */
class Report {
  public:
    void
    declare(const std::string& name, const char* unit)
    {
        metrics_.push_back({name, 0.0, unit});
    }

    void
    set(const std::string& name, double value)
    {
        for (Metric& m : metrics_) {
            if (m.name == name) {
                m.value = value;
                return;
            }
        }
        throw std::logic_error("undeclared metric " + name);
    }

    void
    check(uint64_t attempted, uint64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    bool correct() const { return failed_ == 0 && attempted_ > 0; }

    void
    print() const
    {
        std::printf("# %-36s %16s  %s\n", "metric", "value", "unit");
        for (const Metric& m : metrics_)
            std::printf("# %-36s %16.6f  %s\n", m.name.c_str(), m.value,
                        m.unit);
        std::printf("# fail_frac %.6g (%llu of %llu checks failed)\n",
                    attempted_ ? static_cast<double>(failed_) /
                            static_cast<double>(attempted_)
                               : 1.0,
                    static_cast<unsigned long long>(failed_),
                    static_cast<unsigned long long>(attempted_));
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": {",
                    correct() ? "true" : "false",
                    static_cast<unsigned long long>(attempted_),
                    static_cast<unsigned long long>(failed_));
        for (size_t i = 0; i < metrics_.size(); i++)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics_[i].name.c_str(),
                        metrics_[i].value, metrics_[i].unit);
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    struct Metric {
        std::string name;
        double value;
        const char* unit;
    };
    std::vector<Metric> metrics_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

struct Args {
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string golden = "perfbench/golden_model.txt";
    std::string spansOut;
};

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have_workload = false, have_seed = false;
    for (int i = 1; i < argc; i++) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + k);
        const std::string v = argv[++i];
        size_t used = 0;
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::stoull(v, &used);
            have_seed = used == v.size();
        } else if (k == "--seconds") {
            a.seconds = std::stoi(v, &used);
            if (used != v.size() || a.seconds < 1 || a.seconds > 120)
                throw std::invalid_argument("--seconds must be 1..120");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (k == "--golden") {
            a.golden = v;
        } else if (k == "--spans-out") {
            a.spansOut = v;
        } else {
            throw std::invalid_argument("unknown argument " + k);
        }
    }
    if (!have_workload || !have_seed)
        throw std::invalid_argument("--workload and --seed are required");
    return a;
}

void
printPoint(const char* tag, const PointResult& r)
{
    std::printf("# point %-9s offered %8.0f qps  achieved %9.1f qps  "
                "p50 %8.1f us  p95 %8.1f us  p99 %8.1f us  "
                "max_lag %8.1f us  late_frac %.4f  steal %.4f  "
                "failed %llu/%llu\n",
                tag, r.offeredQps, r.achievedQps,
                static_cast<double>(r.p50Ns) / 1e3,
                static_cast<double>(r.p95Ns) / 1e3,
                static_cast<double>(r.p99Ns) / 1e3,
                static_cast<double>(r.maxGenLagNs) / 1e3, r.lateFrac,
                r.stealFrac, static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (const std::string& f : r.failures)
        std::printf("# FAIL %s: %s\n", tag, f.c_str());
}

// ------------------------------------------------------------ serving

/** Request counts per point: fixed durations at the offered rate. */
struct ServingPlan {
    double warmSeconds = 0.5;
    double loSeconds = 0.6;
    double hiSeconds = 0.6;
    uint64_t overloadRequests = 60000;
    double probeSeconds = 0.5;
    /** A ladder step passes if any of this many probes meets the SLO. */
    unsigned probeAttempts = 3;
    unsigned rounds = 3;
    unsigned setups = 5;
    uint64_t warmup = 2000;
};

ServingPlan
servingPlan(int seconds, bool trace)
{
    ServingPlan p;
    // On the reference host one untraced round (lo + hi + overload
    // points, each on a fresh stack) costs about 2.2 s and the ladder
    // search about 8 s; one traced round (both rates, plain and
    // traced) about 3 s. The rest of the budget buys rounds.
    const double round_s = trace ? 3.0 : 2.2;
    const double fixed_s = trace ? 1.0 : 9.0;
    p.rounds = std::max(1, static_cast<int>((seconds - fixed_s) / round_s));
    return p;
}

class Serving {
  public:
    Serving(const StackSpec& spec, const Args& args, Report& report)
        : spec_(spec), args_(args), report_(report),
          plan_(servingPlan(args.seconds, args.trace))
    {
    }

    void
    run()
    {
        const double setup_s = setUp();
        // Caches, allocator arenas and queue capacities warm up on a
        // discarded point; its outputs are still checked.
        point("warm", kHiQps, count(kHiQps, plan_.warmSeconds), false);
        if (args_.trace)
            traced();
        else
            endToEnd(setup_s);
    }

  private:
    /** Median of plan_.setups timed set-ups; keeps the last app. */
    double
    setUp()
    {
        std::vector<double> samples;
        for (unsigned i = 0; i < plan_.setups; i++)
            samples.push_back(timeSetUp(spec_, args_.seed, app_));
        return median(samples);
    }

    PointResult
    point(const char* tag, double qps, uint64_t measured, bool traced)
    {
        PointConfig c;
        c.qps = qps;
        c.warmup = plan_.warmup;
        c.measured = measured;
        // Every round replays the same inputs for a rate, so rounds
        // differ only in how the host treated them.
        c.seed = tb::util::mix64(args_.seed, static_cast<uint64_t>(qps));
        c.traced = traced;
        PointResult r = runPoint(*app_, spec_, c);
        report_.check(r.attempted, r.failed);
        printPoint(tag, r);
        return r;
    }

    uint64_t
    count(double qps, double seconds) const
    {
        return static_cast<uint64_t>(qps * seconds);
    }

    void
    endToEnd(double setup_s)
    {
        std::vector<int64_t> p50lo, p95lo, p50hi, p95hi;
        std::vector<double> sat, wall;
        for (unsigned r = 0; r < plan_.rounds; r++) {
            const PointResult lo =
                point("lo", kLoQps, count(kLoQps, plan_.loSeconds), false);
            p50lo.push_back(lo.p50Ns);
            p95lo.push_back(lo.p95Ns);
            const PointResult hi =
                point("hi", kHiQps, count(kHiQps, plan_.hiSeconds), false);
            p50hi.push_back(hi.p50Ns);
            p95hi.push_back(hi.p95Ns);
            const PointResult over = point("overload", kOverloadQps,
                                           plan_.overloadRequests, false);
            sat.push_back(over.achievedQps);
            wall.push_back(over.wallS);
        }
        const std::vector<double> ladder = ladderRates();
        std::vector<double> achieved(ladder.size(), 0.0);
        const long step = searchLadder(ladder.size(), [&](size_t i) {
            for (unsigned a = 0; a < plan_.probeAttempts; a++) {
                const PointResult r =
                    point("ladder", ladder[i],
                          count(ladder[i], plan_.probeSeconds), false);
                if (r.failed == 0 && r.p95Ns <= kSloP95Ns &&
                    r.achievedQps >= kSloMinAchievedShare * ladder[i]) {
                    achieved[i] = r.achievedQps;
                    return true;
                }
            }
            return false;
        });
        std::printf("# slo ladder step %ld of %zu (offered %.0f qps)\n", step,
                    ladder.size(),
                    step < 0 ? 0.0 : ladder[static_cast<size_t>(step)]);

        report_.set("setup_s", setup_s);
        report_.set("p50_us.lo", best(p50lo) / 1e3);
        report_.set("p95_us.lo", best(p95lo) / 1e3);
        report_.set("p50_us.hi", best(p50hi) / 1e3);
        report_.set("p95_us.hi", best(p95hi) / 1e3);
        report_.set("slo_qps",
                    step < 0 ? 0.0 : achieved[static_cast<size_t>(step)]);
        report_.set("sat_qps", bestRate(sat));
        report_.set("job_wall_s", best(wall));
    }

    /** Untraced and traced points alternate at both fixed rates; the
     * traced ones give the per-layer metrics, the pairs the overhead. */
    void
    traced()
    {
        struct Side {
            std::vector<int64_t> p50, p95;
        };
        Side plain[2], trace[2];
        Spans pooled[2];
        LayerCounters hi_counters;
        uint64_t hi_requests = 0;
        int64_t hi_max_lag = 0;
        std::vector<double> hi_late, steal;
        const double rates[2] = {kLoQps, kHiQps};
        const double secs[2] = {plan_.loSeconds, plan_.hiSeconds};
        const char* tags[2][2] = {{"lo", "lo.trace"}, {"hi", "hi.trace"}};
        for (unsigned r = 0; r < plan_.rounds; r++) {
            for (int k = 0; k < 2; k++) {
                const uint64_t n = count(rates[k], secs[k]);
                const PointResult u = point(tags[k][0], rates[k], n, false);
                plain[k].p50.push_back(u.p50Ns);
                plain[k].p95.push_back(u.p95Ns);
                PointResult t = point(tags[k][1], rates[k], n, true);
                trace[k].p50.push_back(t.p50Ns);
                trace[k].p95.push_back(t.p95Ns);
                if (t.stealFrac >= 0)
                    steal.push_back(t.stealFrac);
                append(pooled[k], t.spans);
                if (k == 1) {
                    accumulate(hi_counters, t.counters);
                    hi_requests += t.attempted;
                    hi_max_lag = std::max(hi_max_lag, t.maxGenLagNs);
                    hi_late.push_back(t.lateFrac);
                }
                if (k == 1 && r + 1 == plan_.rounds)
                    writeSpans(t.spans);
            }
        }

        const bool loopback = spec_.path == ServePath::kLoopback;
        const char* rate_tag[2] = {"lo", "hi"};
        auto spanMetrics = [&](const char* name,
                               std::vector<int64_t> Spans::*span,
                               bool applies) {
            for (int k = 0; k < 2; k++) {
                const core::LatencySummary sum = applies
                    ? core::summarizeNs(pooled[k].*span)
                    : core::LatencySummary{};
                const std::string base = std::string(name) + ".p";
                report_.set(base + "50." + rate_tag[k],
                            static_cast<double>(sum.p50Ns) / 1e3);
                report_.set(base + "95." + rate_tag[k],
                            static_cast<double>(sum.p95Ns) / 1e3);
            }
        };
        spanMetrics("core.client.lag_us", &Spans::lag, true);
        spanMetrics("core.client.send_us", &Spans::send, true);
        spanMetrics("net.ingress_us", &Spans::ingress, loopback);
        spanMetrics("core.queue_us", &Spans::ingress, !loopback);
        spanMetrics("apps.process_us", &Spans::process, true);
        spanMetrics("net.egress_us", &Spans::egress, loopback);
        spanMetrics("core.egress_us", &Spans::egress, !loopback);
        for (int k = 0; k < 2; k++)
            report_.set(std::string("apps.overrun_us.p99.") + rate_tag[k],
                        static_cast<double>(
                            core::summarizeNs(pooled[k].overrun).p99Ns) /
                            1e3);

        const double n =
            static_cast<double>(std::max<uint64_t>(1, hi_requests));
        const LayerCounters& c = hi_counters;
        report_.set("net.resp_writes_per_req",
                    static_cast<double>(c.respWrites) / n);
        report_.set("net.eventfd_wakes_per_req",
                    static_cast<double>(c.eventfdWakes) / n);
        report_.set("core.queue_notifies_per_req",
                    static_cast<double>(c.queueNotifies) / n);
        report_.set("util.heap_allocs_per_req",
                    static_cast<double>(c.heapAllocs) / n);
        report_.set("core.service.batch_mean",
                    c.batchMean / plan_.rounds);
        report_.set("core.service.busy_frac", c.busyFrac / plan_.rounds);
        report_.set("proc.cpu_us_per_req", c.cpuUs / n);
        report_.set("proc.ctx_switches_per_req",
                    static_cast<double>(c.ctxSwitches) / n);

        for (int k = 0; k < 2; k++) {
            report_.set(std::string("trace.overhead_us.p50.") + rate_tag[k],
                        (best(trace[k].p50) - best(plain[k].p50)) / 1e3);
            report_.set(std::string("trace.overhead_us.p95.") + rate_tag[k],
                        (best(trace[k].p95) - best(plain[k].p95)) / 1e3);
        }
        report_.set("core.client.lag_max_us.hi",
                    static_cast<double>(hi_max_lag) / 1e3);
        report_.set("core.client.late_frac.hi", median(hi_late));
        report_.set("host.steal_frac", steal.empty() ? -1.0 : median(steal));
    }

    static void
    append(Spans& to, const Spans& from)
    {
        for (std::vector<int64_t> Spans::*span :
             {&Spans::lag, &Spans::send, &Spans::ingress, &Spans::process,
              &Spans::egress, &Spans::overrun})
            (to.*span).insert((to.*span).end(), (from.*span).begin(),
                              (from.*span).end());
    }

    static void
    accumulate(LayerCounters& to, const LayerCounters& from)
    {
        to.heapAllocs += from.heapAllocs;
        to.queueNotifies += from.queueNotifies;
        to.respWrites += from.respWrites;
        to.eventfdWakes += from.eventfdWakes;
        to.cpuUs += from.cpuUs;
        to.ctxSwitches += from.ctxSwitches;
        to.batchMean += from.batchMean;
        to.busyFrac += from.busyFrac;
    }

    void
    writeSpans(const Spans& s) const
    {
        if (args_.spansOut.empty())
            return;
        std::ofstream f(args_.spansOut);
        f << "lag_ns\tsend_ns\tingress_ns\tprocess_ns\tegress_ns\n";
        for (size_t i = 0; i < s.lag.size(); i++)
            f << s.lag[i] << '\t' << s.send[i] << '\t' << s.ingress[i] << '\t'
              << s.process[i] << '\t' << s.egress[i] << '\n';
    }

    const StackSpec spec_;
    const Args& args_;
    Report& report_;
    const ServingPlan plan_;
    std::unique_ptr<tb::apps::App> app_;
};

// -------------------------------------------------------------- model

constexpr uint64_t kGoldenSeed = 1;

/** Golden digest of the model job at kGoldenSeed: the hex number on the
 * file's "digest" line; 0 when the file is missing or malformed. */
uint64_t
readGolden(const std::string& path)
{
    std::ifstream f(path);
    std::string key, hex;
    while (f >> key >> hex) {
        if (key == "digest")
            return std::strtoull(hex.c_str(), nullptr, 16);
    }
    return 0;
}

void
runModel(const Args& args, Report& report)
{
    std::vector<double> setups;
    ModelInputs in;
    for (int i = 0; i < 5; i++) {
        const double t0 = nowS();
        in = buildModelInputs(args.seed);
        setups.push_back(nowS() - t0);
    }

    ModelInputs golden_in = buildModelInputs(kGoldenSeed);
    const ModelResult golden = runModelJob(golden_in, kGoldenSeed);
    const uint64_t want = readGolden(args.golden);
    std::printf("# model golden seed %llu digest %016llx (expected %016llx)\n",
                static_cast<unsigned long long>(kGoldenSeed),
                static_cast<unsigned long long>(golden.digest),
                static_cast<unsigned long long>(want));
    report.check(1, golden.digest == want ? 0 : 1);

    // The fixed job, repeated for the run's seconds (at least 3 times);
    // every repetition must reproduce the first byte for byte. Its wall
    // time is the best repetition, as for the serving rounds.
    std::vector<double> walls;
    ModelResult first, sum;
    const double start = nowS();
    while (walls.size() < 3 || nowS() - start < args.seconds) {
        const double t0 = nowS();
        ModelResult r = runModelJob(in, args.seed);
        walls.push_back(nowS() - t0);
        sum.simRequests += r.simRequests;
        sum.simWallS += r.simWallS;
        sum.mgnRequests += r.mgnRequests;
        sum.mgnWallS += r.mgnWallS;
        sum.cacheKiloInstr += r.cacheKiloInstr;
        sum.cacheWallS += r.cacheWallS;
        if (walls.size() == 1)
            first = std::move(r);
        else
            report.check(1, r.text == first.text ? 0 : 1);
    }
    report.check(1, 0);  // the first repetition
    std::printf("# model seed %llu digest %016llx, %zu repetitions, "
                "wall min %.4f median %.4f max %.4f s\n",
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(first.digest), walls.size(),
                best(walls), median(walls),
                *std::max_element(walls.begin(), walls.end()));

    if (args.trace) {
        report.set("sim.req_per_s",
                   static_cast<double>(sum.simRequests) / sum.simWallS);
        report.set("queueing.req_per_s",
                   static_cast<double>(sum.mgnRequests) / sum.mgnWallS);
        report.set("sim.cache.kinstr_per_s",
                   static_cast<double>(sum.cacheKiloInstr) / sum.cacheWallS);
        return;
    }
    report.set("setup_s", median(setups));
    report.set("p50_us.lo", static_cast<double>(first.p50LoNs) / 1e3);
    report.set("p95_us.lo", static_cast<double>(first.p95LoNs) / 1e3);
    report.set("p50_us.hi", static_cast<double>(first.p50HiNs) / 1e3);
    report.set("p95_us.hi", static_cast<double>(first.p95HiNs) / 1e3);
    report.set("slo_qps", first.sloQps);
    report.set("sat_qps", first.satQps);
    report.set("job_wall_s", best(walls));
}

// ------------------------------------------------------------ metrics

void
declareEndToEnd(Report& r)
{
    r.declare("setup_s", "s");
    for (const char* m : {"p50_us.lo", "p95_us.lo", "p50_us.hi", "p95_us.hi"})
        r.declare(m, "us");
    r.declare("slo_qps", "qps");
    r.declare("sat_qps", "qps");
    r.declare("job_wall_s", "s");
}

void
declarePerLayer(Report& r)
{
    for (const char* span :
         {"core.client.lag_us", "core.client.send_us", "net.ingress_us",
          "core.queue_us", "apps.process_us", "net.egress_us",
          "core.egress_us"}) {
        for (const char* rate : {"lo", "hi"}) {
            for (const char* p : {"p50", "p95"})
                r.declare(std::string(span) + "." + p + "." + rate, "us");
        }
    }
    r.declare("apps.overrun_us.p99.lo", "us");
    r.declare("apps.overrun_us.p99.hi", "us");
    r.declare("net.resp_writes_per_req", "count/req");
    r.declare("net.eventfd_wakes_per_req", "count/req");
    r.declare("core.queue_notifies_per_req", "count/req");
    r.declare("util.heap_allocs_per_req", "count/req");
    r.declare("core.service.batch_mean", "count");
    r.declare("core.service.busy_frac", "fraction");
    r.declare("proc.cpu_us_per_req", "us/req");
    r.declare("proc.ctx_switches_per_req", "count/req");
    r.declare("sim.req_per_s", "req/s");
    r.declare("queueing.req_per_s", "req/s");
    r.declare("sim.cache.kinstr_per_s", "kinstr/s");
    for (const char* rate : {"lo", "hi"}) {
        for (const char* p : {"p50", "p95"})
            r.declare(std::string("trace.overhead_us.") + p + "." + rate, "us");
    }
    r.declare("core.client.lag_max_us.hi", "us");
    r.declare("core.client.late_frac.hi", "fraction");
    r.declare("host.steal_frac", "fraction");
}

StackSpec
servingSpec(const std::string& workload)
{
    StackSpec s;
    if (workload == "integrated-silo")
        return s;
    s.path = ServePath::kLoopback;
    if (workload == "loopback-silo")
        return s;
    if (workload == "loopback-silo-bursts") {
        s.arrival.kind = tb::core::ArrivalKind::kBursts;
        s.arrival.burstRatio = 4.0;
        s.arrival.burstDuty = 0.2;
        s.arrival.burstLen = 64.0;
        return s;
    }
    throw std::invalid_argument("unknown workload " + workload);
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    try {
        const Args args = parseArgs(argc, argv);
        Report report;
        if (args.trace)
            declarePerLayer(report);
        else
            declareEndToEnd(report);
        if (args.workload == "model")
            runModel(args, report);
        else
            Serving(servingSpec(args.workload), args, report).run();
        report.print();
        return report.correct() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
