/**
 * @file
 * The benchmark's own tests (python3 perfbench/run.py --selftest):
 *
 *   ladder      searchLadder picks the highest passing step of a
 *               synthetic p95 curve, in about log2(n) probes
 *   telescope   on short real runs of both serving paths, the five
 *               spans sum exactly to the client-observed latency of
 *               every measured request, and every output check passes
 *   model       the model job's output is identical across two runs
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "model.h"
#include "plan.h"
#include "serving.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void
expect(bool ok, const std::string& what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        g_failures++;
}

/** p95 of an M/M/1-like curve that explodes at @p capacity. */
double
syntheticP95Ns(double qps, double capacity)
{
    if (qps >= capacity)
        return 1e12;
    return 3.0 * 1e9 / (capacity - qps);
}

void
testLadder()
{
    const std::vector<double> ladder = ladderRates();
    for (double capacity : {15000.0, 21000.0, 60000.0, 133333.0, 1e6, 1e9}) {
        long want = -1;
        for (size_t i = 0; i < ladder.size(); i++) {
            if (syntheticP95Ns(ladder[i], capacity) <=
                static_cast<double>(kSloP95Ns))
                want = static_cast<long>(i);
        }
        int probes = 0;
        const long got = searchLadder(ladder.size(), [&](size_t i) {
            probes++;
            return syntheticP95Ns(ladder[i], capacity) <=
                static_cast<double>(kSloP95Ns);
        });
        const int max_probes = static_cast<int>(
            std::ceil(std::log2(static_cast<double>(ladder.size() + 1))));
        expect(got == want && probes <= max_probes,
               "ladder capacity " + std::to_string(capacity) + ": step " +
                   std::to_string(got) + " (want " + std::to_string(want) +
                   ") in " + std::to_string(probes) + " probes");
    }
}

void
testTelescope(ServePath path, const char* name)
{
    std::unique_ptr<tb::apps::App> app = tb::apps::makeApp("silo");
    app->init(tb::apps::AppConfig{});
    StackSpec spec;
    spec.path = path;
    PointConfig cfg;
    cfg.qps = 5000;
    cfg.warmup = 200;
    cfg.measured = 3000;
    cfg.seed = 11;
    cfg.traced = true;
    const PointResult r = runPoint(*app, spec, cfg);
    expect(r.failed == 0 && r.attempted == cfg.warmup + cfg.measured,
           std::string(name) + ": every output check passes (" +
               std::to_string(r.failed) + " failed of " +
               std::to_string(r.attempted) + ")");
    const Spans& s = r.spans;
    bool sizes = s.lag.size() == r.latencyNs.size() &&
        r.latencyNs.size() == cfg.measured;
    size_t mismatched = 0;
    for (size_t i = 0; sizes && i < r.latencyNs.size(); i++) {
        if (s.lag[i] + s.send[i] + s.ingress[i] + s.process[i] +
                s.egress[i] !=
            r.latencyNs[i])
            mismatched++;
    }
    expect(sizes && mismatched == 0,
           std::string(name) + ": spans telescope to the observed latency "
                               "of all " +
               std::to_string(r.latencyNs.size()) + " requests (" +
               std::to_string(mismatched) + " mismatched)");
}

void
testModelRepeats()
{
    ModelInputs a = buildModelInputs(7);
    ModelInputs b = buildModelInputs(7);
    const ModelResult ra = runModelJob(a, 7);
    const ModelResult rb = runModelJob(b, 7);
    const ModelResult rc = runModelJob(a, 7);
    expect(!ra.text.empty() && ra.text == rb.text && ra.text == rc.text &&
               ra.digest == rb.digest,
           "model output identical across runs");
}

}  // namespace

int
main()
{
    testLadder();
    testTelescope(ServePath::kIntegrated, "integrated");
    testTelescope(ServePath::kLoopback, "loopback");
    testModelRepeats();
    std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
                g_failures);
    return g_failures ? 1 : 0;
}
