#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

/**
 * @file
 * The `model` workload: a fixed, single-threaded virtual-time job over
 * the program's models, the only workload where sim/ and queueing/ do
 * the work.
 *
 *   sim        SimHarness for silo and moses at 1 and 4 simulated
 *              cores; silo at 1 core also answers the serving
 *              questions (latency at kLoQps / kHiQps, the slo_qps
 *              ladder, throughput under kOverloadQps) in virtual time
 *   queueing   simulateMgn at n = 1 and 4 over serviceNsFor samples of
 *              a seeded request stream of each app
 *   sim.cache  measureTraceMpki for silo and moses
 *
 * Every result is printed into one text whose digest must repeat
 * exactly across repetitions, and match the golden digest kept with
 * the benchmark for the golden seed.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/common/app.h"

namespace perfbench {

/** The job's inputs (what `model`'s setup_s times). */
struct ModelInputs {
    std::unique_ptr<tb::apps::App> silo;
    std::unique_ptr<tb::apps::App> moses;
    std::vector<int64_t> siloServiceNs;
    std::vector<int64_t> mosesServiceNs;
};

ModelInputs buildModelInputs(uint64_t seed);

struct ModelResult {
    /** Every result of the job, one line each; digest is FNV-1a of it. */
    std::string text;
    uint64_t digest = 0;

    /** Virtual-time answers for silo on one simulated core. */
    int64_t p50LoNs = 0, p95LoNs = 0, p50HiNs = 0, p95HiNs = 0;
    double sloQps = 0.0;
    double satQps = 0.0;

    /** Per-layer work and wall time. */
    uint64_t simRequests = 0;
    double simWallS = 0.0;
    uint64_t mgnRequests = 0;
    double mgnWallS = 0.0;
    uint64_t cacheKiloInstr = 0;
    double cacheWallS = 0.0;
};

ModelResult runModelJob(ModelInputs& in, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
