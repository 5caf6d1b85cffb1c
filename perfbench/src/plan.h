#ifndef PERFBENCH_PLAN_H_
#define PERFBENCH_PLAN_H_

/**
 * @file
 * The benchmark's fixed operating points. They are absolute and shared
 * by every serving workload; they are never recalibrated per run, so a
 * faster or slower program moves the metrics instead of the points.
 *
 *   kLoQps / kHiQps   about 20% and 60% of loopback-silo's saturation
 *                     throughput on the 4-vCPU host they were set on
 *   kSloP95Ns         the p95 latency limit behind slo_qps
 *   kOverloadQps      the deliberate overload behind sat_qps, well above
 *                     what any serving workload completes
 *   ladder            slo_qps candidates: geometric, 4% apart
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr double kLoQps = 20000.0;
inline constexpr double kHiQps = 40000.0;
inline constexpr int64_t kSloP95Ns = 1000000;
inline constexpr double kOverloadQps = 400000.0;

/** slo_qps also requires achieved >= this share of offered. */
inline constexpr double kSloMinAchievedShare = 0.98;

inline constexpr double kLadderFirstQps = 20000.0;
inline constexpr double kLadderRatio = 1.04;
inline constexpr size_t kLadderSteps = 70;

/** The fixed slo_qps candidate ladder, ascending. */
inline std::vector<double>
ladderRates()
{
    std::vector<double> r(kLadderSteps);
    double q = kLadderFirstQps;
    for (double& x : r) {
        x = q;
        q *= kLadderRatio;
    }
    return r;
}

/**
 * Highest index of a ladder of @p n steps at which @p pass holds,
 * assuming pass is true up to some step and false after it (latency
 * only grows with offered load); -1 when even step 0 fails. Binary
 * search: about log2(n) probes.
 */
template <typename Pass>
long
searchLadder(size_t n, Pass&& pass)
{
    long lo = -1;                      // highest step known to pass
    long hi = static_cast<long>(n);    // lowest step known to fail
    while (hi - lo > 1) {
        const long mid = lo + (hi - lo) / 2;
        if (pass(static_cast<size_t>(mid)))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

}  // namespace perfbench

#endif  // PERFBENCH_PLAN_H_
