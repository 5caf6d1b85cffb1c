#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

/**
 * @file
 * One open-loop measurement point against the serving stack, composed
 * from the program's public pieces exactly as IntegratedHarness::run
 * and LoopbackHarness::run compose them (LoadClient + Transport +
 * ServiceLoop / TcpServer), with thin recording decorators at the
 * public boundaries:
 *
 *   App        genRequest (payload digest, in id order) and process
 *              (payload digest; entry/exit stamps when traced)
 *   Transport  sendRequest (scheduled genNs; entry/return stamps when
 *              traced) and recvResponse (return stamp, echo checks)
 *   ServerPort integrated only: batch sizes of recvReqBatch
 *
 * Client-observed latency is stamped here, not taken from RunResult:
 * scheduled genNs to the return of Transport::recvResponse, the same
 * definition on every path. A traced point splits it into five
 * adjacent spans that telescope exactly:
 *
 *   lag | send | ingress | process | egress
 *   genNs -> send entry -> send return -> process entry
 *         -> process exit -> recvResponse return
 *
 * Process stamps are keyed back to a request id through the payload
 * digest. Every generated payload carries a 64-bit nonce, so digests
 * are unique in practice; a duplicate is counted as a failure rather
 * than guessed at.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/common/app.h"
#include "core/arrival.h"

namespace perfbench {

enum class ServePath { kIntegrated, kLoopback };

/** The serving stack a workload drives: 2 service workers and a
 * sharded RequestPool; on loopback also the epoll reactor backend with
 * 1 reactor thread and 2 persistent client connections. */
struct StackSpec {
    ServePath path = ServePath::kIntegrated;
    tb::core::ArrivalSpec arrival;
};

struct PointConfig {
    double qps = 1000.0;
    uint64_t warmup = 0;
    uint64_t measured = 1000;
    /** Seed handed to the harness (arrival schedule + payload stream). */
    uint64_t seed = 1;
    /** Record send/process stamps and the per-layer counters. */
    bool traced = false;
};

/** Per-request spans of a traced point, measured requests only, in id
 * order. Their sum equals latencyNs element for element. */
struct Spans {
    std::vector<int64_t> lag, send, ingress, process, egress;
    /** process duration minus App::serviceNsFor of the payload. */
    std::vector<int64_t> overrun;
};

/** Process-wide counter deltas over a traced point. */
struct LayerCounters {
    uint64_t heapAllocs = 0;
    uint64_t queueNotifies = 0;
    uint64_t respWrites = 0;
    uint64_t eventfdWakes = 0;
    double cpuUs = 0.0;
    uint64_t ctxSwitches = 0;
    /** Integrated only (ServerPort decorator); 0 on loopback. */
    double batchMean = 0.0;
    /** Sum of process spans over workers x point wall time. */
    double busyFrac = 0.0;
};

struct PointResult {
    double offeredQps = 0.0;
    /** Measured completions over first scheduled send .. last receipt. */
    double achievedQps = 0.0;
    /** First scheduled send to last receipt, seconds (all requests). */
    double wallS = 0.0;
    /** Client-observed latency of each measured request, id order. */
    std::vector<int64_t> latencyNs;
    int64_t p50Ns = 0;
    int64_t p95Ns = 0;
    int64_t p99Ns = 0;

    /** Validity diagnostics (printed, not gated). */
    int64_t maxGenLagNs = 0;
    double lateFrac = 0.0;
    /** Host steal share over the point; -1 if /proc/stat is unreadable. */
    double stealFrac = -1.0;

    /** Correctness: requests checked and requests that failed a check. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;  // first few, for the log

    Spans spans;  // traced only
    LayerCounters counters;  // traced only
};

/**
 * One timed set-up, what setup_s measures: makes and initialises silo
 * (App::init with @p seed), starts the server or service loop and
 * connects the client, i.e. everything up to the first send. The stack
 * is then torn down untimed; the initialised app is left in @p app.
 * Returns the set-up time in seconds.
 */
double timeSetUp(const StackSpec& spec, uint64_t seed,
                 std::unique_ptr<tb::apps::App>& app);

/** Runs one point on a fresh stack over the already-initialised app. */
PointResult runPoint(tb::apps::App& app, const StackSpec& spec,
                     const PointConfig& cfg);

/** Host steal and total ticks from /proc/stat; false if unreadable. */
bool readStealTicks(uint64_t& steal, uint64_t& total);

/** FNV-1a over @p len bytes, continuing from @p h. */
uint64_t fnv1a(const void* data, size_t len,
               uint64_t h = 0xcbf29ce484222325ull);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
