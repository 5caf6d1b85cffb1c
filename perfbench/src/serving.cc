#include "serving.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "core/client.h"
#include "core/service.h"
#include "core/sharded_port.h"
#include "core/transport.h"
#include "net/reactor.h"
#include "net/server_harness.h"
#include "util/alloc_probe.h"
#include "util/clock.h"

namespace perfbench {

namespace core = tb::core;
namespace net = tb::net;
namespace probe = tb::util::probe;
using tb::util::monotonicNs;

uint64_t
fnv1a(const void* data, size_t len, uint64_t h)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; i++) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

bool
readStealTicks(uint64_t& steal, uint64_t& total)
{
    FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr)
        return false;
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                              &v[6], &v[7]);
    std::fclose(f);
    if (n != 8)
        return false;
    steal = v[7];
    total = 0;
    for (unsigned long long x : v)
        total += x;
    return true;
}

namespace {

// With the generator, the collector and (loopback) the reactor thread,
// this shape fills a 4-vCPU host without oversubscribing it further.
constexpr unsigned kWorkers = 2;
constexpr unsigned kConnections = 2;
constexpr unsigned kReactors = 1;

uint64_t
digest(std::string_view s)
{
    return fnv1a(s.data(), s.size());
}

/**
 * Per-point record store. Each array slot has exactly one writer
 * thread (generator: gen/send columns; collector: receive columns;
 * workers: one claimed process slot each) and is read only after
 * every one of those threads has been joined.
 */
class Recorder {
  public:
    Recorder(uint64_t total, bool traced)
        : total_(total),
          traced_(traced),
          gen_hash_(total),
          sched_(total),
          send_in_(traced ? total : 0),
          send_out_(traced ? total : 0),
          recv_count_(total),
          recv_ns_(total),
          echo_(total),
          proc_hash_(total),
          proc_in_(traced ? total : 0),
          proc_out_(traced ? total : 0),
          proc_svc_(traced ? total : 0)
    {
    }

    bool traced() const { return traced_; }

    // -- generator thread --
    void
    onGen(std::string_view payload)
    {
        if (gen_count_ < total_)
            gen_hash_[gen_count_] = digest(payload);
        gen_count_++;
    }

    void
    onSend(uint64_t id, int64_t genNs, int64_t in, int64_t out)
    {
        if (id >= total_) {
            bad_send_++;
            return;
        }
        sched_[id] = genNs;
        if (traced_) {
            send_in_[id] = in;
            send_out_[id] = out;
        }
    }

    // -- collector thread --
    void
    onRecv(const core::Response& r, int64_t at)
    {
        if (r.id >= total_) {
            bad_recv_++;
            return;
        }
        if (recv_count_[r.id]++ == 0) {
            recv_ns_[r.id] = at;
            echo_[r.id] = r.timing;
        }
    }

    // -- service workers --
    void
    onProcess(uint64_t hash, int64_t in, int64_t out, int64_t svc)
    {
        const uint64_t k = proc_next_.fetch_add(1, std::memory_order_relaxed);
        if (k >= total_)
            return;  // more process calls than requests; counted later
        proc_hash_[k] = hash;
        if (traced_) {
            proc_in_[k] = in;
            proc_out_[k] = out;
            proc_svc_[k] = svc;
        }
    }

    /** Checks every request and fills the result (after all joins). */
    void analyze(uint64_t warmup, unsigned workers, PointResult& res) const;

  private:
    void fail(PointResult& res, uint64_t n, const char* what,
              uint64_t id) const;

    const uint64_t total_;
    const bool traced_;
    uint64_t gen_count_ = 0;
    uint64_t bad_send_ = 0;
    uint64_t bad_recv_ = 0;
    std::vector<uint64_t> gen_hash_;
    std::vector<int64_t> sched_, send_in_, send_out_;
    std::vector<uint32_t> recv_count_;
    std::vector<int64_t> recv_ns_;
    std::vector<core::RequestTiming> echo_;
    std::atomic<uint64_t> proc_next_{0};
    std::vector<uint64_t> proc_hash_;
    std::vector<int64_t> proc_in_, proc_out_, proc_svc_;
};

void
Recorder::fail(PointResult& res, uint64_t n, const char* what,
               uint64_t id) const
{
    res.failed += n;
    if (res.failures.size() < 5) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s (id %llu, x%llu)", what,
                      static_cast<unsigned long long>(id),
                      static_cast<unsigned long long>(n));
        res.failures.emplace_back(buf);
    }
}

void
Recorder::analyze(uint64_t warmup, unsigned workers, PointResult& res) const
{
    res.attempted = total_;
    if (gen_count_ != total_)
        fail(res, 1, "generated payload count differs from requests",
             gen_count_);
    if (bad_send_ > 0)
        fail(res, bad_send_, "request id out of range", 0);
    if (bad_recv_ > 0)
        fail(res, bad_recv_, "response id out of range", 0);

    // Exactly once, intact echo, ordered stamps.
    std::vector<bool> ok(total_, true);
    for (uint64_t id = 0; id < total_; id++) {
        const char* what = nullptr;
        const core::RequestTiming& t = echo_[id];
        if (recv_count_[id] != 1)
            what = recv_count_[id] == 0 ? "no response" : "duplicate response";
        else if (t.genNs != sched_[id])
            what = "echoed genNs differs from the scheduled one";
        else if (!(t.genNs <= t.startNs && t.startNs <= t.endNs))
            what = "genNs <= startNs <= endNs violated";
        if (what != nullptr) {
            ok[id] = false;
            fail(res, 1, what, id);
        }
    }

    // The multiset of payloads that reached App::process equals the
    // multiset generated.
    const uint64_t nproc = proc_next_.load();
    if (nproc > total_)
        fail(res, nproc - total_, "more App::process calls than requests",
             0);
    std::vector<uint64_t> want(gen_hash_);
    std::vector<uint64_t> got(proc_hash_.begin(),
                              proc_hash_.begin() +
                                  static_cast<ptrdiff_t>(
                                      std::min(nproc, total_)));
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    std::vector<uint64_t> diff;
    std::set_symmetric_difference(want.begin(), want.end(), got.begin(),
                                  got.end(), std::back_inserter(diff));
    if (!diff.empty())
        fail(res, diff.size(), "processed payloads differ from generated",
             0);

    // Latency, achieved rate, wall span.
    int64_t first_all = INT64_MAX, last_all = INT64_MIN;
    int64_t first_meas = INT64_MAX, last_meas = INT64_MIN;
    res.latencyNs.clear();
    res.latencyNs.reserve(total_ - std::min(warmup, total_));
    for (uint64_t id = 0; id < total_; id++) {
        if (!ok[id])
            continue;
        first_all = std::min(first_all, sched_[id]);
        last_all = std::max(last_all, recv_ns_[id]);
        if (id < warmup)
            continue;
        first_meas = std::min(first_meas, sched_[id]);
        last_meas = std::max(last_meas, recv_ns_[id]);
        res.latencyNs.push_back(recv_ns_[id] - sched_[id]);
    }
    if (!res.latencyNs.empty()) {
        const core::LatencySummary s = core::summarizeNs(res.latencyNs);
        res.p50Ns = s.p50Ns;
        res.p95Ns = s.p95Ns;
        res.p99Ns = s.p99Ns;
        res.achievedQps = static_cast<double>(res.latencyNs.size()) * 1e9 /
            static_cast<double>(std::max<int64_t>(1, last_meas - first_meas));
        res.wallS = static_cast<double>(last_all - first_all) / 1e9;
    }
    if (!traced_)
        return;

    // Key process stamps to ids through the payload digest.
    std::unordered_map<uint64_t, uint64_t> id_of;
    id_of.reserve(total_ * 2);
    std::vector<bool> dup(total_, false);
    for (uint64_t id = 0; id < total_; id++) {
        auto [it, fresh] = id_of.emplace(gen_hash_[id], id);
        if (!fresh) {
            dup[id] = dup[it->second] = true;
        }
    }
    std::vector<int64_t> p_in(total_, 0), p_out(total_, 0),
        p_svc(total_, 0);
    std::vector<uint32_t> p_seen(total_, 0);
    double busy_ns = 0.0;
    for (uint64_t k = 0; k < std::min(nproc, total_); k++) {
        busy_ns += static_cast<double>(proc_out_[k] - proc_in_[k]);
        const auto it = id_of.find(proc_hash_[k]);
        if (it == id_of.end())
            continue;  // already counted by the multiset check
        const uint64_t id = it->second;
        p_seen[id]++;
        p_in[id] = proc_in_[k];
        p_out[id] = proc_out_[k];
        p_svc[id] = proc_svc_[k];
    }
    if (res.wallS > 0.0)
        res.counters.busyFrac =
            busy_ns / (res.wallS * 1e9 * static_cast<double>(workers));

    Spans& sp = res.spans;
    for (uint64_t id = warmup; id < total_; id++) {
        if (!ok[id])
            continue;
        if (dup[id] || p_seen[id] != 1) {
            fail(res, 1, "process stamp not attributable to one request",
                 id);
            continue;
        }
        const int64_t lag = send_in_[id] - sched_[id];
        const int64_t send = send_out_[id] - send_in_[id];
        const int64_t ingress = p_in[id] - send_out_[id];
        const int64_t process = p_out[id] - p_in[id];
        const int64_t egress = recv_ns_[id] - p_out[id];
        if (lag + send + ingress + process + egress !=
            recv_ns_[id] - sched_[id])
            fail(res, 1, "spans do not sum to the observed latency", id);
        sp.lag.push_back(lag);
        sp.send.push_back(send);
        sp.ingress.push_back(ingress);
        sp.process.push_back(process);
        sp.egress.push_back(egress);
        sp.overrun.push_back(process - p_svc[id]);
    }
}

/** Decorates the app: payload digests always, stamps when traced. */
class RecordingApp final : public tb::apps::App {
  public:
    RecordingApp(tb::apps::App& inner, Recorder& rec)
        : inner_(inner), rec_(rec)
    {
    }

    const std::string& name() const override { return inner_.name(); }
    void init(const tb::apps::AppConfig& cfg) override { inner_.init(cfg); }

    std::string
    genRequest(tb::util::Rng& rng) override
    {
        std::string s = inner_.genRequest(rng);
        rec_.onGen(s);
        return s;
    }

    uint64_t
    process(std::string_view request) override
    {
        const uint64_t h = digest(request);
        if (!rec_.traced()) {
            const uint64_t c = inner_.process(request);
            rec_.onProcess(h, 0, 0, 0);
            return c;
        }
        const int64_t in = monotonicNs();
        const uint64_t c = inner_.process(request);
        const int64_t out = monotonicNs();
        rec_.onProcess(h, in, out, inner_.serviceNsFor(request));
        return c;
    }

    int64_t
    serviceNsFor(std::string_view request) const override
    {
        return inner_.serviceNsFor(request);
    }
    tb::apps::RequestCost
    costFor(std::string_view request) const override
    {
        return inner_.costFor(request);
    }
    tb::apps::AppProfile profile() const override { return inner_.profile(); }

  private:
    tb::apps::App& inner_;
    Recorder& rec_;
};

/** Decorates the client transport: scheduled genNs, send and receipt
 * stamps, response bookkeeping. */
class RecordingTransport final : public core::Transport {
  public:
    RecordingTransport(core::Transport& inner, Recorder& rec)
        : inner_(inner), rec_(rec)
    {
    }

    void
    sendRequest(core::Request&& req) override
    {
        const uint64_t id = req.id;
        const int64_t gen = req.genNs;
        if (!rec_.traced()) {
            inner_.sendRequest(std::move(req));
            rec_.onSend(id, gen, 0, 0);
            return;
        }
        const int64_t in = monotonicNs();
        inner_.sendRequest(std::move(req));
        const int64_t out = monotonicNs();
        rec_.onSend(id, gen, in, out);
    }

    bool
    recvResponse(core::Response& out) override
    {
        if (!inner_.recvResponse(out))
            return false;
        rec_.onRecv(out, monotonicNs());
        return true;
    }

    void finishSend() override { inner_.finishSend(); }

  private:
    core::Transport& inner_;
    Recorder& rec_;
};

/** Decorates the integrated server port: counts recvReqBatch sizes. */
class CountingPort final : public core::ServerPort {
  public:
    explicit CountingPort(core::ServerPort& inner) : inner_(inner) {}

    bool recvReq(core::Request& out) override
    {
        const bool ok = inner_.recvReq(out);
        if (ok)
            note(1);
        return ok;
    }
    size_t
    recvReqBatch(std::vector<core::Request>& out, size_t max) override
    {
        const size_t n = inner_.recvReqBatch(out, max);
        if (n > 0)
            note(n);
        return n;
    }
    void bindWorker(unsigned worker) override { inner_.bindWorker(worker); }
    void sendResp(core::Response&& resp) override
    {
        inner_.sendResp(std::move(resp));
    }
    void sendRespBatch(std::vector<core::Response>& resps) override
    {
        inner_.sendRespBatch(resps);
    }
    void closeResponses() override { inner_.closeResponses(); }

    double
    batchMean() const
    {
        const uint64_t b = batches_.load();
        return b == 0 ? 0.0
                      : static_cast<double>(items_.load()) /
                static_cast<double>(b);
    }

  private:
    void
    note(size_t n)
    {
        batches_.fetch_add(1, std::memory_order_relaxed);
        items_.fetch_add(n, std::memory_order_relaxed);
    }

    core::ServerPort& inner_;
    std::atomic<uint64_t> batches_{0};
    std::atomic<uint64_t> items_{0};
};

core::PortOptions
portOptions()
{
    core::PortOptions p;
    p.policy = core::QueuePolicy::kSharded;
    return core::resolveShards(p, kWorkers);
}

net::IoOptions
ioOptions()
{
    net::IoOptions io;
    io.mode = net::IoMode::kReactor;
    io.reactors = kReactors;
    return io;
}

/**
 * The serving stack of one workload, built from the program's public
 * pieces: InProcessTransport + (counted) ServerPort + ServiceLoop, or
 * TcpServer on the reactor backend + MultiConnTcpTransport.
 */
class Rig {
  public:
    Rig(tb::apps::App& app, const StackSpec& spec)
    {
        if (spec.path == ServePath::kIntegrated) {
            inproc_ = std::make_unique<core::InProcessTransport>(
                portOptions());
            port_ = std::make_unique<CountingPort>(inproc_->serverPort());
            loop_ = std::make_unique<core::ServiceLoop>(*port_, app,
                                                        kWorkers);
            loop_->start();
            return;
        }
        server_ = std::make_unique<net::TcpServer>(
            app, kWorkers, 0, true, portOptions(),
            core::ServiceOptions{}, ioOptions());
        if (!server_->listening())
            throw std::runtime_error("could not listen on 127.0.0.1");
        server_->start();
        client_ = std::make_unique<net::MultiConnTcpTransport>(
            "127.0.0.1", server_->port(), kConnections);
        if (!client_->connected()) {
            server_->stop();
            throw std::runtime_error("could not connect to the server");
        }
    }

    ~Rig() { stop(); }

    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    core::Transport&
    transport()
    {
        if (inproc_)
            return *inproc_;
        return *client_;
    }

    double batchMean() const { return port_ ? port_->batchMean() : 0.0; }

    /** Joins the server side; the client stream must have ended. */
    void
    stop()
    {
        if (loop_)
            loop_->join();
        if (server_)
            server_->stop();
    }

    /** Ends the client stream, drains it and joins the server side. */
    void
    finish()
    {
        core::Transport& t = transport();
        t.finishSend();
        core::Response r;
        while (t.recvResponse(r)) {
        }
        stop();
    }

  private:
    std::unique_ptr<core::InProcessTransport> inproc_;
    std::unique_ptr<CountingPort> port_;
    std::unique_ptr<core::ServiceLoop> loop_;
    std::unique_ptr<net::TcpServer> server_;
    std::unique_ptr<net::MultiConnTcpTransport> client_;
};

struct Snapshot {
    uint64_t steal = 0, ticks = 0;
    bool haveSteal = false;
    rusage ru{};
    uint64_t probes[probe::kCounterCount] = {};

    void
    take()
    {
        haveSteal = readStealTicks(steal, ticks);
        getrusage(RUSAGE_SELF, &ru);
        for (unsigned c = 0; c < probe::kCounterCount; c++)
            probes[c] = probe::value(static_cast<probe::Counter>(c));
    }
};

double
cpuUs(const rusage& r)
{
    return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) * 1e6 +
        static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec);
}

}  // namespace

double
timeSetUp(const StackSpec& spec, uint64_t seed,
          std::unique_ptr<tb::apps::App>& app)
{
    const int64_t t0 = monotonicNs();
    std::unique_ptr<tb::apps::App> fresh = tb::apps::makeApp("silo");
    tb::apps::AppConfig cfg;
    cfg.seed = seed;
    fresh->init(cfg);
    Rig rig(*fresh, spec);
    const int64_t t1 = monotonicNs();
    rig.finish();
    app = std::move(fresh);
    return static_cast<double>(t1 - t0) / 1e9;
}

PointResult
runPoint(tb::apps::App& app, const StackSpec& spec, const PointConfig& cfg)
{
    const uint64_t total = cfg.warmup + cfg.measured;
    Recorder rec(total, cfg.traced);
    RecordingApp rapp(app, rec);
    Rig rig(rapp, spec);
    RecordingTransport transport(rig.transport(), rec);

    core::HarnessConfig hc;
    hc.qps = cfg.qps;
    hc.workerThreads = kWorkers;
    hc.warmupRequests = cfg.warmup;
    hc.measuredRequests = cfg.measured;
    hc.seed = cfg.seed;
    hc.arrival = spec.arrival;

    if (cfg.traced)
        probe::setEnabled(true);
    Snapshot before;
    before.take();
    core::LoadClient client;
    const core::RunResult rr = client.run(rapp, hc, transport);
    Snapshot after;
    after.take();
    probe::setEnabled(false);
    rig.stop();

    PointResult res;
    res.offeredQps = cfg.qps;
    res.maxGenLagNs = rr.maxGenLagNs;
    res.lateFrac = rr.coLateFrac;
    if (before.haveSteal && after.haveSteal && after.ticks > before.ticks)
        res.stealFrac = static_cast<double>(after.steal - before.steal) /
            static_cast<double>(after.ticks - before.ticks);
    rec.analyze(cfg.warmup, kWorkers, res);
    if (cfg.traced) {
        LayerCounters& c = res.counters;
        auto delta = [&](probe::Counter k) {
            return after.probes[k] - before.probes[k];
        };
        c.heapAllocs = delta(probe::kHeapAllocs);
        c.queueNotifies = delta(probe::kQueueNotifies);
        c.respWrites = delta(probe::kRespWrites);
        c.eventfdWakes = delta(probe::kEventfdWakes);
        c.cpuUs = cpuUs(after.ru) - cpuUs(before.ru);
        c.ctxSwitches = static_cast<uint64_t>(
            (after.ru.ru_nvcsw + after.ru.ru_nivcsw) -
            (before.ru.ru_nvcsw + before.ru.ru_nivcsw));
        c.batchMean = rig.batchMean();
    }
    return res;
}

}  // namespace perfbench
