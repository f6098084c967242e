/**
 * @file
 * perfbench_harness — the benchmark's in-process driver.
 *
 * run.py spawns the repository's own binaries (experiments,
 * experimentd) for the end-to-end figure and service numbers. This
 * program covers what those binaries cannot show from outside:
 *
 *   perfbench_harness mirror --phase cold|warm [--spans]
 *       the figure pipeline's layers that the experiments binary
 *       does not time itself: per CPU workload runCpu, address
 *       normalization and the cache sweep (cold only), and per GPU
 *       recording the figures replay driver::recordGpuLaunch,
 *       gpusim::contentHash and (cold only) gpusim::analyzeTrace.
 *
 *   perfbench_harness client --socket PATH --seed N --seconds S
 *       --golden FILE --daemon-pid P [--spans]
 *       a closed-loop load of two connections against experimentd:
 *       seeded blocks of warm figure, cold sim and shared batch
 *       requests, each timed on the client with a steady clock
 *       (--spans: every other block records spans, so one session
 *       compares blocks with and without them); then
 *       a seeded sample of the cold sims is re-simulated in process,
 *       and the protocol's parse and render calls are timed on the
 *       run's own requests.
 *
 * Every mode prints one JSON object on stdout. With --spans, layer
 * times come from spans the harness records around each public call
 * it makes (name, start, end, parent); without, the same work runs
 * unrecorded, which gives the spans' own overhead. Nothing inside the
 * libraries is instrumented.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cachesim/cache.hh"
#include "cachesim/sweep.hh"
#include "core/workload.hh"
#include "driver/context.hh"
#include "driver/figures.hh"
#include "gpusim/recorder.hh"
#include "gpusim/replay.hh"
#include "gpusim/simconfig.hh"
#include "gpusim/timing.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "support/alloc_align.hh"
#include "support/rng.hh"
#include "trace/stream.hh"
#include "trace/trace.hh"

using namespace rodinia;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

/**
 * In-memory span recorder for one thread. Spans nest by scope; each
 * keeps the index of the span open when it began as its parent, so
 * a layer's self time is its duration minus its direct children's.
 * Disabled recorders hand out no-op scopes.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    struct Span
    {
        std::string name;
        Clock::time_point start, end;
        int parent = -1;
    };

    class Scope
    {
      public:
        Scope(Tracer *t, const char *name) : t_(t)
        {
            if (!t_)
                return;
            idx_ = int(t_->spans_.size());
            t_->spans_.push_back({name, Clock::now(), {}, t_->open_});
            t_->open_ = idx_;
        }
        ~Scope()
        {
            if (!t_)
                return;
            t_->spans_[size_t(idx_)].end = Clock::now();
            t_->open_ = t_->spans_[size_t(idx_)].parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        int idx_ = -1;
    };

    /** A scope that records a span unless the recorder or this call
     *  is off. */
    Scope
    span(const char *name, bool record = true)
    {
        return Scope(on_ && record ? this : nullptr, name);
    }

    /** Per span name: count, total and self seconds. */
    struct Agg
    {
        uint64_t n = 0;
        double s = 0.0, self = 0.0;
    };
    using Totals = std::map<std::string, Agg>;

    /** Adds this recorder's spans to agg (several threads' recorders
     *  sum into one summary). */
    void
    addTo(Totals &agg) const
    {
        std::vector<double> childS(spans_.size(), 0.0);
        for (size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].parent >= 0)
                childS[size_t(spans_[i].parent)] +=
                    secondsBetween(spans_[i].start, spans_[i].end);
        for (size_t i = 0; i < spans_.size(); ++i) {
            double d = secondsBetween(spans_[i].start, spans_[i].end);
            Agg &a = agg[spans_[i].name];
            a.n += 1;
            a.s += d;
            a.self += d - childS[i];
        }
    }

    /** {"name":{"n":count,"s":total,"self_s":self},...} */
    static std::string
    summaryJson(const Totals &agg)
    {
        std::ostringstream os;
        os.precision(9);
        os << "{";
        bool first = true;
        for (const auto &[name, a] : agg) {
            os << (first ? "" : ",") << jsonString(name) << ":{\"n\":"
               << a.n << ",\"s\":" << a.s << ",\"self_s\":" << a.self
               << "}";
            first = false;
        }
        os << "}";
        return os.str();
    }

    std::string
    summaryJson() const
    {
        Totals agg;
        addTo(agg);
        return summaryJson(agg);
    }

  private:
    bool on_;
    std::vector<Span> spans_;
    int open_ = -1;
};

uint64_t
recordedEvents(const gpusim::LaunchSequence &seq)
{
    uint64_t n = 0;
    for (const auto &launch : seq.launches)
        for (const auto &block : launch.blocks)
            for (const auto &lane : block.lanes)
                n += lane.size();
    return n;
}

/** Value of --name, or fallback when absent. */
std::string
flag(int argc, char **argv, const char *name, const char *fallback)
{
    for (int i = 2; i + 1 < argc; ++i)
        if (!std::strcmp(argv[i], name))
            return argv[i + 1];
    return fallback;
}

bool
hasFlag(int argc, char **argv, const char *name)
{
    for (int i = 2; i < argc; ++i)
        if (!std::strcmp(argv[i], name))
            return true;
    return false;
}

long
intFlag(int argc, char **argv, const char *name, long fallback)
{
    std::string v = flag(argc, argv, name, "");
    if (v.empty())
        return fallback;
    char *end = nullptr;
    long n = std::strtol(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0') {
        std::fprintf(stderr, "%s: '%s' is not an integer\n", name,
                     v.c_str());
        std::exit(2);
    }
    return n;
}

// ---------------------------------------------------------------- mirror

int
runMirror(int argc, char **argv)
{
    std::string phase = flag(argc, argv, "--phase", "cold");
    if (phase != "cold" && phase != "warm") {
        std::fprintf(stderr, "mirror: --phase must be cold|warm\n");
        return 2;
    }
    bool cold = phase == "cold";
    Tracer tr(hasFlag(argc, argv, "--spans"));
    core::registerAllWorkloads();
    const core::Scale scale = core::Scale::Full;
    driver::setPrimaryScale(scale);

    uint64_t cpuEvents = 0, lineAccesses = 0;
    if (cold) {
        // Mirrors core::characterizeCpu at driver::Context's 8 threads,
        // one span per layer call.
        for (const auto &name : driver::allCpuWorkloads()) {
            auto w = core::Registry::instance().create(name);
            trace::TraceSession session(8, true);
            {
                auto s = tr.span("core.run_cpu");
                support::DeterministicAllocScope alignScope;
                w->runCpu(session, scale);
            }
            cpuEvents += session.totalEvents();
            {
                auto s = tr.span("trace.normalize");
                session.normalizeAddresses();
            }
            cachesim::SweepConfig sweepCfg;
            sweepCfg.sizesBytes = cachesim::paperCacheSizes();
            auto s = tr.span("cachesim.sweep");
            lineAccesses += cachesim::runSweep(session, sweepCfg)
                                .lineAccesses;
        }
    }

    // Every recording the figures replay, deduplicated as the
    // experiments job graph does.
    std::set<std::string> seen;
    std::ostringstream insts;
    uint64_t gpuEvents = 0, gpuInsts = 0, calls = 0;
    for (const auto &def : driver::allFigures()) {
        for (const auto &dep : def.gpuDeps) {
            std::string key = dep.workload + "/s" +
                              std::to_string(int(dep.scale)) + "/v" +
                              std::to_string(dep.version);
            if (!seen.insert(key).second)
                continue;
            gpusim::LaunchSequence seq;
            {
                auto s = tr.span("gpusim.record");
                seq = driver::recordGpuLaunch(dep.workload, dep.scale,
                                              dep.version);
            }
            ++calls;
            gpuEvents += recordedEvents(seq);
            gpuInsts += seq.threadInstructions();
            {
                auto s = tr.span("gpusim.hash");
                (void)gpusim::contentHash(seq);
            }
            if (cold) {
                auto s = tr.span("gpusim.replay");
                (void)gpusim::analyzeTrace(seq);
            }
            insts << (calls > 1 ? "," : "") << jsonString(key) << ":"
                  << seq.threadInstructions();
        }
    }

    std::printf("{\"counters\":{\"trace.events\":%llu,"
                "\"trace.chunks_spilled\":%llu,"
                "\"cachesim.sweep.line_accesses\":%llu,"
                "\"gpusim.record.calls\":%llu,"
                "\"gpusim.record.events\":%llu,"
                "\"gpusim.record.thread_insts\":%llu},"
                "\"recording_thread_insts\":{%s},\"spans\":%s}\n",
                (unsigned long long)cpuEvents,
                (unsigned long long)trace::traceChunksSpilled(),
                (unsigned long long)lineAccesses,
                (unsigned long long)calls, (unsigned long long)gpuEvents,
                (unsigned long long)gpuInsts, insts.str().c_str(),
                tr.summaryJson().c_str());
    return 0;
}

// ---------------------------------------------------------------- client

enum class Kind { Warm, Sim, Batch };

const char *
kindName(Kind k)
{
    return k == Kind::Warm ? "warm" : k == Kind::Sim ? "sim" : "batch";
}

constexpr int kBatchPoints = 4;
constexpr int kBlockOps = 20;     //!< requests in one client's block
constexpr int kSimSamples = 3;    //!< served sims re-simulated in process
constexpr const char *kSimWorkload = "backprop";
constexpr const char *kSimScale = "small";

/** One request as sent, and what came back. */
struct Request
{
    Kind kind = Kind::Warm;
    int block = 0, client = 0;
    std::string id;
    std::string configJson;          //!< sim: the one config
    std::vector<std::string> sweep;  //!< batch: the points
    double sendS = 0, acceptS = -1, doneS = -1;
    std::string status = "lost";     //!< served|rejected|error|lost
    bool mismatch = false;           //!< warm payload != golden
    bool coalesced = false;
    int pointsServed = 0, pointsCoalesced = 0, pointErrors = 0;
    std::string payload;             //!< sim: serialized KernelStats
};

/** The request line the client library sends, for parse timing and
 *  for the in-process re-simulation. */
std::string
requestLine(const Request &r)
{
    std::ostringstream os;
    if (r.kind == Kind::Warm) {
        os << "{\"op\":\"figure\",\"id\":\"" << r.id
           << "\",\"figure\":\"fig1\"}";
    } else if (r.kind == Kind::Sim) {
        os << "{\"op\":\"sim\",\"id\":\"" << r.id << "\",\"workload\":\""
           << kSimWorkload << "\",\"scale\":\"" << kSimScale
           << "\",\"config\":" << r.configJson << "}";
    } else {
        os << "{\"op\":\"batch\",\"id\":\"" << r.id
           << "\",\"workload\":\"" << kSimWorkload << "\",\"scale\":\""
           << kSimScale << "\",\"sweep\":[";
        for (size_t i = 0; i < r.sweep.size(); ++i)
            os << (i ? "," : "") << r.sweep[i];
        os << "]}";
    }
    return os.str();
}

/** Send one request and read its events until a terminal one. */
void
issue(service::ServiceClient &conn, Request &r, const std::string &golden,
      Clock::time_point epoch)
{
    using service::Event;
    r.sendS = secondsBetween(epoch, Clock::now());
    bool wrote = r.kind == Kind::Warm
                     ? conn.sendFigure(r.id, "fig1")
                 : r.kind == Kind::Sim
                     ? conn.sendSim(r.id, kSimWorkload, kSimScale,
                                    r.configJson)
                     : conn.sendBatch(r.id, kSimWorkload, kSimScale,
                                      r.sweep);
    if (!wrote)
        return;
    std::string data;
    for (;;) {
        Event e = conn.readEvent();
        if (e.type == Event::Type::ConnectionLost)
            return;
        if (e.type == Event::Type::Malformed || e.id != r.id)
            continue;
        double now = secondsBetween(epoch, Clock::now());
        switch (e.type) {
          case Event::Type::Accepted:
            r.acceptS = now;
            break;
          case Event::Type::Chunk:
            data += e.data;
            break;
          case Event::Type::Point:
            if (!e.pointOk) {
                ++r.pointErrors;
            } else {
                ++r.pointsServed;
                r.pointsCoalesced += e.coalesced ? 1 : 0;
            }
            break;
          case Event::Type::Done:
            r.doneS = now;
            r.status = "served";
            r.coalesced = e.coalesced;
            if (r.kind == Kind::Warm)
                r.mismatch = data != golden;
            else if (r.kind == Kind::Sim)
                r.payload = std::move(data);
            return;
          case Event::Type::Rejected:
            r.doneS = now;
            r.status = "rejected";
            return;
          case Event::Type::Error:
            r.doneS = now;
            r.status = "error";
            return;
          default:
            break;
        }
    }
}

/** utime + stime of a process, in seconds. */
double
processCpuSeconds(long pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t close = text.rfind(')');
    if (close == std::string::npos)
        return -1.0;
    std::istringstream fields(text.substr(close + 2));
    std::string f;
    unsigned long long utime = 0, stime = 0;
    // Fields after the command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    for (int i = 3; i <= 15 && fields >> f; ++i) {
        if (i == 14)
            utime = std::strtoull(f.c_str(), nullptr, 10);
        if (i == 15)
            stime = std::strtoull(f.c_str(), nullptr, 10);
    }
    return double(utime + stime) / double(sysconf(_SC_CLK_TCK));
}

int
runClient(int argc, char **argv)
{
    const std::string socket = flag(argc, argv, "--socket", "");
    const uint64_t seed = uint64_t(intFlag(argc, argv, "--seed", 1));
    const double seconds = double(intFlag(argc, argv, "--seconds", 10));
    const long daemonPid = intFlag(argc, argv, "--daemon-pid", 0);
    const std::string goldenPath = flag(argc, argv, "--golden", "");
    const bool spans = hasFlag(argc, argv, "--spans");
    if (socket.empty() || goldenPath.empty() || daemonPid <= 0) {
        std::fprintf(stderr, "client: --socket, --golden and "
                             "--daemon-pid are required\n");
        return 2;
    }
    std::ifstream gin(goldenPath, std::ios::binary);
    std::string golden((std::istreambuf_iterator<char>(gin)),
                       std::istreambuf_iterator<char>());
    if (golden.empty()) {
        std::fprintf(stderr, "client: cannot read %s\n",
                     goldenPath.c_str());
        return 2;
    }

    constexpr int kClients = 2;
    // The mix: each client sends back-to-back blocks of 20 requests,
    // 16 warm figure requests (so the warm tail holds enough
    // samples), 3 single sims and 1 batch of 4 sims. The composition
    // is fixed and the seed only orders it, so every seed and every
    // block asks for the same amount of work.
    constexpr int kBlockSims = 3, kBlockBatches = 1;
    constexpr int kBlockCold = kBlockSims + kBlockBatches;
    constexpr int kBlockWarm = kBlockOps - kBlockCold;
    // Each client runs at least this many blocks, so that ten samples
    // lie beyond the warm p99 and the cold p95 (1000 warm and 200 cold
    // requests; see benchlib.tail_supported) however slow the daemon.
    constexpr int kWarmTail = 1000, kColdTail = 200;
    constexpr int kMinBlocks = std::max(
        (kWarmTail + kClients * kBlockWarm - 1) / (kClients * kBlockWarm),
        (kColdTail + kClients * kBlockCold - 1) / (kClients * kBlockCold));
    std::vector<std::vector<Kind>> kinds(kClients);
    for (int c = 0; c < kClients; ++c) {
        auto &k = kinds[size_t(c)];
        k.assign(size_t(kBlockWarm), Kind::Warm);
        k.insert(k.end(), size_t(kBlockSims), Kind::Sim);
        k.insert(k.end(), size_t(kBlockBatches), Kind::Batch);
        Rng rng(seed * 1000003ULL + uint64_t(c));
        for (size_t i = k.size(); i > 1; --i)
            std::swap(k[i - 1], k[rng.next() % i]);
    }
    // Seeded config bases keep inputs seed-dependent; unique offsets
    // keep every cold request a fresh simulation within the run.
    Rng cfgRng(seed ^ 0x5eedc0f1ULL);
    const int simBase = 300 + int(cfgRng.next() % 200);
    const int batchBase = 300 + int(cfgRng.next() % 200);

    std::vector<service::ServiceClient> conns(kClients);
    for (auto &conn : conns)
        if (!conn.connect(socket)) {
            std::fprintf(stderr, "client: cannot connect to %s\n",
                         socket.c_str());
            return 1;
        }

    // Each client runs its own closed loop, one block after another,
    // until the measured time is up and the tails hold enough samples.
    std::vector<std::vector<Request>> reqs(kClients);
    std::vector<std::vector<double>> blockWall(kClients);
    std::vector<std::vector<int>> blockTraced(kClients);
    std::vector<Tracer> tracers(kClients, Tracer(spans));
    Clock::time_point epoch = Clock::now();
    const double cpu0 = processCpuSeconds(daemonPid);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            auto &mine = reqs[size_t(c)];
            Tracer &tr = tracers[size_t(c)];
            for (int block = 0; block < kMinBlocks ||
                                secondsBetween(epoch, Clock::now()) < seconds;
                 ++block) {
                const bool traced = block % 2 == 1;
                auto blockSpan = tr.span("service.block", traced);
                auto t0 = Clock::now();
                int sims = 0, batches = 0;
                for (int i = 0; i < kBlockOps; ++i) {
                    Request r;
                    r.kind = kinds[size_t(c)][size_t(i)];
                    r.block = block;
                    r.client = c;
                    r.id = "c" + std::to_string(c) + "b" +
                           std::to_string(block) + "i" + std::to_string(i);
                    if (r.kind == Kind::Sim) {
                        int v = (block * kClients + c) * kBlockSims + sims++;
                        r.configJson = "{\"gmemLatencyCycles\":" +
                                       std::to_string(simBase + v) + "}";
                    } else if (r.kind == Kind::Batch) {
                        // Points depend on (block, ordinal), not on the
                        // client, so the two clients' batches share sims.
                        int v = (block * kBlockBatches + batches++) *
                                kBatchPoints;
                        for (int p = 0; p < kBatchPoints; ++p)
                            r.sweep.push_back(
                                "{\"numChannels\":4,"
                                "\"gmemLatencyCycles\":" +
                                std::to_string(batchBase + v + p) + "}");
                    }
                    {
                        auto s = tr.span("service.request", traced);
                        issue(conns[size_t(c)], r, golden, epoch);
                    }
                    mine.push_back(std::move(r));
                }
                blockWall[size_t(c)].push_back(
                    secondsBetween(t0, Clock::now()));
                blockTraced[size_t(c)].push_back(spans && traced ? 1 : 0);
            }
        });
    for (auto &t : threads)
        t.join();
    const double phaseS = secondsBetween(epoch, Clock::now());
    const double daemonCpuS = processCpuSeconds(daemonPid) - cpu0;
    std::vector<Request> all;
    for (auto &v : reqs)
        for (auto &r : v)
            all.push_back(std::move(r));

    core::registerAllWorkloads();
    const core::Scale scale = core::Scale::Small; // kSimScale
    const std::string labelPrefix = std::string(kSimWorkload) + "/s" +
                                    std::to_string(int(scale)) + "/v0";

    // The daemon labels each sim it runs "<workload>/s<scale>/v0/<config
    // fingerprint>"; block 0's labels pick those sims' cycles out of its
    // counters.
    std::set<std::string> block0Labels;
    for (const auto &r : all) {
        service::Request req;
        std::string err;
        if (r.block != 0 || r.kind == Kind::Warm ||
            !service::parseRequest(requestLine(r), req, err))
            continue;
        if (r.kind == Kind::Sim)
            req.sweep = {req.config};
        for (const auto &cfg : req.sweep)
            block0Labels.insert(labelPrefix + "/" + cfg.fingerprint());
    }

    // Correctness: a seeded sample of the served single sims,
    // re-simulated in process from the same request line.
    std::vector<size_t> simIdx;
    for (size_t i = 0; i < all.size(); ++i)
        if (all[i].kind == Kind::Sim && all[i].status == "served")
            simIdx.push_back(i);
    Rng pick(seed * 7919ULL + 17);
    int checked = 0, simMismatch = 0;
    std::string insts;
    if (!simIdx.empty()) {
        gpusim::LaunchSequence seq =
            driver::recordGpuLaunch(kSimWorkload, scale, 0);
        insts = jsonString(labelPrefix) + ":" +
                std::to_string(seq.threadInstructions());
        for (int k = 0; k < kSimSamples; ++k) {
            const Request &r = all[simIdx[pick.next() % simIdx.size()]];
            service::Request req;
            std::string err;
            ++checked;
            if (!service::parseRequest(requestLine(r), req, err)) {
                ++simMismatch;
                continue;
            }
            gpusim::KernelStats ks =
                gpusim::TimingSim(req.config).simulate(seq);
            if (gpusim::serializeKernelStats(ks) != r.payload) {
                ++simMismatch;
                std::fprintf(stderr, "client: sim %s differs from the "
                                     "in-process TimingSim\n",
                             r.id.c_str());
            }
        }
    }

    // Protocol cost per call, timed over 50 ms of this run's own
    // request lines and the replies they drew.
    std::vector<std::string> lines;
    for (const auto &r : all)
        if (r.block == 0)
            lines.push_back(requestLine(r));
    uint64_t n = 0;
    auto t0 = Clock::now();
    while (secondsBetween(t0, Clock::now()) < 0.05)
        for (const auto &line : lines) {
            service::Request req;
            std::string err;
            n += service::parseRequest(line, req, err) ? 1 : 0;
        }
    const double parseUs = secondsBetween(t0, Clock::now()) * 1e6 / double(n);
    std::string chunk = golden.substr(
        0, std::min(golden.size(), service::kChunkBytes));
    n = 0;
    t0 = Clock::now();
    size_t sink = 0;
    while (secondsBetween(t0, Clock::now()) < 0.05)
        for (const auto &r : all) {
            if (r.block != 0)
                continue;
            sink += service::renderAccepted(r.id, "warm").size();
            sink += service::renderChunk(r.id, 0, chunk).size();
            sink += service::renderDone(r.id, "warm", 1, chunk.size(), 100)
                        .size();
            n += 3;
        }
    const double renderUs = secondsBetween(t0, Clock::now()) * 1e6 / double(n);
    if (sink == 0)
        return 1;

    std::string stats;
    if (conns[0].sendStats("stats")) {
        service::Outcome out = conns[0].await("stats");
        stats = out.payload;
    }
    for (auto &conn : conns)
        conn.close();

    std::ostringstream os;
    os.precision(9);
    os << "{\"requests\":[";
    for (size_t i = 0; i < all.size(); ++i) {
        const Request &r = all[i];
        os << (i ? "," : "") << "[\"" << kindName(r.kind) << "\","
           << r.block << "," << r.client << ",\"" << r.status << "\","
           << r.sendS << "," << r.acceptS << "," << r.doneS << ","
           << (r.mismatch ? 1 : 0) << "," << (r.coalesced ? 1 : 0)
           << "," << r.pointsServed << "," << r.pointsCoalesced << ","
           << r.pointErrors << "]";
    }
    os << "],\"block_wall_s\":[";
    for (int c = 0; c < kClients; ++c)
        for (size_t i = 0; i < blockWall[size_t(c)].size(); ++i)
            os << (c || i ? "," : "") << blockWall[size_t(c)][i];
    os << "],\"block_spans\":[";
    for (int c = 0; c < kClients; ++c)
        for (size_t i = 0; i < blockTraced[size_t(c)].size(); ++i)
            os << (c || i ? "," : "") << blockTraced[size_t(c)][i];
    os << "],\"phase_s\":" << phaseS << ",\"daemon_cpu_s\":" << daemonCpuS;
    os << ",\"sim_checked\":" << checked
       << ",\"sim_mismatch\":" << simMismatch
       << ",\"parse_us\":" << parseUs << ",\"render_us\":" << renderUs
       << ",\"batch_points\":" << kBatchPoints
       << ",\"block0_sim_labels\":[";
    bool firstLabel = true;
    for (const auto &label : block0Labels) {
        os << (firstLabel ? "" : ",") << jsonString(label);
        firstLabel = false;
    }
    Tracer::Totals spanTotals;
    for (const auto &tr : tracers)
        tr.addTo(spanTotals);
    os << "],\"spans\":" << Tracer::summaryJson(spanTotals)
       << ",\"recording_thread_insts\":{" << insts << "}"
       << ",\"daemon_stats\":" << jsonString(stats) << "}\n";
    std::fputs(os.str().c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "mirror")
        return runMirror(argc, argv);
    if (mode == "client")
        return runClient(argc, argv);
    std::fprintf(stderr,
                 "usage: %s mirror|client [options]\n"
                 "(see the file comment in perfbench/harness.cc)\n",
                 argv[0]);
    return 2;
}
