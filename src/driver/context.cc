#include "driver/context.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "driver/executor.hh"
#include "driver/tracing.hh"
#include "support/cancel.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace rodinia {
namespace driver {

const std::vector<std::pair<std::string, std::string>> &
figureOrder()
{
    // Function-local static: guaranteed thread-safe one-time
    // initialization (C++11 magic statics), so pool threads may race
    // on the first call.
    static const std::vector<std::pair<std::string, std::string>> order =
        {
            {"backprop", "BP"},   {"bfs", "BFS"},
            {"cfd", "CFD"},       {"heartwall", "HW"},
            {"hotspot", "HS"},    {"kmeans", "KM"},
            {"leukocyte", "LC"},  {"lud", "LUD"},
            {"mummer", "MUM"},    {"nw", "NW"},
            {"srad", "SRAD"},     {"streamcluster", "SC"},
        };
    return order;
}

std::vector<std::string>
allCpuWorkloads()
{
    core::registerAllWorkloads();
    auto &reg = core::Registry::instance();
    auto rodinia = reg.names(core::Suite::Rodinia);
    auto parsec = reg.names(core::Suite::Parsec);
    std::vector<std::string> all = rodinia;
    for (const auto &p : parsec)
        if (std::find(all.begin(), all.end(), p) == all.end())
            all.push_back(p);
    return all;
}

namespace {

/**
 * ChunkSink adapter that spills sealed trace chunks into the
 * ResultStore, keyed by the chunk's content hash — the store doubles
 * as the trace cache, so spilled chunks survive the process and
 * dedupe across identical traces. put/load ride the store's
 * concurrency-safe publish/load paths, so pool threads may spill
 * and refetch concurrently.
 */
class StoreChunkSink : public trace::ChunkSink
{
  public:
    explicit StoreChunkSink(ResultStore *store) : store(store) {}

    void
    put(uint64_t key, const std::string &blob) override
    {
        store->store(keyFor(key), blob);
    }

    bool
    get(uint64_t key, std::string &blob) override
    {
        auto payload = store->load(keyFor(key));
        if (!payload)
            return false;
        blob = std::move(*payload);
        return true;
    }

  private:
    static ResultStore::Key
    keyFor(uint64_t hash)
    {
        ResultStore::Key k;
        k.kind = "tracechunk";
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      (unsigned long long)hash);
        k.config = hex;
        return k;
    }

    ResultStore *store;
};

/** The memo key of one recording: "name/s<scale>/v<version>". */
std::string
recordingKey(const std::string &name, core::Scale scale, int version)
{
    return name + "/s" + std::to_string(int(scale)) + "/v" +
           std::to_string(version);
}

} // namespace

Context::Context(ResultStore *store, Executor *executor)
    : store(store), exec(executor)
{
    // Opt-in spill-to-store for streaming CPU traces: the env var's
    // value is the resident sealed-chunk budget per EventStream.
    // Installed here (not in trace/) so the sink can reuse the
    // figure result store; torn down in the destructor so tests that
    // build short-lived Contexts don't leak a dangling sink. A
    // disabled store (--no-cache) drops every put and misses every
    // get, so spilling into it would lose the chunks.
    const char *budget = std::getenv("RODINIA_TRACE_SPILL_CHUNKS");
    if (!budget || !*budget)
        return;
    char *end = nullptr;
    unsigned long n = std::strtoul(budget, &end, 10);
    if (end == budget || *end != '\0' || n == 0 || n > UINT32_MAX) {
        warn("RODINIA_TRACE_SPILL_CHUNKS='", budget,
             "' is not a positive integer; trace spilling is off");
    } else if (!store || !store->enabled()) {
        warn("RODINIA_TRACE_SPILL_CHUNKS ignored: no enabled result "
             "store to spill into");
    } else {
        prevSpillResident = trace::traceSpillResidentChunks();
        spillSink = std::make_unique<StoreChunkSink>(store);
        prevSpillSink = trace::setTraceSpill(spillSink.get(), uint32_t(n));
    }
}

Context::~Context()
{
    if (spillSink)
        trace::setTraceSpill(prevSpillSink, prevSpillResident);
}

template <typename V>
Context::Slot<V> &
Context::slot(Slots<V> &table, const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu);
    auto &s = table[key];
    if (!s)
        s = std::make_unique<Slot<V>>();
    return *s;
}

template <typename V, typename Fill>
V &
Context::memo(Slots<V> &table, const std::string &key, Fill &&fill)
{
    Slot<V> &s = slot(table, key);
    // call_once keeps concurrent requesters from duplicating the
    // (expensive) computation and propagates exceptions.
    std::call_once(s.once, [&] {
        fill(s.value);
        s.done.store(true, std::memory_order_release);
    });
    return s.value;
}

template <typename V>
bool
Context::loadStored(const ResultStore::Key &key, V &value,
                    bool (*parse)(const std::string &, V &))
{
    if (!store)
        return false;
    auto payload = store->load(key);
    if (!payload)
        return false;
    if (parse(*payload, value))
        return true;
    // Unusable entry: drop it so the recompute republishes a good one
    // instead of every future run re-hitting the corrupt bytes.
    store->discard(key);
    return false;
}

const core::CpuCharacterization &
Context::cpu(const std::string &name, core::Scale scale, int threads)
{
    std::string keyName =
        name + "/s" + std::to_string(int(scale)) + "/t" +
        std::to_string(threads);
    return memo(cpuSlots, keyName, [&](core::CpuCharacterization &c) {
        auto t0 = std::chrono::steady_clock::now();
        core::registerAllWorkloads();
        auto key = cpuCharKey(name, scale, threads);
        bool fromStore = loadStored(key, c, parseCpuChar);
        if (!fromStore) {
            // Stall site + checkpoint sit after the store hit path:
            // a warm entry is always served, only real compute is
            // stallable/cancellable.
            support::FaultInjector::instance().maybeStall("cpu:" +
                                                          keyName);
            support::checkpointCancellation();
            auto w = core::Registry::instance().create(name);
            c = core::characterizeCpu(*w, scale, threads);
            if (store)
                store->store(key, serializeCpuChar(c));
            support::metrics::count("cachesim.chars_computed");
            support::metrics::countLabeled(
                "cachesim.sweep.line_accesses", keyName,
                c.sweepLineAccesses);
            support::metrics::countLabeled(
                "cachesim.sweep.wall_us", keyName,
                uint64_t(c.sweepReplaySeconds * 1e6),
                support::metrics::Stability::Volatile);
        } else {
            support::metrics::count("cachesim.chars_served");
        }
        if (auto *tc = TraceCollector::active())
            tc->record("cachesim", "cpu-char",
                       TraceArgs()
                           .str("key", keyName)
                           .str("source",
                                fromStore ? "store" : "computed")
                           .json(),
                       t0, std::chrono::steady_clock::now());
    });
}

std::vector<core::CpuCharacterization>
Context::allCpu(core::Scale scale, int threads)
{
    auto names = allCpuWorkloads();
    std::vector<core::CpuCharacterization> out(names.size());
    // Fan out across the pool; slot-per-name keeps output order
    // identical to the serial loop.
    parallelFor(names.size(), [&](size_t i) {
        out[i] = cpu(names[i], scale, threads);
    });
    return out;
}

const gpusim::LaunchSequence &
Context::gpu(const std::string &name, core::Scale scale, int version)
{
    return memo(gpuSlots, recordingKey(name, scale, version),
                [&](gpusim::LaunchSequence &seq) {
                    seq = recordGpuLaunch(name, scale, version);
                    support::metrics::count("gpusim.recordings");
                });
}

Context::RecipeMemo &
Context::recipeMemo(const std::string &name, core::Scale scale,
                    int version)
{
    std::string keyName = recordingKey(name, scale, version);
    return memo(recipeSlots, keyName, [&](RecipeMemo &m) {
        auto t0 = std::chrono::steady_clock::now();
        m.fromStore = loadStored(gpuRecipeKey(name, scale, version),
                                 m.recipe, parseGpuRecipe);
        if (m.fromStore)
            support::metrics::count("gpusim.recipes_served");
        else
            m.recipe.contentHash =
                gpusim::contentHash(gpu(name, scale, version));
        if (auto *tc = TraceCollector::active())
            tc->record("gpusim", "recipe",
                       TraceArgs()
                           .str("key", keyName)
                           .str("source",
                                m.fromStore ? "store" : "recorded")
                           .json(),
                       t0, std::chrono::steady_clock::now());
    });
}

const GpuRecipe &
Context::recipe(const std::string &name, core::Scale scale, int version)
{
    RecipeMemo &m = recipeMemo(name, scale, version);
    if (!m.fromStore)
        std::call_once(m.complete, [&] {
            m.recipe.trace =
                gpusim::analyzeTrace(gpu(name, scale, version));
            if (store)
                store->store(gpuRecipeKey(name, scale, version),
                             serializeGpuRecipe(m.recipe));
        });
    return m.recipe;
}

bool
Context::gpuStatsWarm(const std::string &name, core::Scale scale,
                      int version, const gpusim::SimConfig &config)
{
    std::string fp = config.fingerprint();
    std::string recKey = recordingKey(name, scale, version);
    uint64_t recHash = 0;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto st = statsSlots.find(recKey + "/" + fp);
        if (st != statsSlots.end() &&
            st->second->done.load(std::memory_order_acquire))
            return true;
        auto it = recipeSlots.find(recKey);
        if (it == recipeSlots.end() ||
            !it->second->done.load(std::memory_order_acquire))
            return false;
        recHash = it->second->value.recipe.contentHash;
    }
    if (!store || !store->enabled())
        return false;
    auto key = gpuStatsKey(name, scale, version, fp, recHash);
    std::error_code ec;
    return std::filesystem::exists(store->pathFor(key), ec);
}

const gpusim::KernelStats &
Context::gpuStats(const std::string &name, core::Scale scale,
                  int version, const gpusim::SimConfig &config)
{
    std::string fp = config.fingerprint();
    std::string keyName = recordingKey(name, scale, version) + "/" + fp;
    return memo(statsSlots, keyName, [&](StatsMemo &m) {
        auto span0 = std::chrono::steady_clock::now();
        // The recording's content hash is part of the key (a changed
        // recording must not be served stale stats); the recipe
        // supplies it without recording on a warm run.
        uint64_t rec_hash =
            recipeMemo(name, scale, version).recipe.contentHash;
        auto key = gpuStatsKey(name, scale, version, fp, rec_hash);
        bool fromStore =
            loadStored(key, m.stats, gpusim::parseKernelStats);
        if (!fromStore) {
            support::FaultInjector::instance().maybeStall("sim:" +
                                                          keyName);
            support::checkpointCancellation();
            const gpusim::LaunchSequence &seq =
                gpu(name, scale, version);
            auto t0 = std::chrono::steady_clock::now();
            gpusim::TimingSim sim(config);
            m.stats = sim.simulate(seq);
            std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;
            if (store)
                store->store(key, gpusim::serializeKernelStats(m.stats));
            uint64_t simUs = uint64_t(dt.count() * 1e6);
            support::metrics::count("gpusim.sims_run");
            support::metrics::count("gpusim.cycles", m.stats.cycles);
            support::metrics::countLabeled("gpusim.sim.cycles", keyName,
                                           m.stats.cycles);
            support::metrics::countLabeled(
                "gpusim.sim.wall_us", keyName, simUs,
                support::metrics::Stability::Volatile);
            support::metrics::observe("gpusim.sim_wall_us", simUs);
        } else {
            support::metrics::count("gpusim.store_served");
        }
        if (auto *tc = TraceCollector::active()) {
            // Per-sim cycles, cache hit rates, and the stall
            // breakdown (channel occupancy, bank-conflict
            // serialization) straight from the timing model's
            // KernelStats — identical whether simulated or
            // store-served, so trace args stay deterministic.
            const gpusim::KernelStats &s = m.stats;
            tc->record("gpusim", "sim",
                       TraceArgs()
                           .str("key", keyName)
                           .str("source",
                                fromStore ? "store" : "simulated")
                           .num("cycles", s.cycles)
                           .num("warp_insns", s.warpInstructions)
                           .num("channel_busy_cycles",
                                s.channelBusyCycles)
                           .num("bank_conflict_extra_cycles",
                                s.bankConflictExtraCycles)
                           .num("l1_hits", s.l1Hits)
                           .num("l1_misses", s.l1Misses)
                           .num("l2_hits", s.l2Hits)
                           .num("l2_misses", s.l2Misses)
                           .json(),
                       span0, std::chrono::steady_clock::now());
        }
    }).stats;
}

std::shared_ptr<Context::SimFlight>
Context::simFlightJoin(const std::string &name, core::Scale scale,
                       int version, const gpusim::SimConfig &config,
                       bool &leader)
{
    Slot<StatsMemo> &s = slot(
        statsSlots,
        recordingKey(name, scale, version) + "/" + config.fingerprint());
    std::lock_guard<std::mutex> lock(mu);
    std::shared_ptr<SimFlight> &flight = s.value.flight;
    leader = !flight;
    if (leader) {
        flight = std::make_shared<SimFlight>();
        flight->registration = &flight;
        ++nOpenFlights;
    }
    return flight;
}

void
Context::simFlightComplete(const std::shared_ptr<SimFlight> &flight,
                           bool ok, const std::string &errorClass,
                           const std::string &message,
                           const std::string &payload)
{
    // Retire the registration FIRST: once followers can observe
    // done, a brand-new request for the same key must start its own
    // flight (served from the memo) rather than join a finished one.
    // The slot held one ref, leader + followers hold their own, so
    // the flight outlives its registration while anyone waits on it.
    {
        std::lock_guard<std::mutex> lock(mu);
        flight->registration->reset();
        --nOpenFlights;
    }
    {
        std::lock_guard<std::mutex> flock(flight->mu);
        flight->ok = ok;
        flight->errorClass = errorClass;
        flight->message = message;
        flight->payload = payload;
        flight->done = true;
    }
    flight->cv.notify_all();
}

size_t
Context::openSimFlights() const
{
    std::lock_guard<std::mutex> lock(mu);
    return nOpenFlights;
}

void
Context::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (exec) {
        exec->parallelFor(n, fn);
        return;
    }
    for (size_t i = 0; i < n; ++i)
        fn(i);
}

} // namespace driver
} // namespace rodinia
