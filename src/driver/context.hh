/**
 * @file
 * Shared experiment context.
 *
 * Figures 6-12 all consume the same 25 CPU characterizations, and
 * Figures 1-5 replay the same recorded GPU launch sequences under
 * different timing configurations. The Context memoizes both behind
 * a per-key std::call_once, so any number of figure jobs running
 * concurrently share one computation (and one ResultStore entry)
 * instead of recomputing or re-deserializing per binary.
 *
 * All public methods are thread-safe and return references that
 * stay valid for the Context's lifetime (entries are never evicted).
 */

#ifndef RODINIA_DRIVER_CONTEXT_HH
#define RODINIA_DRIVER_CONTEXT_HH

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/characterize.hh"
#include "core/workload.hh"
#include "driver/result_store.hh"
#include "gpusim/recorder.hh"
#include "gpusim/timing.hh"

namespace rodinia {
namespace driver {

class Executor;

/**
 * Rodinia workloads in the paper's figure order (Figs. 1-5).
 * Thread-safe: the table is a function-local static, which C++11
 * guarantees is initialized exactly once even under concurrent
 * first calls from pool threads.
 */
const std::vector<std::pair<std::string, std::string>> &figureOrder();

/** All 25 CPU workloads: 12 Rodinia + 13 Parsec (SC shared). */
std::vector<std::string> allCpuWorkloads();

/** Record a workload's GPU launch sequence (0 = shipped version). */
gpusim::LaunchSequence recordGpuLaunch(const std::string &name,
                                       core::Scale scale,
                                       int version = 0);

class Context
{
  public:
    /**
     * @param store result store for CPU characterizations; nullptr
     *        disables disk caching (results are still memoized)
     * @param executor pool used by parallelFor; nullptr runs
     *        sweeps serially
     */
    explicit Context(ResultStore *store = nullptr,
                     Executor *executor = nullptr);

    /** Uninstalls the trace-spill sink if the constructor armed it. */
    ~Context();

    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    /** One workload's CPU characterization (memoized + cached). */
    const core::CpuCharacterization &
    cpu(const std::string &name, core::Scale scale, int threads = 8);

    /** All 25 characterizations in allCpuWorkloads() order. */
    std::vector<core::CpuCharacterization>
    allCpu(core::Scale scale, int threads = 8);

    /**
     * One recording's recipe entry: its content hash and trace
     * statistics, keyed by (workload, scale, version, source digest),
     * which together decide the recording's bytes. Memoized and
     * store-cached: a warm run reads the entry and never records.
     * On a miss the sequence is recorded once through gpu(), hashed,
     * analyzed once, and the entry is published. A payload that
     * fails to parse is discarded and recomputed.
     */
    const GpuRecipe &recipe(const std::string &name, core::Scale scale,
                            int version = 0);

    /**
     * Timing-simulation stats for one workload under one SimConfig
     * (memoized + store-cached). Keyed by the recording's content
     * hash (from its recipe) plus the config fingerprint, so
     * identical (recording, config) pairs — within this process or
     * across processes — simulate exactly once; figures that share
     * a configuration (e.g. Fig. 1's 28-SM point and Fig. 4's
     * 8-channel point) share the result. The recording itself is
     * needed only when the stats are not in the store. Safe to call
     * concurrently from parallelFor iterations: each distinct key
     * simulates under its own call_once.
     *
     * gpuStats reads only the recipe's hash: it neither analyzes
     * the trace nor publishes the recipe, so a simulation request's
     * only store write is its stats entry. Recipes are published by
     * recipe() callers (the job graph's recording jobs and the
     * trace-statistics figures).
     */
    const gpusim::KernelStats &
    gpuStats(const std::string &name, core::Scale scale, int version,
             const gpusim::SimConfig &config);

    /**
     * Would gpuStats() for this key be served without running a
     * simulation? True when the stats are already memoized in this
     * Context, or when the recording's recipe is memoized and the
     * result store holds a published entry for the key. A cheap,
     * non-blocking probe (one map lookup, at most one stat(2)) —
     * never records, hashes, or simulates — used by the experiment
     * service to route requests onto the warm lane. A false negative
     * (e.g. store entry present but the recipe not yet memoized) is
     * safe: the request just takes the cold lane and still hits the
     * store.
     */
    bool gpuStatsWarm(const std::string &name, core::Scale scale,
                      int version, const gpusim::SimConfig &config);

    /**
     * Fan a sweep's iterations across the executor (serial when the
     * context has none). Iterations must write disjoint result
     * slots; assembly order is the caller's.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    Executor *executor() const { return exec; }
    ResultStore *resultStore() const { return store; }

    /** One cache-sweep replay actually performed this process. */
    struct SweepTelemetry
    {
        std::string key;           //!< "name/s<scale>/t<threads>"
        uint64_t lineAccesses = 0;
        double replaySeconds = 0.0;
    };

    /**
     * Telemetry for every characterization computed (not loaded from
     * the store) so far, in completion order. Snapshot, thread-safe.
     */
    std::vector<SweepTelemetry> sweepTelemetrySnapshot() const;

    /** One timing simulation actually performed this process. */
    struct GpuSimTelemetry
    {
        std::string key;      //!< "name/s<scale>/v<version>/<config>"
        uint64_t cycles = 0;  //!< simulated GPU cycles produced
        double simSeconds = 0.0;
    };

    /**
     * Telemetry for every timing simulation actually run (not served
     * from memo or store) so far, in completion order. Thread-safe.
     */
    std::vector<GpuSimTelemetry> gpuSimTelemetrySnapshot() const;

    /** gpuStats results served from the result store, not simulated. */
    uint64_t gpuStatsStoreHits() const { return nGpuStoreHits.load(); }

    // ---- in-flight simulation registry (single flight) ----------

    /**
     * One in-flight gpuStats computation, shared between the LEADER
     * (the caller that actually runs it) and any FOLLOWERS that
     * joined while it was running. The leader fills the outcome and
     * flips done under mu; followers wait on cv — with their own
     * cancellation checked between waits, so a follower abandoning
     * the flight never disturbs the leader.
     *
     * The flight key is the gpuStats memo key (workload / scale /
     * version / SimConfig::fingerprint), which within one process
     * identifies exactly one (recording contentHash, fingerprint)
     * pair — recordings are memoized per (workload, scale, version),
     * so equal keys mean equal recording bytes and the store key the
     * leader publishes under is the same one every follower would
     * have computed.
     */
    struct SimFlight
    {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        bool ok = false;          //!< outcome: served vs failed
        std::string errorClass;   //!< failure-taxonomy name when !ok
        std::string message;      //!< error message when !ok
        std::string payload;      //!< serialized KernelStats when ok
        uint64_t followers = 0;   //!< joins observed (telemetry)
    };

    /**
     * Join-or-begin the in-flight simulation for a gpuStats key.
     * Exactly one concurrent caller per key gets @p leader = true
     * and MUST eventually call simFlightComplete() with the same
     * handle however its computation ends; everyone else joins the
     * existing flight as a follower and should wait on its cv.
     * The flight is registered until the leader completes it, so a
     * request arriving after completion starts a fresh flight — by
     * then the result is memoized and the "fresh" flight is a cheap
     * memo read.
     */
    std::shared_ptr<SimFlight>
    simFlightJoin(const std::string &name, core::Scale scale,
                  int version, const gpusim::SimConfig &config,
                  bool &leader);

    /**
     * Leader-only: publish the outcome (ok + payload, or error class
     * + message), retire the flight from the registry, and wake every
     * follower. Exactly one call per leader handle.
     */
    void simFlightComplete(const std::shared_ptr<SimFlight> &flight,
                           bool ok, const std::string &errorClass,
                           const std::string &message,
                           const std::string &payload);

    /** In-flight simulation count (flights registered, not yet
     *  completed). Snapshot for stats surfaces. */
    size_t simFlightsInFlight() const;

  private:
    template <typename V> struct Entry
    {
        std::once_flag once;
        V value;
    };

    ResultStore *store;
    Executor *exec;

    /** ResultStore-backed trace-chunk spill sink (see context.cc);
     *  non-null only when RODINIA_TRACE_SPILL_CHUNKS armed it. */
    std::unique_ptr<trace::ChunkSink> spillSink;
    trace::ChunkSink *prevSpillSink = nullptr;
    uint32_t prevSpillResident = 0;

    /** One workload's recorded launch sequence (memoized). Only a
     *  recipe miss or a simulation reads it. */
    const gpusim::LaunchSequence &
    gpu(const std::string &name, core::Scale scale, int version);

    /** A recipe memo slot. `once` fills the whole entry from the
     *  store, or on a miss only the content hash; `complete` (first
     *  recipe() call) then analyzes the recording and publishes. */
    struct RecipeEntry
    {
        std::once_flag once;
        GpuRecipe value;
        bool fromStore = false;
        std::once_flag complete;
    };

    /** The memo behind recipe() and gpuStats(): loads the entry, or
     *  records and hashes. Never analyzes or publishes, so a
     *  simulation that needs only the hash pays for neither. */
    RecipeEntry &recipeEntry(const std::string &name, core::Scale scale,
                             int version);

    mutable std::mutex mu;
    std::map<std::string, std::unique_ptr<Entry<core::CpuCharacterization>>>
        cpuEntries;
    std::map<std::string, std::unique_ptr<Entry<gpusim::LaunchSequence>>>
        gpuEntries;
    std::map<std::string, std::unique_ptr<RecipeEntry>> recipeEntries;
    std::map<std::string, std::unique_ptr<Entry<gpusim::KernelStats>>>
        gpuStatsEntries;
    std::vector<SweepTelemetry> sweepTelemetry;
    std::vector<GpuSimTelemetry> gpuSimTelemetry;
    std::atomic<uint64_t> nGpuStoreHits{0};
    /** Open flights by gpuStats key; erased on completion. The map
     *  holds one ref, leader + followers hold their own, so a flight
     *  outlives its registry entry as long as anyone waits on it. */
    std::map<std::string, std::shared_ptr<SimFlight>> simFlights;
    /** Keys whose call_once completed ("stats:..."/"recipe:...") —
     *  the queryable side of the once_flag, for gpuStatsWarm. */
    std::set<std::string> doneKeys;
};

} // namespace driver
} // namespace rodinia

#endif // RODINIA_DRIVER_CONTEXT_HH
