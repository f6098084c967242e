/**
 * @file
 * Characterization runner: turns a workload into the paper's metrics.
 *
 * CPU side (Sections IV-B/V): instruction mix, cache-size sweep
 * (misses per memory reference), sharing behavior, and instruction/
 * data footprints, combined into the feature vectors used for PCA
 * and hierarchical clustering.
 *
 * The GPU side (Section III) has no runner here: driver::Context
 * records each launch sequence once and serves its trace statistics
 * (recipe) and timing results (gpuStats) from there.
 */

#ifndef RODINIA_CORE_CHARACTERIZE_HH
#define RODINIA_CORE_CHARACTERIZE_HH

#include <string>
#include <vector>

#include "cachesim/cache.hh"
#include "cachesim/sweep.hh"
#include "core/workload.hh"
#include "trace/trace.hh"

namespace rodinia {
namespace core {

/** All CPU-side metrics of one workload run. */
struct CpuCharacterization
{
    std::string name;
    Suite suite = Suite::Rodinia;
    int threads = 0;

    trace::InstrMix mix;
    std::vector<uint64_t> cacheSizes;
    std::vector<cachesim::CacheStats> sweep;

    uint64_t memEvents = 0;
    uint64_t instructionSites = 0;
    uint64_t instructionBlocks = 0;
    uint64_t dataPages = 0;
    uint64_t checksum = 0;

    /**
     * Replay telemetry from the single-pass cache sweep: line
     * accesses simulated and the wall clock they took. Observability
     * only — zero when a characterization was loaded from the result
     * store rather than recomputed.
     */
    uint64_t sweepLineAccesses = 0;
    double sweepReplaySeconds = 0.0;

    /** Instruction-mix features: {int, fp, branch, load, store}. */
    std::vector<double> instrMixFeatures() const;
    /** Working-set features: miss rate at each swept cache size. */
    std::vector<double> workingSetFeatures() const;
    /** Sharing features: shared-line and shared-access fractions. */
    std::vector<double> sharingFeatures() const;
    /** Concatenation of all feature groups (Fig. 6's input). */
    std::vector<double> allFeatures() const;

    static std::vector<std::string> instrMixFeatureNames();
    static std::vector<std::string>
    workingSetFeatureNames(const std::vector<uint64_t> &sizes);
    static std::vector<std::string>
    sharingFeatureNames(const std::vector<uint64_t> &sizes);
};

/**
 * Run the workload's CPU implementation and collect every metric.
 *
 * @param workload the benchmark
 * @param scale problem-size tier
 * @param threads worker threads (the paper models an 8-core CMP)
 */
CpuCharacterization characterizeCpu(Workload &workload, Scale scale,
                                    int threads = 8);

/** Suite display tag used in figures: "(R)", "(P)" or "(R, P)". */
std::string suiteTag(Suite suite);

} // namespace core
} // namespace rodinia

#endif // RODINIA_CORE_CHARACTERIZE_HH
