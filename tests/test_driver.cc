/**
 * @file
 * Driver subsystem tests: job-graph execution order, dependency
 * failure propagation, executor determinism across thread counts,
 * ResultStore hit/miss/version-invalidation behavior, and the
 * Context's memoized CPU characterizations, GPU stats and GPU
 * recording recipes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "driver/context.hh"
#include "driver/executor.hh"
#include "driver/figures.hh"
#include "driver/job.hh"
#include "driver/result_store.hh"
#include "support/metrics.hh"
#include "trace/stream.hh"

using namespace rodinia;
using driver::Executor;
using driver::JobGraph;
using driver::JobStatus;
using driver::ResultStore;

namespace {

/** Fresh scratch directory under the build tree. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path(std::filesystem::temp_directory_path() /
               ("rodinia_driver_test_" + tag))
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    const std::filesystem::path &dir() const { return path; }

  private:
    std::filesystem::path path;
};

uint64_t
metric(const char *name, const std::string &label = "")
{
    return support::metrics::Registry::global().snapshot().value(name,
                                                                 label);
}

} // namespace

// ---------------------------------------------------------------
// JobGraph
// ---------------------------------------------------------------

TEST(JobGraph, ExecutesDependenciesFirst)
{
    // Diamond with a tail: a -> {b, c} -> d -> e.
    JobGraph g;
    std::mutex mu;
    std::vector<std::string> order;
    auto record = [&](const char *tag) {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(tag);
    };
    size_t a = g.add("a", [&] { record("a"); });
    size_t b = g.add("b", [&] { record("b"); }, {a});
    size_t c = g.add("c", [&] { record("c"); }, {a});
    size_t d = g.add("d", [&] { record("d"); }, {b, c});
    g.add("e", [&] { record("e"); }, {d});

    for (int threads : {1, 4}) {
        order.clear();
        JobGraph run = g; // statuses are per-run
        Executor ex(threads);
        ASSERT_TRUE(ex.run(run));
        EXPECT_TRUE(run.allDone());
        ASSERT_EQ(order.size(), 5u);
        auto pos = [&](const std::string &tag) {
            for (size_t i = 0; i < order.size(); ++i)
                if (order[i] == tag)
                    return i;
            return size_t(-1);
        };
        EXPECT_LT(pos("a"), pos("b"));
        EXPECT_LT(pos("a"), pos("c"));
        EXPECT_LT(pos("b"), pos("d"));
        EXPECT_LT(pos("c"), pos("d"));
        EXPECT_LT(pos("d"), pos("e"));
    }
}

TEST(JobGraph, RejectsForwardDependencies)
{
    JobGraph g;
    size_t a = g.add("a", [] {});
    EXPECT_DEATH(g.add("b", [] {}, {a + 1}), "depends on job");
}

TEST(JobGraph, FailurePropagatesToTransitiveDependents)
{
    JobGraph g;
    std::atomic<int> ran{0};
    size_t a = g.add("a", [&] { ++ran; });
    size_t boom = g.add(
        "boom", [&] { throw std::runtime_error("kaput"); }, {a});
    size_t child = g.add("child", [&] { ++ran; }, {boom});
    size_t grandchild = g.add("grandchild", [&] { ++ran; }, {child});
    size_t bystander = g.add("bystander", [&] { ++ran; }, {a});

    Executor ex(2);
    EXPECT_FALSE(ex.run(g));
    EXPECT_EQ(g.job(a).status, JobStatus::Done);
    EXPECT_EQ(g.job(boom).status, JobStatus::Failed);
    EXPECT_EQ(g.job(boom).error, "kaput");
    EXPECT_EQ(g.job(child).status, JobStatus::Skipped);
    EXPECT_EQ(g.job(grandchild).status, JobStatus::Skipped);
    EXPECT_EQ(g.job(bystander).status, JobStatus::Done);
    EXPECT_EQ(ran.load(), 2); // a and bystander only
}

// ---------------------------------------------------------------
// Executor
// ---------------------------------------------------------------

TEST(Executor, ParallelForCoversEveryIndexExactlyOnce)
{
    Executor ex(4);
    std::vector<std::atomic<int>> hits(1000);
    ex.parallelFor(hits.size(),
                   [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Executor, ParallelForRethrowsFirstError)
{
    Executor ex(4);
    EXPECT_THROW(ex.parallelFor(64,
                                [&](size_t i) {
                                    if (i == 7)
                                        throw std::runtime_error("x");
                                }),
                 std::runtime_error);
}

TEST(Executor, NestedParallelForDoesNotDeadlock)
{
    Executor ex(2);
    JobGraph g;
    std::atomic<int> total{0};
    for (int j = 0; j < 4; ++j) {
        g.add("outer" + std::to_string(j), [&] {
            ex.parallelFor(8, [&](size_t) { total.fetch_add(1); });
        });
    }
    ASSERT_TRUE(ex.run(g));
    EXPECT_EQ(total.load(), 32);
}

TEST(Executor, DeterministicAcrossThreadCounts)
{
    // Slot-ordered assembly: the result must not depend on the
    // worker count or the interleaving.
    auto compute = [](int threads) {
        Executor ex(threads);
        JobGraph g;
        std::vector<double> slots(64, 0.0);
        for (size_t j = 0; j < slots.size(); ++j) {
            g.add("slot" + std::to_string(j), [&slots, j, &ex] {
                double acc = double(j) + 1.0;
                // Each iteration writes only its own element, so the
                // nested loop shares no state between iterations.
                std::vector<double> part(16, 0.0);
                ex.parallelFor(part.size(), [&](size_t i) {
                    part[i] = double(i);
                });
                for (double p : part)
                    acc += p;
                for (int i = 0; i < 1000; ++i)
                    acc = acc * 1.0000001 + double(j % 7);
                slots[j] = acc;
            });
        }
        bool ok = ex.run(g);
        EXPECT_TRUE(ok);
        return slots;
    };
    auto serial = compute(1);
    auto wide = compute(8);
    EXPECT_EQ(serial, wide);
}

TEST(Executor, DependentsRunExactlyOnceUnderContention)
{
    // An instantly-finishing root fanning out to many dependents,
    // with independent tail work racing the wakeup: every job must
    // run exactly once regardless of which worker claims it.
    constexpr int kFan = 24;
    for (int iter = 0; iter < 10; ++iter) {
        JobGraph g;
        std::array<std::atomic<int>, 2 * kFan> counts{};
        size_t root = g.add("root", [] {});
        for (int i = 0; i < kFan; ++i)
            g.add("dep" + std::to_string(i),
                  [&counts, i] { ++counts[size_t(i)]; }, {root});
        for (int i = 0; i < kFan; ++i)
            g.add("free" + std::to_string(i),
                  [&counts, i] { ++counts[size_t(kFan + i)]; });
        Executor ex(4);
        ASSERT_TRUE(ex.run(g));
        EXPECT_TRUE(g.allDone());
        for (int i = 0; i < 2 * kFan; ++i)
            EXPECT_EQ(counts[size_t(i)].load(), 1) << "job " << i;
    }
}

TEST(Executor, WallClockAccountingIsRecorded)
{
    Executor ex(2);
    JobGraph g;
    g.add("sleepless", [] {
        volatile double x = 0;
        for (int i = 0; i < 100000; ++i)
            x = x + double(i);
    });
    ASSERT_TRUE(ex.run(g));
    EXPECT_EQ(g.job(0).status, JobStatus::Done);
    EXPECT_GE(g.job(0).wallMs, 0.0);
    EXPECT_GE(g.totalWorkMs(), g.job(0).wallMs);
}

// ---------------------------------------------------------------
// ResultStore
// ---------------------------------------------------------------

TEST(ResultStore, MissThenHit)
{
    ScratchDir scratch("store");
    ResultStore store(scratch.dir());
    auto key = driver::cpuCharKey("kmeans", core::Scale::Full, 8);

    EXPECT_FALSE(store.load(key).has_value());
    EXPECT_EQ(store.misses(), 1u);

    store.store(key, "payload-bytes");
    auto back = store.load(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, "payload-bytes");
    EXPECT_EQ(store.hits(), 1u);
}

TEST(ResultStore, KeyFieldsChangeThePath)
{
    ScratchDir scratch("keys");
    ResultStore store(scratch.dir());
    auto base = driver::cpuCharKey("kmeans", core::Scale::Full, 8);

    auto otherScale = driver::cpuCharKey("kmeans", core::Scale::Small, 8);
    auto otherThreads = driver::cpuCharKey("kmeans", core::Scale::Full, 4);
    auto otherName = driver::cpuCharKey("bfs", core::Scale::Full, 8);
    EXPECT_NE(store.pathFor(base), store.pathFor(otherScale));
    EXPECT_NE(store.pathFor(base), store.pathFor(otherThreads));
    EXPECT_NE(store.pathFor(base), store.pathFor(otherName));

    auto config = base;
    config.config = "simd=16";
    EXPECT_NE(store.pathFor(base), store.pathFor(config));

    // A GPU recipe key moves with the source digest and the version.
    auto recipe = driver::gpuRecipeKey("srad", core::Scale::Tiny, 2);
    EXPECT_EQ(recipe.config, driver::recipeSourceDigest());
    EXPECT_NE(store.pathFor(recipe),
              store.pathFor(driver::gpuRecipeKey(
                  "srad", core::Scale::Tiny, 2, "0000000000000000")));
    EXPECT_NE(store.pathFor(recipe),
              store.pathFor(driver::gpuRecipeKey(
                  "srad", core::Scale::Tiny, 1)));

    store.store(base, "one");
    EXPECT_FALSE(store.load(otherScale).has_value());
    EXPECT_FALSE(store.load(otherThreads).has_value());
}

TEST(ResultStore, VersionBumpInvalidates)
{
    ScratchDir scratch("version");
    auto key = driver::cpuCharKey("kmeans", core::Scale::Full, 8);

    ResultStore v5(scratch.dir(), true, 5);
    v5.store(key, "v5-payload");
    ASSERT_TRUE(v5.load(key).has_value());

    ResultStore v6(scratch.dir(), true, 6);
    EXPECT_FALSE(v6.load(key).has_value());
}

TEST(ResultStore, DisabledStoreNeverHits)
{
    ScratchDir scratch("disabled");
    ResultStore store(scratch.dir(), false);
    auto key = driver::cpuCharKey("kmeans", core::Scale::Full, 8);
    store.store(key, "ignored");
    EXPECT_FALSE(store.load(key).has_value());
    EXPECT_FALSE(std::filesystem::exists(store.pathFor(key)));
}

TEST(ResultStore, PublishesAtomicallyWithoutTempDroppings)
{
    ScratchDir scratch("atomic");
    ResultStore store(scratch.dir());
    auto key = driver::cpuCharKey("srad", core::Scale::Full, 8);
    store.store(key, "payload");
    // Exactly the final file, no *.tmp left behind.
    size_t files = 0;
    for (const auto &ent :
         std::filesystem::directory_iterator(scratch.dir())) {
        ++files;
        EXPECT_EQ(ent.path(), store.pathFor(key));
    }
    EXPECT_EQ(files, 1u);
}

TEST(ResultStore, ConcurrentWritersStayConsistent)
{
    ScratchDir scratch("concurrent");
    ResultStore store(scratch.dir());
    auto key = driver::cpuCharKey("lud", core::Scale::Full, 8);
    Executor ex(4);
    ex.parallelFor(32, [&](size_t) {
        store.store(key, "deterministic-payload");
    });
    auto back = store.load(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, "deterministic-payload");
}

TEST(ResultStore, FailedPublishIsCountedNotTorn)
{
    ScratchDir scratch("pubfail");
    // Occupy the store's directory path with a regular file so the
    // publish path cannot create the cache directory.
    {
        std::ofstream block(scratch.dir());
        block << "in the way";
    }
    ResultStore store(scratch.dir());
    auto key = driver::cpuCharKey("bfs", core::Scale::Full, 8);
    EXPECT_FALSE(store.store(key, "payload"));
    EXPECT_EQ(store.publishFailures(), 1u);
    // The failed publish left no entry behind — absent, not torn.
    EXPECT_FALSE(store.load(key).has_value());
}

TEST(ResultStore, DiscardDropsEntryAndReclassifiesHit)
{
    ScratchDir scratch("discard");
    ResultStore store(scratch.dir());
    auto key = driver::cpuCharKey("hotspot", core::Scale::Full, 8);
    ASSERT_TRUE(store.store(key, "corrupt-but-loadable"));
    ASSERT_TRUE(store.load(key).has_value());
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 0u);

    // The caller found the payload unusable: the entry disappears
    // and the hit that surfaced it is reclassified as a miss.
    store.discard(key);
    EXPECT_FALSE(std::filesystem::exists(store.pathFor(key)));
    EXPECT_EQ(store.hits(), 0u);
    EXPECT_EQ(store.misses(), 1u);

    // Self-healing: the recompute's store works and future loads hit.
    EXPECT_FALSE(store.load(key).has_value());
    ASSERT_TRUE(store.store(key, "fresh"));
    auto back = store.load(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, "fresh");
}

TEST(ResultStore, CpuCharRoundTripPreservesHitDepth)
{
    core::CpuCharacterization c;
    c.name = "srad";
    c.suite = core::Suite::Rodinia;
    c.threads = 4;
    c.cacheSizes = {128 * 1024};
    c.sweep.resize(1);
    auto &s = c.sweep[0];
    s.accesses = 1000;
    s.misses = 120;
    s.hitDepth = {500, 200, 100, 80, 0, 0, 0, 0};

    core::CpuCharacterization back;
    ASSERT_TRUE(driver::parseCpuChar(driver::serializeCpuChar(c), back));
    ASSERT_EQ(back.sweep.size(), 1u);
    EXPECT_EQ(back.sweep[0].hitDepth, s.hitDepth);
    // Depth-projected miss counts survive the round trip.
    EXPECT_EQ(back.sweep[0].missesAtAssoc(1), 500u);
    EXPECT_EQ(back.sweep[0].missesAtAssoc(4), s.misses);
}

TEST(ResultStore, CpuCharRoundTrip)
{
    core::CpuCharacterization c;
    c.name = "kmeans";
    c.suite = core::Suite::Rodinia;
    c.threads = 8;
    c.mix.intOps = 10;
    c.mix.fpOps = 20;
    c.mix.branches = 5;
    c.mix.loads = 7;
    c.mix.stores = 3;
    c.memEvents = 1234;
    c.instructionSites = 44;
    c.instructionBlocks = 11;
    c.dataPages = 99;
    c.checksum = 0xdeadbeef;
    c.cacheSizes = {1024, 2048};
    c.sweep.resize(2);
    c.sweep[0].accesses = 100;
    c.sweep[0].misses = 10;
    c.sweep[1].accesses = 100;
    c.sweep[1].misses = 5;

    core::CpuCharacterization back;
    ASSERT_TRUE(driver::parseCpuChar(driver::serializeCpuChar(c), back));
    EXPECT_EQ(back.name, c.name);
    EXPECT_EQ(back.threads, c.threads);
    EXPECT_EQ(back.checksum, c.checksum);
    ASSERT_EQ(back.cacheSizes.size(), 2u);
    EXPECT_EQ(back.cacheSizes[1], 2048u);
    EXPECT_EQ(back.sweep[1].misses, 5u);

    core::CpuCharacterization bad;
    EXPECT_FALSE(driver::parseCpuChar("garbage", bad));
    EXPECT_FALSE(driver::parseCpuChar("", bad));
    // Truncated payload (as a crash mid-write would have produced
    // without atomic publication) must be rejected, not half-read.
    auto full = driver::serializeCpuChar(c);
    EXPECT_FALSE(
        driver::parseCpuChar(full.substr(0, full.size() / 2), bad));
}

TEST(ResultStore, GpuRecipeRoundTrip)
{
    driver::GpuRecipe r;
    r.contentHash = 0xfedcba9876543210ull;
    r.trace.warpInstructions = 12345;
    r.trace.threadInstructions = 388000;
    r.trace.occupancyBuckets = {1, 2, 3, 4};
    r.trace.memOps = {5, 6, 7, 8, 9, 10, 11};
    std::string full = driver::serializeGpuRecipe(r);

    driver::GpuRecipe back;
    ASSERT_TRUE(driver::parseGpuRecipe(full, back));
    EXPECT_EQ(back, r);
    EXPECT_EQ(driver::serializeGpuRecipe(back), full);

    // Every proper prefix that cuts into the numbers or the end
    // marker fails, so truncation never serves shortened digits.
    driver::GpuRecipe bad;
    for (size_t n = 0; n + 1 < full.size(); ++n)
        EXPECT_FALSE(driver::parseGpuRecipe(full.substr(0, n), bad))
            << n;
    EXPECT_FALSE(driver::parseGpuRecipe("cpuchar x 1\n", bad));
}

// ---------------------------------------------------------------
// Context
// ---------------------------------------------------------------

TEST(Context, MemoizesAndCachesCharacterizations)
{
    ScratchDir scratch("ctx");
    ResultStore store(scratch.dir());
    std::string firstBytes;
    {
        driver::Context ctx(&store);
        const auto &first =
            ctx.cpu("kmeans", core::Scale::Tiny, 2);
        const auto &second =
            ctx.cpu("kmeans", core::Scale::Tiny, 2);
        EXPECT_EQ(&first, &second); // memoized, not recomputed
        EXPECT_EQ(first.name, "kmeans");
        EXPECT_EQ(first.threads, 2);
        firstBytes = driver::serializeCpuChar(first);
    }
    EXPECT_EQ(store.hits(), 0u);

    // A fresh context on the same store deserializes instead of
    // recomputing, and reproduces the computed characterization
    // byte for byte. (This round trip through the store is what
    // makes every consumer in a run see identical numbers.)
    driver::Context ctx2(&store);
    const auto &reloaded = ctx2.cpu("kmeans", core::Scale::Tiny, 2);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(driver::serializeCpuChar(reloaded), firstBytes);
}

TEST(Context, TooFewPipelineThreadsFailTheCallNotTheProcess)
{
    // dedup and ferret run a pipeline of at least 3 stages; fewer
    // threads is a bad argument to that one call. It must throw,
    // leaving the process and the Context usable, and a job making
    // the call fails with the Workload class.
    driver::Context ctx;
    EXPECT_THROW(ctx.cpu("dedup", core::Scale::Tiny, 2),
                 std::invalid_argument);

    Executor ex(1);
    JobGraph g;
    size_t id = g.add("cpu:ferret", [&] {
        ctx.cpu("ferret", core::Scale::Tiny, 2);
    });
    EXPECT_FALSE(ex.run(g));
    EXPECT_EQ(g.job(id).errorClass, driver::ErrorClass::Workload);
    EXPECT_EQ(g.job(id).attempts, 1);
    EXPECT_NE(g.job(id).error.find(
                  "ferret's pipeline needs at least 3 threads, got 2"),
              std::string::npos);

    const auto &ok = ctx.cpu("dedup", core::Scale::Tiny, 3);
    EXPECT_EQ(ok.name, "dedup");
    EXPECT_EQ(ok.threads, 3);
}

TEST(Context, TraceSpillNeedsAnEnabledStore)
{
    // A disabled store (experiments --no-cache) drops every put and
    // misses every get, so a spill sink over it would lose every
    // chunk it evicted and the decode would panic. The Context must
    // leave spilling off there, and compute what an unspilled run
    // computes.
    const char *name = "nw";
    std::string plain;
    {
        driver::Context ctx;
        plain = driver::serializeCpuChar(ctx.cpu(name, core::Scale::Tiny, 2));
    }

    const char *prev = std::getenv("RODINIA_TRACE_SPILL_CHUNKS");
    std::string saved = prev ? prev : "";
    setenv("RODINIA_TRACE_SPILL_CHUNKS", "1", 1);
    ScratchDir scratch("spill");
    uint64_t spilledBefore = trace::traceChunksSpilled();
    {
        // Over an enabled store the workload does spill, so the
        // disabled-store run below exercises the guard.
        ResultStore store(scratch.dir());
        driver::Context ctx(&store);
        EXPECT_EQ(driver::serializeCpuChar(
                      ctx.cpu(name, core::Scale::Tiny, 2)),
                  plain);
        EXPECT_GT(trace::traceChunksSpilled(), spilledBefore);
    }
    std::string disabledBytes;
    {
        ResultStore disabled(scratch.dir() / "off", false);
        driver::Context ctx(&disabled);
        disabledBytes =
            driver::serializeCpuChar(ctx.cpu(name, core::Scale::Tiny, 2));
    }
    if (prev)
        setenv("RODINIA_TRACE_SPILL_CHUNKS", saved.c_str(), 1);
    else
        unsetenv("RODINIA_TRACE_SPILL_CHUNKS");
    EXPECT_EQ(disabledBytes, plain);
}

TEST(Context, FigureRegistryIsComplete)
{
    // 17 figures: tables I+III, figs 1-12, PB, two ablations.
    EXPECT_EQ(driver::allFigures().size(), 17u);
    EXPECT_NE(driver::findFigure("fig4"), nullptr);
    EXPECT_NE(driver::findFigure("pb"), nullptr);
    EXPECT_EQ(driver::findFigure("nope"), nullptr);
    for (const auto &def : driver::allFigures()) {
        EXPECT_FALSE(def.id.empty());
        EXPECT_FALSE(def.title.empty());
        EXPECT_NE(def.build, nullptr);
    }
}

TEST(Context, FigureOrderIsThreadSafeUnderConcurrentFirstUse)
{
    Executor ex(4);
    std::atomic<size_t> sum{0};
    ex.parallelFor(64, [&](size_t) {
        sum.fetch_add(driver::figureOrder().size());
    });
    EXPECT_EQ(sum.load(), 64u * 12u);
}

TEST(Context, ParallelFigureMatchesSerialFigure)
{
    // The smallest GPU figure: ablation_coalesce records three
    // Small-scale kernels. Serial context vs pooled context must
    // render identical bytes.
    const auto *def = driver::findFigure("ablation_coalesce");
    ASSERT_NE(def, nullptr);

    driver::Context serial;
    std::string serialText = def->build(serial);

    Executor ex(4);
    driver::Context pooled(nullptr, &ex);
    std::string pooledText = def->build(pooled);

    EXPECT_FALSE(serialText.empty());
    EXPECT_EQ(serialText, pooledText);
}

// ---------------------------------------------------------------
// Context::gpuStats (memoized, store-backed timing simulation)
// ---------------------------------------------------------------

TEST(GpuStats, MemoizesWithinAProcessAndCachesAcrossProcesses)
{
    ScratchDir scratch("gpustats");
    gpusim::SimConfig cfg = gpusim::SimConfig::shaders(4);

    uint64_t sims0 = metric("gpusim.sims_run");
    uint64_t served0 = metric("gpusim.store_served");
    gpusim::KernelStats first;
    {
        ResultStore store(scratch.dir());
        driver::Context ctx(&store);
        const auto &a =
            ctx.gpuStats("kmeans", core::Scale::Tiny, 0, cfg);
        const auto &b =
            ctx.gpuStats("kmeans", core::Scale::Tiny, 0, cfg);
        EXPECT_EQ(&a, &b); // memoized, not re-simulated
        EXPECT_GT(a.cycles, 0u);
        EXPECT_EQ(metric("gpusim.store_served"), served0);
        EXPECT_EQ(metric("gpusim.sims_run") - sims0, 1u);
        first = a;
    }

    // A fresh context on the same store must serve the stats from
    // disk — zero simulations — and reproduce them byte for byte.
    ResultStore store(scratch.dir());
    driver::Context ctx2(&store);
    const auto &reloaded =
        ctx2.gpuStats("kmeans", core::Scale::Tiny, 0, cfg);
    EXPECT_EQ(metric("gpusim.store_served") - served0, 1u);
    EXPECT_EQ(metric("gpusim.sims_run") - sims0, 1u);
    EXPECT_TRUE(reloaded == first);
    EXPECT_EQ(gpusim::serializeKernelStats(reloaded),
              gpusim::serializeKernelStats(first));
}

TEST(GpuStats, DistinctConfigsSimulateSeparately)
{
    driver::Context ctx; // no store: pure memoization
    gpusim::SimConfig ca = gpusim::SimConfig::shaders(4);
    gpusim::SimConfig cb = gpusim::SimConfig::shaders(8);
    // The per-sim cycle counters are labeled by the memo key.
    std::string rec =
        "kmeans/s" + std::to_string(int(core::Scale::Tiny)) + "/v0/";
    std::string la = rec + ca.fingerprint(), lb = rec + cb.fingerprint();
    uint64_t sims0 = metric("gpusim.sims_run");
    uint64_t cyclesA0 = metric("gpusim.sim.cycles", la);
    uint64_t cyclesB0 = metric("gpusim.sim.cycles", lb);
    const auto &sa = ctx.gpuStats("kmeans", core::Scale::Tiny, 0, ca);
    const auto &sb = ctx.gpuStats("kmeans", core::Scale::Tiny, 0, cb);
    EXPECT_NE(&sa, &sb); // different fingerprint, different entry
    EXPECT_GT(sa.cycles, 0u);
    EXPECT_GT(sb.cycles, 0u);
    EXPECT_LE(sb.cycles, sa.cycles); // more shaders never slower
    EXPECT_EQ(metric("gpusim.sims_run") - sims0, 2u);
    EXPECT_EQ(metric("gpusim.sim.cycles", la) - cyclesA0, sa.cycles);
    EXPECT_EQ(metric("gpusim.sim.cycles", lb) - cyclesB0, sb.cycles);
}

TEST(Context, GpuFigureIsByteIdenticalColdVersusWarm)
{
    ScratchDir scratch("figwarm");
    const auto *def = driver::findFigure("ablation_coalesce");
    ASSERT_NE(def, nullptr);

    std::string cold;
    uint64_t sims0 = metric("gpusim.sims_run");
    uint64_t served0 = metric("gpusim.store_served");
    {
        ResultStore store(scratch.dir());
        driver::Context ctx(&store);
        cold = def->build(ctx);
        EXPECT_EQ(metric("gpusim.store_served"), served0);
        EXPECT_GT(metric("gpusim.sims_run"), sims0);
    }
    uint64_t sims1 = metric("gpusim.sims_run");

    // Warm rerun in a new process-equivalent (fresh Context), with a
    // worker pool for good measure: every simulation must come from
    // the store and the rendered figure must not change by a byte.
    ResultStore store(scratch.dir());
    Executor ex(4);
    driver::Context ctx(&store, &ex);
    std::string warm = def->build(ctx);
    EXPECT_EQ(warm, cold);
    EXPECT_GT(metric("gpusim.store_served"), served0);
    EXPECT_EQ(metric("gpusim.sims_run"), sims1);
}

TEST(Context, GpuStatsWarmProbeNeverRecordsOrSimulates)
{
    // The service's warm-lane probe: true exactly when gpuStats would
    // be served without a simulation, and it never records or
    // simulates to find out.
    ScratchDir scratch("warmprobe");
    const core::Scale tiny = core::Scale::Tiny;
    const gpusim::SimConfig cfg = gpusim::SimConfig::shaders(4);
    const gpusim::SimConfig unseen = gpusim::SimConfig::shaders(8);
    auto probe = [](driver::Context &ctx, const gpusim::SimConfig &c) {
        uint64_t rec0 = metric("gpusim.recordings");
        uint64_t sims0 = metric("gpusim.sims_run");
        bool warm = ctx.gpuStatsWarm("kmeans", core::Scale::Tiny, 0, c);
        EXPECT_EQ(metric("gpusim.recordings"), rec0);
        EXPECT_EQ(metric("gpusim.sims_run"), sims0);
        return warm;
    };
    {
        // An earlier process publishes the recipe and the stats.
        ResultStore store(scratch.dir());
        driver::Context ctx(&store);
        ctx.recipe("kmeans", tiny, 0);
        ctx.gpuStats("kmeans", tiny, 0, cfg);
    }

    ResultStore store(scratch.dir());
    driver::Context ctx(&store);
    // Nothing memoized yet: without the recipe's hash the probe
    // cannot name the stored stats entry.
    EXPECT_FALSE(probe(ctx, cfg));
    uint64_t rec0 = metric("gpusim.recordings");
    ctx.recipe("kmeans", tiny, 0); // store-served, records nothing
    EXPECT_EQ(metric("gpusim.recordings"), rec0);
    EXPECT_TRUE(probe(ctx, cfg));
    EXPECT_FALSE(probe(ctx, unseen));

    // Storeless: only the stats memo itself can make the probe true.
    driver::Context mem;
    EXPECT_FALSE(probe(mem, cfg));
    mem.gpuStats("kmeans", tiny, 0, cfg);
    EXPECT_TRUE(probe(mem, cfg));
    EXPECT_FALSE(probe(mem, unseen));
}

// ---------------------------------------------------------------
// ParallelGpuSim: concurrent timing simulations over one recording
// ---------------------------------------------------------------

namespace {

/**
 * Hand-built recording (no fiber-based recorder involved, so the
 * test is meaningful under TSan): every lane issues alternating
 * FP-ALU and strided global-load events with strictly increasing
 * order keys.
 */
gpusim::KernelRecording
syntheticRecording(int blocks, int block_dim, int events_per_lane)
{
    gpusim::KernelRecording rec;
    rec.launch.gridDim = blocks;
    rec.launch.blockDim = block_dim;
    rec.blocks.resize(size_t(blocks));
    for (int b = 0; b < blocks; ++b) {
        auto &block = rec.blocks[size_t(b)];
        block.blockDim = block_dim;
        block.lanes.resize(size_t(block_dim));
        for (int l = 0; l < block_dim; ++l) {
            auto &lane = block.lanes[size_t(l)];
            for (int e = 0; e < events_per_lane; ++e) {
                gpusim::GEvent ev;
                ev.key.hi = uint64_t(e + 1) << 48; // event "PC"
                if (e % 2 == 0) {
                    ev.op = gpusim::GOp::FpAlu;
                } else {
                    ev.op = gpusim::GOp::Load;
                    ev.space = gpusim::Space::Global;
                    ev.size = 4;
                    ev.addr = uint64_t(b * block_dim + l) * 4 +
                              uint64_t(e) * 8192;
                }
                lane.append(ev);
            }
        }
    }
    return rec;
}

} // namespace

TEST(ParallelGpuSim, ConcurrentSimulationsMatchSerial)
{
    auto rec = syntheticRecording(8, 64, 16);
    std::vector<gpusim::SimConfig> cfgs;
    for (int sms : {2, 4, 8, 16})
        cfgs.push_back(gpusim::SimConfig::shaders(sms));
    cfgs.push_back(gpusim::SimConfig::gtx280());
    cfgs.push_back(gpusim::SimConfig::gtx480(true));

    std::vector<gpusim::KernelStats> serial;
    for (const auto &c : cfgs)
        serial.push_back(gpusim::TimingSim(c).simulate(rec));

    // The same simulations fanned across a pool, all reading the one
    // shared recording, each writing its own slot — the exact shape
    // Context::gpuStats runs under figure jobs.
    Executor ex(4);
    std::vector<gpusim::KernelStats> pooled(cfgs.size());
    ex.parallelFor(cfgs.size(), [&](size_t i) {
        pooled[i] = gpusim::TimingSim(cfgs[i]).simulate(rec);
    });

    for (size_t i = 0; i < cfgs.size(); ++i)
        EXPECT_TRUE(pooled[i] == serial[i]) << "config " << i;
}

// ---------------------------------------------------------------
// GpuRecipe: recipe-keyed recordings (a warm run records nothing)
// ---------------------------------------------------------------

namespace {

/** Sets the primary figure scale for one test, restoring it after. */
class PrimaryScale
{
  public:
    explicit PrimaryScale(core::Scale s) : prev(driver::primaryScale())
    {
        driver::setPrimaryScale(s);
    }
    ~PrimaryScale() { driver::setPrimaryScale(prev); }

  private:
    core::Scale prev;
};

/** The distinct GPU dependencies of the given figures (all if none),
 *  in first-use order. */
std::vector<driver::GpuDep>
gpuDepsOf(const std::vector<std::string> &ids = {})
{
    std::vector<driver::GpuDep> deps;
    std::set<std::tuple<std::string, int, int>> seen;
    for (const auto &def : driver::allFigures()) {
        if (!ids.empty() &&
            std::find(ids.begin(), ids.end(), def.id) == ids.end())
            continue;
        for (const auto &d : def.gpuDeps)
            if (seen.insert({d.workload, int(d.scale), d.version})
                    .second)
                deps.push_back(d);
    }
    return deps;
}

/** What `experiments --figure <ids>` does in one Context: the
 *  recording jobs' recipe() calls, then each figure in order. */
std::string
runFigures(driver::Context &ctx, const std::vector<std::string> &ids)
{
    for (const auto &d : gpuDepsOf(ids))
        ctx.recipe(d.workload, d.scale, d.version);
    std::string out;
    for (const auto &id : ids)
        out += driver::findFigure(id)->build(ctx);
    return out;
}

} // namespace

TEST(GpuRecipe, WarmFiguresAreByteIdenticalAndRecordNothing)
{
    PrimaryScale tiny(core::Scale::Tiny);
    ScratchDir scratch("recipewarm");
    const std::vector<std::string> ids = {"fig1", "fig2", "fig3",
                                          "table3"};
    uint64_t rec0 = metric("gpusim.recordings");
    std::string cold;
    {
        ResultStore store(scratch.dir());
        driver::Context ctx(&store);
        cold = runFigures(ctx, ids);
    }
    // Cold: each of the 12 figure-order and 8 Table III sequences is
    // recorded exactly once, however many figures read it.
    EXPECT_EQ(metric("gpusim.recordings") - rec0, 20u);

    uint64_t rec1 = metric("gpusim.recordings");
    uint64_t served1 = metric("gpusim.recipes_served");
    uint64_t sims1 = metric("gpusim.sims_run");
    ResultStore store(scratch.dir());
    Executor ex(4);
    driver::Context ctx(&store, &ex);
    std::string warm = runFigures(ctx, ids);
    EXPECT_EQ(warm, cold);
    EXPECT_EQ(metric("gpusim.recordings"), rec1);
    EXPECT_EQ(metric("gpusim.sims_run"), sims1);
    EXPECT_EQ(metric("gpusim.recipes_served") - served1, 20u);
}

TEST(Context, ConcurrentRecipeAndStatsCallsShareOneRecording)
{
    // Sim-path (hash only) and recipe() callers race on one key: one
    // recording, one analysis, one published entry, one memo slot.
    ScratchDir scratch("recipeconcurrent");
    ResultStore store(scratch.dir());
    Executor ex(4);
    driver::Context ctx(&store, &ex);
    uint64_t rec0 = metric("gpusim.recordings");
    std::vector<const driver::GpuRecipe *> seen(16);
    ctx.parallelFor(seen.size(), [&](size_t i) {
        if (i % 2)
            ctx.gpuStats("kmeans", core::Scale::Tiny, 0,
                         gpusim::SimConfig::shaders(4));
        seen[i] = &ctx.recipe("kmeans", core::Scale::Tiny, 0);
    });
    EXPECT_EQ(metric("gpusim.recordings") - rec0, 1u);
    for (const auto *r : seen)
        EXPECT_EQ(r, seen[0]);
    auto payload =
        store.load(driver::gpuRecipeKey("kmeans", core::Scale::Tiny, 0));
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(*payload, driver::serializeGpuRecipe(*seen[0]));
}

TEST(GpuRecipe, EntryUnderAnotherSourceDigestForcesARerecord)
{
    ScratchDir scratch("recipedigest");
    ResultStore store(scratch.dir());
    // What an older build of the recorder would have published: a
    // recipe whose numbers no longer describe today's recording.
    const std::string otherDigest = "0000000000000000";
    ASSERT_NE(otherDigest, driver::recipeSourceDigest());
    driver::GpuRecipe stale;
    stale.contentHash = 0x5ca1ab1e;
    stale.trace.warpInstructions = 1;
    ASSERT_TRUE(store.store(
        driver::gpuRecipeKey("kmeans", core::Scale::Tiny, 0,
                             otherDigest),
        driver::serializeGpuRecipe(stale)));

    uint64_t rec0 = metric("gpusim.recordings");
    uint64_t served0 = metric("gpusim.recipes_served");
    driver::Context ctx(&store);
    const auto &r = ctx.recipe("kmeans", core::Scale::Tiny, 0);
    EXPECT_EQ(metric("gpusim.recordings") - rec0, 1u);
    EXPECT_EQ(metric("gpusim.recipes_served"), served0);

    auto seq = driver::recordGpuLaunch("kmeans", core::Scale::Tiny, 0);
    EXPECT_EQ(r.contentHash, gpusim::contentHash(seq));
    EXPECT_EQ(r.trace, gpusim::analyzeTrace(seq));

    // The re-record was published under the current digest, so the
    // next process serves it.
    driver::Context ctx2(&store);
    EXPECT_EQ(ctx2.recipe("kmeans", core::Scale::Tiny, 0), r);
    EXPECT_EQ(metric("gpusim.recordings") - rec0, 1u);
    EXPECT_EQ(metric("gpusim.recipes_served") - served0, 1u);
}

TEST(GpuRecipe, StoredRecipesMatchFreshRecordings)
{
    // The warm path trusts a stored hash instead of re-deriving it.
    // This oracle checks that trust for every recording the figures
    // depend on: the stored hash and trace statistics equal those of
    // a fresh recording.
    PrimaryScale tiny(core::Scale::Tiny);
    ScratchDir scratch("recipeoracle");
    auto deps = gpuDepsOf();
    ASSERT_FALSE(deps.empty());
    {
        ResultStore store(scratch.dir());
        Executor ex(4);
        driver::Context ctx(&store, &ex);
        ctx.parallelFor(deps.size(), [&](size_t i) {
            ctx.recipe(deps[i].workload, deps[i].scale, deps[i].version);
        });
    }
    ResultStore store(scratch.dir());
    for (const auto &d : deps) {
        std::string what = d.workload + "/s" +
                           std::to_string(int(d.scale)) + "/v" +
                           std::to_string(d.version);
        auto payload = store.load(
            driver::gpuRecipeKey(d.workload, d.scale, d.version));
        ASSERT_TRUE(payload.has_value()) << what;
        driver::GpuRecipe stored;
        ASSERT_TRUE(driver::parseGpuRecipe(*payload, stored)) << what;
        auto seq = driver::recordGpuLaunch(d.workload, d.scale,
                                           d.version);
        EXPECT_EQ(stored.contentHash, gpusim::contentHash(seq)) << what;
        EXPECT_EQ(stored.trace, gpusim::analyzeTrace(seq)) << what;
    }
}

TEST(RecipeCorruption, TruncatedAndGarbagePayloadsAreDiscarded)
{
    PrimaryScale tiny(core::Scale::Tiny);
    ScratchDir scratch("recipecorrupt");
    const std::vector<std::string> ids = {"fig2", "fig3"};
    const gpusim::SimConfig cfg = gpusim::SimConfig::shaders(4);
    std::string cold;
    gpusim::KernelStats coldStats;
    {
        ResultStore store(scratch.dir());
        driver::Context ctx(&store);
        cold = runFigures(ctx, ids);
        coldStats = ctx.gpuStats("kmeans", core::Scale::Tiny, 0, cfg);
    }

    ResultStore store(scratch.dir());
    auto truncated =
        store.pathFor(driver::gpuRecipeKey("bfs", core::Scale::Tiny, 0));
    auto garbled = store.pathFor(
        driver::gpuRecipeKey("kmeans", core::Scale::Tiny, 0));
    std::string bytes;
    {
        std::ifstream in(truncated, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 8u);
    {
        std::ofstream out(truncated,
                          std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, bytes.size() / 2);
    }
    {
        std::ofstream out(garbled, std::ios::binary | std::ios::trunc);
        out << "gpurecipe \x01\xff not a recipe \x7f";
    }

    uint64_t discards0 = metric("store.discards");
    uint64_t rec0 = metric("gpusim.recordings");
    uint64_t sims0 = metric("gpusim.sims_run");
    {
        driver::Context ctx(&store);
        EXPECT_EQ(runFigures(ctx, ids), cold);
        // The re-recorded kmeans hash keys the same stats entry.
        EXPECT_TRUE(ctx.gpuStats("kmeans", core::Scale::Tiny, 0, cfg) ==
                    coldStats);
    }
    EXPECT_EQ(metric("store.discards") - discards0, 2u);
    EXPECT_EQ(metric("gpusim.recordings") - rec0, 2u);
    EXPECT_EQ(metric("gpusim.sims_run"), sims0);

    // The recompute republished both entries: the next run is clean.
    driver::Context ctx(&store);
    EXPECT_EQ(runFigures(ctx, ids), cold);
    EXPECT_EQ(metric("store.discards") - discards0, 2u);
    EXPECT_EQ(metric("gpusim.recordings") - rec0, 2u);
}
