/**
 * @file
 * Functional-correctness tests for the Rodinia workloads.
 *
 * The strongest checks cross-validate the independently written CPU
 * and GPU implementations of each benchmark on identical inputs: a
 * matching output digest means the SIMT recorder's fiber execution,
 * shared-memory semantics, and barrier ordering all computed the
 * same answer as the multithreaded CPU code. Reference
 * implementations validate the algorithms themselves.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/characterize.hh"
#include "support/rng.hh"
#include "core/workload.hh"
#include "workloads/rodinia/bfs.hh"
#include "workloads/rodinia/hotspot.hh"
#include "workloads/rodinia/kmeans.hh"
#include "workloads/rodinia/lud.hh"
#include "workloads/rodinia/mummer.hh"
#include "workloads/rodinia/nw.hh"
#include "workloads/rodinia/srad.hh"
#include "workloads/rodinia/streamcluster.hh"

using namespace rodinia;
using namespace rodinia::core;
using namespace rodinia::workloads;

namespace {

/** Digest of the CPU implementation at the given scale. */
uint64_t
cpuDigest(Workload &w, Scale scale, int threads = 4)
{
    trace::TraceSession session(threads, false);
    w.runCpu(session, scale);
    return w.checksum();
}

/** Digest of the GPU implementation at the given scale. */
uint64_t
gpuDigest(Workload &w, Scale scale, int version = 1)
{
    w.runGpu(scale, version);
    return w.checksum();
}

} // namespace

TEST(RegistrySuite, AllWorkloadsRegistered)
{
    registerAllWorkloads();
    auto &reg = Registry::instance();
    EXPECT_EQ(reg.names(Suite::Rodinia).size(), 12u);
    EXPECT_EQ(reg.names(Suite::Parsec).size(), 13u);
    EXPECT_TRUE(reg.has("kmeans"));
    EXPECT_TRUE(reg.has("streamcluster"));
    EXPECT_FALSE(reg.has("doesnotexist"));
}

TEST(RegistrySuite, MetadataMatchesTableOne)
{
    registerAllWorkloads();
    auto &reg = Registry::instance();
    auto km = reg.create("kmeans");
    EXPECT_EQ(km->info().dwarf, "Dense Linear Algebra");
    EXPECT_EQ(km->info().domain, "Data Mining");
    auto bfs = reg.create("bfs");
    EXPECT_EQ(bfs->info().dwarf, "Graph Traversal");
    auto hw = reg.create("heartwall");
    EXPECT_EQ(hw->info().domain, "Medical Imaging");
}

TEST(KmeansTest, CpuAndGpuAgree)
{
    Kmeans a, b;
    EXPECT_EQ(cpuDigest(a, Scale::Tiny),
              gpuDigest(b, Scale::Tiny));
}

TEST(KmeansTest, ConvergesToDistinctClusters)
{
    Kmeans k;
    trace::TraceSession session(4, false);
    k.runCpu(session, Scale::Tiny);
    auto p = Kmeans::params(Scale::Tiny);
    // Every cluster id in range; more than one cluster used.
    std::vector<int> used(p.k, 0);
    for (int m : k.memberships()) {
        ASSERT_GE(m, 0);
        ASSERT_LT(m, p.k);
        used[m] = 1;
    }
    int distinct = 0;
    for (int u : used)
        distinct += u;
    EXPECT_GT(distinct, 1);
}

TEST(NwTest, CpuMatchesBothGpuVersions)
{
    NeedlemanWunsch a, b, c;
    uint64_t cpu = cpuDigest(a, Scale::Tiny);
    EXPECT_EQ(cpu, gpuDigest(b, Scale::Tiny, 1));
    EXPECT_EQ(cpu, gpuDigest(c, Scale::Tiny, 2));
}

TEST(NwTest, ScoreBoundedByPerfectMatch)
{
    NeedlemanWunsch w;
    cpuDigest(w, Scale::Tiny);
    auto p = NeedlemanWunsch::params(Scale::Tiny);
    EXPECT_LE(w.finalScore(), 5 * p.n);
    EXPECT_GE(w.finalScore(), -2 * p.penalty * p.n);
}

TEST(HotspotTest, CpuMatchesReference)
{
    HotSpot w;
    uint64_t cpu = cpuDigest(w, Scale::Tiny);
    auto ref = HotSpot::reference(HotSpot::params(Scale::Tiny));
    EXPECT_EQ(cpu, core::hashRange(ref.begin(), ref.end()));
}

TEST(HotspotTest, GpuMatchesReference)
{
    HotSpot w;
    uint64_t gpu = gpuDigest(w, Scale::Tiny);
    auto ref = HotSpot::reference(HotSpot::params(Scale::Tiny));
    EXPECT_EQ(gpu, core::hashRange(ref.begin(), ref.end()));
}

TEST(SradTest, CpuMatchesReference)
{
    Srad w;
    uint64_t cpu = cpuDigest(w, Scale::Tiny);
    auto ref = Srad::reference(Srad::params(Scale::Tiny));
    EXPECT_EQ(cpu, core::hashRange(ref.begin(), ref.end()));
}

TEST(SradTest, BothGpuVersionsMatchReference)
{
    auto ref = Srad::reference(Srad::params(Scale::Tiny));
    uint64_t expect = core::hashRange(ref.begin(), ref.end());
    Srad v1, v2;
    EXPECT_EQ(gpuDigest(v1, Scale::Tiny, 1), expect);
    EXPECT_EQ(gpuDigest(v2, Scale::Tiny, 2), expect);
}

TEST(BfsTest, CpuMatchesSequentialReference)
{
    Bfs w;
    uint64_t cpu = cpuDigest(w, Scale::Tiny);
    auto p = Bfs::params(Scale::Tiny);
    auto g = BfsGraph::random(p.nodes, p.avgDegree, 0xBF5);
    auto ref = Bfs::reference(g, 0);
    EXPECT_EQ(cpu, core::hashRange(ref.begin(), ref.end()));
}

TEST(BfsTest, GpuMatchesSequentialReference)
{
    Bfs w;
    uint64_t gpu = gpuDigest(w, Scale::Tiny);
    auto p = Bfs::params(Scale::Tiny);
    auto g = BfsGraph::random(p.nodes, p.avgDegree, 0xBF5);
    auto ref = Bfs::reference(g, 0);
    EXPECT_EQ(gpu, core::hashRange(ref.begin(), ref.end()));
}

TEST(StreamclusterTest, CpuAndGpuAgree)
{
    StreamCluster a, b;
    EXPECT_EQ(cpuDigest(a, Scale::Tiny), gpuDigest(b, Scale::Tiny));
}

TEST(LudTest, FactorizationReconstructsMatrix)
{
    // Validate A = L * U for both the CPU and the blocked GPU paths.
    for (int version : {0, 1, 2}) {
        Lud w;
        auto p = Lud::params(Scale::Tiny);
        if (version == 0) {
            trace::TraceSession session(4, false);
            w.runCpu(session, Scale::Tiny);
        } else {
            w.runGpu(Scale::Tiny, version);
        }
        const auto &lu = w.result();
        auto a = Lud::makeMatrix(p.n);
        const int n = p.n;
        double maxErr = 0.0;
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) {
                double acc = 0.0;
                for (int k = 0; k <= std::min(i, j); ++k) {
                    double l = k == i ? 1.0 : lu[size_t(i) * n + k];
                    double u = lu[size_t(k) * n + j];
                    acc += l * u;
                }
                maxErr = std::max(
                    maxErr, std::fabs(acc - a[size_t(i) * n + j]));
            }
        }
        EXPECT_LT(maxErr, 1e-2) << "version " << version;
    }
}

TEST(LudTest, CpuMatchesUnblockedGpu)
{
    Lud a, b;
    EXPECT_EQ(cpuDigest(a, Scale::Tiny), gpuDigest(b, Scale::Tiny, 1));
}

TEST(SuffixTreeTest, MatchesNaiveSearch)
{
    Rng rng(4242);
    for (int trial = 0; trial < 20; ++trial) {
        int n = 50 + int(rng.below(200));
        std::vector<uint8_t> text(n + 1);
        for (int i = 0; i < n; ++i)
            text[i] = uint8_t(rng.below(4));
        text[n] = SuffixTree::kTerm;
        SuffixTree tree(text);

        for (int q = 0; q < 20; ++q) {
            int qlen = 1 + int(rng.below(20));
            std::vector<uint8_t> query(qlen);
            for (auto &c : query)
                c = uint8_t(rng.below(4));

            // Naive longest-prefix-occurring-in-text.
            int best = 0;
            for (int s = 0; s < n; ++s) {
                int l = 0;
                while (l < qlen && s + l < n &&
                       text[s + l] == query[l])
                    ++l;
                best = std::max(best, l);
            }
            EXPECT_EQ(tree.matchLength(query.data(), qlen), best)
                << "trial " << trial << " query " << q;
        }
    }
}

TEST(SuffixTreeTest, ExactSubstringsFullyMatch)
{
    Rng rng(7);
    std::vector<uint8_t> text(301);
    for (int i = 0; i < 300; ++i)
        text[i] = uint8_t(rng.below(4));
    text[300] = SuffixTree::kTerm;
    SuffixTree tree(text);
    for (int s = 0; s < 280; s += 13) {
        std::vector<uint8_t> q(text.begin() + s, text.begin() + s + 20);
        EXPECT_EQ(tree.matchLength(q.data(), 20), 20);
    }
}

TEST(MummerTest, CpuAndGpuAgree)
{
    Mummer a, b;
    EXPECT_EQ(cpuDigest(a, Scale::Tiny), gpuDigest(b, Scale::Tiny));
}

/** Every Rodinia workload runs at Tiny scale on both targets. */
class RodiniaSmoke : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RodiniaSmoke, CpuRunsAndChecksums)
{
    registerAllWorkloads();
    auto w = Registry::instance().create(GetParam());
    trace::TraceSession session(4, true);
    w->runCpu(session, Scale::Tiny);
    EXPECT_GT(session.totalMix().total(), 0u);
    EXPECT_GT(session.totalEvents(), 0u);
    EXPECT_NE(w->checksum(), 0u);
}

TEST_P(RodiniaSmoke, GpuRunsDeterministically)
{
    registerAllWorkloads();
    auto w = Registry::instance().create(GetParam());
    ASSERT_GE(w->gpuVersions(), 1);
    auto seq1 = w->runGpu(Scale::Tiny, 1);
    uint64_t d1 = w->checksum();
    auto w2 = Registry::instance().create(GetParam());
    auto seq2 = w2->runGpu(Scale::Tiny, 1);
    EXPECT_EQ(d1, w2->checksum());
    EXPECT_EQ(seq1.threadInstructions(), seq2.threadInstructions());
    EXPECT_GT(seq1.threadInstructions(), 0u);
    // Both runs record canonical device addresses, so the second
    // run's different heap layout must not reach the digest.
    EXPECT_EQ(gpusim::contentHash(seq1), gpusim::contentHash(seq2));
}

INSTANTIATE_TEST_SUITE_P(
    AllRodinia, RodiniaSmoke,
    ::testing::Values("kmeans", "nw", "hotspot", "backprop", "srad",
                      "leukocyte", "bfs", "streamcluster", "mummer",
                      "cfd", "lud", "heartwall"),
    [](const auto &info) { return info.param; });
