#include "workloads/parsec/parsec.hh"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "support/rng.hh"
#include "workloads/parsec/pipeline.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "ferret",
    "Ferret",
    core::Suite::Parsec,
    "MapReduce",
    "Similarity Search",
    "256 queries vs 8192-image index, 4-stage pipeline",
    "Pipelined content-based similarity search with LSH probing",
    "32768 images, 256 queries",
};

constexpr int kDim = 64;
constexpr int kTables = 8;
constexpr int kCandidates = 48;

struct Query
{
    int id;
    std::vector<float> feature;
};

struct Probed
{
    int id;
    std::vector<float> feature;
    std::vector<int> candidates;
};

} // namespace

const core::WorkloadInfo &
Ferret::info() const
{
    return kInfo;
}

void
Ferret::runCpu(trace::TraceSession &session, core::Scale scale)
{
    int dbSize, queries;
    switch (scale) {
      case core::Scale::Tiny:
        dbSize = 1024;
        queries = 32;
        break;
      case core::Scale::Small:
        dbSize = 4096;
        queries = 128;
        break;
      case core::Scale::Paper:
        dbSize = 32768;
        queries = 256;
        break;
      default:
        dbSize = 8192;
        queries = 256;
        break;
    }
    const int nt = session.numThreads();
    if (nt < 3)
        throw std::invalid_argument(
            "ferret's pipeline needs at least 3 threads, got " +
            std::to_string(nt));

    Rng rng(0xFE44E7);
    // Image database: feature vectors plus LSH hyperplanes/buckets.
    std::vector<float> db(size_t(dbSize) * kDim);
    for (auto &v : db)
        v = float(rng.gaussian());
    std::vector<float> planes(size_t(kTables) * kDim);
    for (auto &v : planes)
        v = float(rng.gaussian());

    constexpr int kBuckets = 256;
    auto hashOf = [&](const float *vec, int table) {
        // 8 sign bits from shifted dot products with one hyperplane.
        unsigned h = 0;
        for (int b = 0; b < 8; ++b) {
            double dot = 0.0;
            for (int f = 0; f < kDim; f += 8)
                dot += vec[f] * planes[size_t(table) * kDim +
                                       (f + b) % kDim];
            if (dot > 0.0)
                h |= 1u << b;
        }
        return h;
    };
    // Hash tables in CSR form (two flat arrays instead of one small
    // heap block per bucket): the probed addresses then live in two
    // fixed allocations whose internal layout is the same every run.
    const size_t nBuckets = size_t(kTables) * kBuckets;
    std::vector<int> bucketStart(nBuckets + 1, 0);
    std::vector<int> bucketItems(size_t(dbSize) * kTables);
    for (int i = 0; i < dbSize; ++i)
        for (int tb = 0; tb < kTables; ++tb)
            ++bucketStart[size_t(tb) * kBuckets +
                          hashOf(&db[size_t(i) * kDim], tb) + 1];
    for (size_t b = 0; b < nBuckets; ++b)
        bucketStart[b + 1] += bucketStart[b];
    {
        std::vector<int> fill(bucketStart.begin(),
                              bucketStart.end() - 1);
        for (int i = 0; i < dbSize; ++i)
            for (int tb = 0; tb < kTables; ++tb)
                bucketItems[size_t(
                    fill[size_t(tb) * kBuckets +
                         hashOf(&db[size_t(i) * kDim], tb)]++)] = i;
    }

    // Deterministic pipeline lanes: queries are routed to extract
    // lane (id % lanes), and lane L's extractor feeds lane L's ranker
    // through a single-producer single-consumer queue. Every thread's
    // arrival order is then a pure function of the query stream
    // instead of cross-thread pop timing.
    const int lanes = (nt - 1) / 2;
    std::vector<std::unique_ptr<BoundedQueue<Query>>> extractQ;
    std::vector<std::unique_ptr<BoundedQueue<Probed>>> rankQ;
    for (int l = 0; l < lanes; ++l) {
        extractQ.push_back(std::make_unique<BoundedQueue<Query>>(64));
        rankQ.push_back(std::make_unique<BoundedQueue<Probed>>(64));
    }
    std::vector<int> best(queries, -1);

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(150 * 1024);
        const int t = ctx.tid();

        if (t == 0) {
            // Stage 1: synthesize/segment query images.
            Rng qrng(0x9E44);
            for (int q = 0; q < queries; ++q) {
                Query qu;
                qu.id = q;
                qu.feature.resize(kDim);
                int base = int(qrng.below(uint64_t(dbSize)));
                for (int f = 0; f < kDim; ++f) {
                    ctx.load(&db[size_t(base) * kDim + f], 4);
                    ctx.fp(2);
                    qu.feature[f] = db[size_t(base) * kDim + f] +
                                    0.1f * float(qrng.gaussian());
                }
                extractQ[size_t(q % lanes)]->push(std::move(qu));
            }
            for (int l = 0; l < lanes; ++l)
                extractQ[size_t(l)]->close();
        } else if (t <= lanes) {
            // Stage 2: feature normalization + LSH index probe.
            const int lane = t - 1;
            while (auto q = extractQ[size_t(lane)]->pop()) {
                float norm = 0.0f;
                for (int f = 0; f < kDim; ++f) {
                    ctx.fp(2);
                    norm += q->feature[f] * q->feature[f];
                }
                norm = std::sqrt(norm) + 1e-6f;
                for (int f = 0; f < kDim; ++f)
                    q->feature[f] /= norm;
                ctx.fp(kDim + 2);

                Probed pr;
                pr.id = q->id;
                pr.feature = q->feature;
                for (int tb = 0; tb < kTables; ++tb) {
                    ctx.load(&planes[size_t(tb) * kDim], 16);
                    ctx.fp(2 * kDim);
                    unsigned h = hashOf(q->feature.data(), tb);
                    size_t b = size_t(tb) * kBuckets + h;
                    for (int k = bucketStart[b];
                         k < bucketStart[b + 1]; ++k) {
                        int cand = bucketItems[size_t(k)];
                        ctx.load(&bucketItems[size_t(k)], 4);
                        ctx.branch();
                        if (int(pr.candidates.size()) < kCandidates)
                            pr.candidates.push_back(cand);
                    }
                }
                rankQ[size_t(lane)]->push(std::move(pr));
            }
            rankQ[size_t(lane)]->close();
        } else if (t <= 2 * lanes) {
            // Stage 3: rank this lane's candidates by true distance.
            const int lane = t - 1 - lanes;
            while (auto pr = rankQ[size_t(lane)]->pop()) {
                float bestDist = 1e30f;
                int bestId = -1;
                for (int cand : pr->candidates) {
                    float dist = 0.0f;
                    for (int f = 0; f < kDim; f += 4) {
                        ctx.load(&db[size_t(cand) * kDim + f], 16);
                        ctx.fp(3);
                        for (int u = 0; u < 4; ++u) {
                            float d = db[size_t(cand) * kDim + f + u] -
                                      pr->feature[f + u];
                            dist += d * d;
                        }
                    }
                    ctx.branch();
                    if (dist < bestDist) {
                        bestDist = dist;
                        bestId = cand;
                    }
                }
                best[pr->id] = bestId;
                ctx.store(&best[pr->id], 4);
            }
        }
        // Stage 4: output aggregation once the pipeline drains (any
        // thread beyond the lane pairs, e.g. t = 7 of 8).
        ctx.barrier();
        if (t == 2 * lanes + 1) {
            for (int q = 0; q < queries; ++q) {
                ctx.load(&best[q], 4);
                ctx.alu(1);
            }
        }
    });

    digest = core::hashRange(best.begin(), best.end());
}

void
registerFerret()
{
    core::Registry::instance().add(
        kInfo, [] { return std::make_unique<Ferret>(); });
}

} // namespace workloads
} // namespace rodinia
