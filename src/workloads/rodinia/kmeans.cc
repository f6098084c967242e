#include "workloads/rodinia/kmeans.hh"

#include <cmath>

#include "gpusim/devicemem.hh"
#include "support/rng.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "kmeans",
    "Kmeans",
    core::Suite::Rodinia,
    "Dense Linear Algebra",
    "Data Mining",
    "16384 points, 16 features, 5 clusters",
    "Distance-based iterative clustering of feature vectors",
    "204800 points, 34 features (Table I), 1 iteration",
};

/** Deterministic clustered dataset: k Gaussian blobs in d dims. */
void
makeDataset(const Kmeans::Params &p, std::vector<float> &points,
            std::vector<float> &centers)
{
    Rng rng(0xC0FFEE);
    std::vector<float> trueCenters(size_t(p.k) * p.d);
    for (auto &c : trueCenters)
        c = float(rng.uniform(-10.0, 10.0));

    points.resize(size_t(p.n) * p.d);
    for (int i = 0; i < p.n; ++i) {
        int blob = int(rng.below(uint64_t(p.k)));
        for (int f = 0; f < p.d; ++f)
            points[size_t(i) * p.d + f] =
                trueCenters[size_t(blob) * p.d + f] +
                float(rng.gaussian());
    }

    // Initial centers: first k points (standard Rodinia behavior).
    centers.assign(size_t(p.k) * p.d, 0.0f);
    for (int c = 0; c < p.k; ++c)
        for (int f = 0; f < p.d; ++f)
            centers[size_t(c) * p.d + f] = points[size_t(c) * p.d + f];
}

} // namespace

Kmeans::Params
Kmeans::params(core::Scale scale)
{
    switch (scale) {
      case core::Scale::Tiny:
        return {256, 8, 4, 2};
      case core::Scale::Small:
        return {1024, 16, 5, 2};
      case core::Scale::Paper:
        return {204800, 34, 5, 1};
      case core::Scale::Full:
      default:
        return {16384, 16, 5, 2};
    }
}

const core::WorkloadInfo &
Kmeans::info() const
{
    return kInfo;
}

void
Kmeans::runCpu(trace::TraceSession &session, core::Scale scale)
{
    const Params p = params(scale);
    std::vector<float> points, centers;
    makeDataset(p, points, centers);

    membership.assign(p.n, -1);
    const int nt = session.numThreads();
    // Per-thread partial sums for the center-update reduction.
    std::vector<std::vector<double>> partialSum(
        nt, std::vector<double>(size_t(p.k) * p.d, 0.0));
    // Flat nt x k counts: one allocation, so the traced reduction
    // addresses don't depend on where nt tiny vectors landed.
    std::vector<int> partialCount(size_t(nt) * p.k, 0);

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(15 * 1024);
        const int t = ctx.tid();
        const int lo = p.n * t / nt;
        const int hi = p.n * (t + 1) / nt;

        for (int iter = 0; iter < p.iters; ++iter) {
            auto &sums = partialSum[t];
            int *counts = &partialCount[size_t(t) * p.k];
            std::fill(sums.begin(), sums.end(), 0.0);
            std::fill(counts, counts + p.k, 0);

            // Assignment phase: nearest center per point.
            for (int i = lo; i < hi; ++i) {
                float best = 1e30f;
                int bestC = 0;
                for (int c = 0; c < p.k; ++c) {
                    float dist = 0.0f;
                    // 4-wide vectorized distance accumulation.
                    for (int f = 0; f < p.d; f += 4) {
                        ctx.load(&points[size_t(i) * p.d + f], 16);
                        ctx.load(&centers[size_t(c) * p.d + f], 16);
                        ctx.fp(3);
                        for (int u = 0; u < 4 && f + u < p.d; ++u) {
                            float diff = points[size_t(i) * p.d + f + u] -
                                         centers[size_t(c) * p.d + f + u];
                            dist += diff * diff;
                        }
                    }
                    ctx.branch();
                    if (dist < best) {
                        best = dist;
                        bestC = c;
                    }
                }
                ctx.st(&membership[i], bestC);
                ctx.alu(2);
                counts[bestC]++;
                for (int f = 0; f < p.d; f += 4) {
                    ctx.load(&points[size_t(i) * p.d + f], 16);
                    ctx.store(&sums[size_t(bestC) * p.d + f], 32);
                    ctx.fp(2);
                    for (int u = 0; u < 4 && f + u < p.d; ++u)
                        sums[size_t(bestC) * p.d + f + u] +=
                            points[size_t(i) * p.d + f + u];
                }
            }

            ctx.barrier();

            // Thread 0 reduces partials into the new centers.
            if (t == 0) {
                for (int c = 0; c < p.k; ++c) {
                    int total = 0;
                    for (int w = 0; w < nt; ++w) {
                        ctx.load(&partialCount[size_t(w) * p.k + c], 4);
                        total += partialCount[size_t(w) * p.k + c];
                        ctx.alu(1);
                    }
                    if (total == 0)
                        continue;
                    for (int f = 0; f < p.d; ++f) {
                        double s = 0.0;
                        for (int w = 0; w < nt; ++w) {
                            ctx.load(&partialSum[w][size_t(c) * p.d + f],
                                     8);
                            s += partialSum[w][size_t(c) * p.d + f];
                            ctx.fp(1);
                        }
                        float v = float(s / total);
                        ctx.store(&centers[size_t(c) * p.d + f], 4);
                        centers[size_t(c) * p.d + f] = v;
                    }
                }
            }

            ctx.barrier();
        }
    });

    digest = core::hashRange(membership.begin(), membership.end());
    digest = core::hashCombine(
        digest, core::hashRange(centers.begin(), centers.end()));
}

gpusim::LaunchSequence
Kmeans::runGpu(core::Scale scale, int version)
{
    (void)version;
    const Params p = params(scale);
    std::vector<float> points, centers;
    makeDataset(p, points, centers);
    membership.assign(p.n, -1);

    // Feature-major layout so lane f-accesses coalesce, as in the
    // Rodinia CUDA port.
    std::vector<float> pointsT(size_t(p.d) * p.n);
    for (int i = 0; i < p.n; ++i)
        for (int f = 0; f < p.d; ++f)
            pointsT[size_t(f) * p.n + i] = points[size_t(i) * p.d + f];

    gpusim::DeviceSpace dev;
    dev.add(pointsT);
    dev.add(centers);
    dev.add(membership);

    gpusim::LaunchSequence seq;
    const int blockDim = 128;
    gpusim::LaunchConfig launch;
    launch.blockDim = blockDim;
    launch.gridDim = (p.n + blockDim - 1) / blockDim;

    for (int iter = 0; iter < p.iters; ++iter) {
        // Assignment kernel: one thread per point, centers in
        // texture memory.
        auto rec = gpusim::recordKernel(launch, [&](gpusim::KernelCtx
                                                        &ctx) {
            int i = ctx.globalId();
            if (ctx.branch(i >= p.n))
                return;
            float best = 1e30f;
            int bestC = 0;
            for (int c = 0; c < p.k; ++c) {
                float dist = 0.0f;
                for (int f = 0; f < p.d; ++f) {
                    // Rodinia binds the feature array (and centers)
                    // to texture memory.
                    float pv = ctx.ldt(&pointsT[size_t(f) * p.n + i]);
                    float cv = ctx.ldt(&centers[size_t(c) * p.d + f]);
                    ctx.fp(3);
                    float diff = pv - cv;
                    dist += diff * diff;
                }
                if (ctx.branch(dist < best)) {
                    best = dist;
                    bestC = c;
                }
            }
            ctx.stg(&membership[i], bestC);
        }, dev);
        seq.add(std::move(rec));

        // Center update on the host (as Rodinia does): recompute
        // from memberships, no kernel recorded.
        std::vector<double> sums(size_t(p.k) * p.d, 0.0);
        std::vector<int> counts(p.k, 0);
        for (int i = 0; i < p.n; ++i) {
            int c = membership[i];
            counts[c]++;
            for (int f = 0; f < p.d; ++f)
                sums[size_t(c) * p.d + f] += points[size_t(i) * p.d + f];
        }
        for (int c = 0; c < p.k; ++c) {
            if (!counts[c])
                continue;
            for (int f = 0; f < p.d; ++f)
                centers[size_t(c) * p.d + f] =
                    float(sums[size_t(c) * p.d + f] / counts[c]);
        }
    }

    digest = core::hashRange(membership.begin(), membership.end());
    digest = core::hashCombine(
        digest, core::hashRange(centers.begin(), centers.end()));
    return seq;
}

void
registerKmeans()
{
    core::Registry::instance().add(
        kInfo, [] { return std::make_unique<Kmeans>(); });
}

} // namespace workloads
} // namespace rodinia
