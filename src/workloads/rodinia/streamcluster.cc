#include "workloads/rodinia/streamcluster.hh"

#include "gpusim/devicemem.hh"
#include "support/rng.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "streamcluster",
    "StreamCluster",
    core::Suite::Both,
    "Dense Linear Algebra",
    "Data Mining",
    "8192 points, 32 dimensions, 6 candidates",
    "Online k-median clustering: pgain candidate-center evaluation",
    "65536 points (Table I), 64 of 256 dimensions",
};

struct ScData
{
    std::vector<float> points;  //!< n x d
    std::vector<float> weight;  //!< per-point weight
    std::vector<int> assign;    //!< current center index (a point id)
    std::vector<float> cost;    //!< current assignment cost
    std::vector<int> candidates;
};

void
makeData(const StreamCluster::Params &p, ScData &d)
{
    Rng rng(0x5C1);
    d.points.resize(size_t(p.n) * p.d);
    for (auto &v : d.points)
        v = float(rng.uniform(0.0, 1.0));
    d.weight.resize(p.n);
    for (auto &w : d.weight)
        w = float(rng.uniform(0.5, 2.0));
    // Initial assignment: everything assigned to point 0.
    d.assign.assign(p.n, 0);
    d.cost.assign(p.n, 0.0f);
    for (int i = 0; i < p.n; ++i) {
        float dist = 0.0f;
        for (int f = 0; f < p.d; ++f) {
            float diff = d.points[size_t(i) * p.d + f] -
                         d.points[size_t(0) * p.d + f];
            dist += diff * diff;
        }
        d.cost[i] = dist * d.weight[i];
    }
    d.candidates.clear();
    for (int c = 0; c < p.candidates; ++c)
        d.candidates.push_back(int(rng.below(uint64_t(p.n))));
}

} // namespace

StreamCluster::Params
StreamCluster::params(core::Scale scale)
{
    switch (scale) {
      case core::Scale::Tiny:
        return {512, 16, 4};
      case core::Scale::Small:
        return {2048, 32, 4};
      case core::Scale::Paper:
        return {65536, 64, 6};
      case core::Scale::Full:
      default:
        return {8192, 32, 6};
    }
}

const core::WorkloadInfo &
StreamCluster::info() const
{
    return kInfo;
}

void
StreamCluster::runCpu(trace::TraceSession &session, core::Scale scale)
{
    const Params p = params(scale);
    ScData d;
    makeData(p, d);
    const int nt = session.numThreads();
    std::vector<double> partialGain(nt, 0.0);

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(25 * 1024);
        const int t = ctx.tid();
        const int lo = p.n * t / nt;
        const int hi = p.n * (t + 1) / nt;

        for (int c : d.candidates) {
            partialGain[t] = 0.0;
            for (int i = lo; i < hi; ++i) {
                float dist = 0.0f;
                for (int f = 0; f < p.d; f += 4) {
                    ctx.load(&d.points[size_t(i) * p.d + f], 16);
                    ctx.load(&d.points[size_t(c) * p.d + f], 16);
                    ctx.fp(3);
                    for (int u = 0; u < 4; ++u) {
                        float diff = d.points[size_t(i) * p.d + f + u] -
                                     d.points[size_t(c) * p.d + f + u];
                        dist += diff * diff;
                    }
                }
                float w = ctx.ld(&d.weight[i]);
                float newCost = dist * w;
                float oldCost = ctx.ld(&d.cost[i]);
                ctx.fp(2);
                ctx.branch();
                if (newCost < oldCost) {
                    partialGain[t] += oldCost - newCost;
                    ctx.st(&d.assign[i], c);
                    ctx.st(&d.cost[i], newCost);
                }
            }
            ctx.barrier();
            if (t == 0) {
                double gain = 0.0;
                for (int w = 0; w < nt; ++w) {
                    ctx.load(&partialGain[w], 8);
                    gain += partialGain[w];
                    ctx.fp(1);
                }
                (void)gain;
            }
            ctx.barrier();
        }
    });

    digest = core::hashRange(d.assign.begin(), d.assign.end());
    digest = core::hashCombine(
        digest, core::hashRange(d.cost.begin(), d.cost.end()));
}

gpusim::LaunchSequence
StreamCluster::runGpu(core::Scale scale, int version)
{
    (void)version;
    const Params p = params(scale);
    ScData d;
    makeData(p, d);

    gpusim::LaunchConfig launch;
    launch.blockDim = 64;
    launch.gridDim = (p.n + launch.blockDim - 1) / launch.blockDim;

    gpusim::DeviceSpace dev;
    dev.add(d.points);
    dev.add(d.weight);
    dev.add(d.cost);
    dev.add(d.assign);

    gpusim::LaunchSequence seq;
    for (int c : d.candidates) {
        auto kernel = [&, c](gpusim::KernelCtx &ctx) {
            // Stage the candidate's coordinates in shared memory.
            auto center = ctx.shared<float>(p.d);
            if (ctx.branch(ctx.tid() < p.d))
                center.put(ctx, ctx.tid(),
                           ctx.ldg(&d.points[size_t(c) * p.d +
                                             ctx.tid()]));
            ctx.sync();

            int i = ctx.globalId();
            if (ctx.branch(i >= p.n))
                return;
            float dist = 0.0f;
            for (int f = 0; f < p.d; ++f) {
                float pv = ctx.ldg(&d.points[size_t(i) * p.d + f]);
                float cv = center.get(ctx, f);
                ctx.fp(3);
                float diff = pv - cv;
                dist += diff * diff;
            }
            float w = ctx.ldg(&d.weight[i]);
            float newCost = dist * w;
            float oldCost = ctx.ldg(&d.cost[i]);
            ctx.fp(2);
            if (ctx.branch(newCost < oldCost)) {
                ctx.stg(&d.assign[i], c);
                ctx.stg(&d.cost[i], newCost);
            }
        };
        seq.add(gpusim::recordKernel(launch, kernel, dev));
    }

    digest = core::hashRange(d.assign.begin(), d.assign.end());
    digest = core::hashCombine(
        digest, core::hashRange(d.cost.begin(), d.cost.end()));
    return seq;
}

void
registerStreamcluster()
{
    core::Registry::instance().add(
        kInfo, [] { return std::make_unique<StreamCluster>(); });
}

} // namespace workloads
} // namespace rodinia
