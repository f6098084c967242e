#include "workloads/rodinia/backprop.hh"

#include <cmath>

#include "gpusim/devicemem.hh"
#include "support/rng.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "backprop",
    "Back Propagation",
    core::Suite::Rodinia,
    "Unstructured Grid",
    "Pattern Recognition",
    "4096 input nodes",
    "One training pass of a two-layer perceptron",
    "65536 input nodes (Table I)",
};

constexpr int kTile = 16;

inline float
sigmoid(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

struct Net
{
    std::vector<float> x;   //!< input activations
    std::vector<float> w1;  //!< inputs x hidden
    std::vector<float> w2;  //!< hidden
    std::vector<float> hid; //!< hidden activations
    float target = 0.8f;
};

void
makeNet(const BackProp::Params &p, Net &net)
{
    Rng rng(0xBAC4);
    net.x.resize(p.inputs);
    net.w1.resize(size_t(p.inputs) * p.hidden);
    net.w2.resize(p.hidden);
    net.hid.assign(p.hidden, 0.0f);
    for (auto &v : net.x)
        v = float(rng.uniform(0.0, 1.0));
    for (auto &v : net.w1)
        v = float(rng.uniform(-0.5, 0.5));
    for (auto &v : net.w2)
        v = float(rng.uniform(-0.5, 0.5));
}

} // namespace

BackProp::Params
BackProp::params(core::Scale scale)
{
    switch (scale) {
      case core::Scale::Tiny:
        return {256, 16, 0.3f};
      case core::Scale::Small:
        return {1024, 16, 0.3f};
      case core::Scale::Paper:
        return {65536, 16, 0.3f};
      case core::Scale::Full:
      default:
        return {4096, 16, 0.3f};
    }
}

const core::WorkloadInfo &
BackProp::info() const
{
    return kInfo;
}

void
BackProp::runCpu(trace::TraceSession &session, core::Scale scale)
{
    const Params p = params(scale);
    Net net;
    makeNet(p, net);
    const int nt = session.numThreads();
    std::vector<std::vector<float>> partial(
        nt, std::vector<float>(p.hidden, 0.0f));
    float out = 0.0f;
    float deltaOut = 0.0f;
    std::vector<float> deltaHid(p.hidden, 0.0f);

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(10 * 1024);
        const int t = ctx.tid();
        const int lo = p.inputs * t / nt;
        const int hi = p.inputs * (t + 1) / nt;

        // Forward: partial weighted sums into the hidden layer.
        auto &sums = partial[t];
        for (int i = lo; i < hi; ++i) {
            float xi = ctx.ld(&net.x[i]);
            for (int h = 0; h < p.hidden; h += 4) {
                ctx.load(&net.w1[size_t(i) * p.hidden + h], 16);
                ctx.store(&sums[h], 16);
                ctx.fp(2);
                for (int u = 0; u < 4; ++u)
                    sums[h + u] += xi * net.w1[size_t(i) * p.hidden + h +
                                               u];
            }
        }
        ctx.barrier();

        if (t == 0) {
            // Reduce partials, apply the activation, finish forward.
            for (int h = 0; h < p.hidden; ++h) {
                float s = 0.0f;
                for (int w = 0; w < nt; ++w) {
                    ctx.load(&partial[w][h], 4);
                    ctx.fp(1);
                    s += partial[w][h];
                }
                net.hid[h] = sigmoid(s);
                ctx.fp(4);
                ctx.store(&net.hid[h], 4);
            }
            float o = 0.0f;
            for (int h = 0; h < p.hidden; ++h) {
                ctx.load(&net.hid[h], 4);
                ctx.load(&net.w2[h], 4);
                ctx.fp(2);
                o += net.hid[h] * net.w2[h];
            }
            out = sigmoid(o);
            deltaOut = (net.target - out) * out * (1.0f - out);
            ctx.fp(8);
            for (int h = 0; h < p.hidden; ++h) {
                deltaHid[h] = net.hid[h] * (1.0f - net.hid[h]) *
                              net.w2[h] * deltaOut;
                ctx.fp(4);
                net.w2[h] += p.eta * deltaOut * net.hid[h];
                ctx.store(&net.w2[h], 4);
            }
        }
        ctx.barrier();

        // Backward: update the input-to-hidden weights.
        for (int i = lo; i < hi; ++i) {
            float xi = ctx.ld(&net.x[i]);
            for (int h = 0; h < p.hidden; h += 4) {
                ctx.load(&net.w1[size_t(i) * p.hidden + h], 16);
                ctx.load(&deltaHid[h], 16);
                ctx.fp(3);
                for (int u = 0; u < 4; ++u)
                    net.w1[size_t(i) * p.hidden + h + u] +=
                        p.eta * deltaHid[h + u] * xi;
                ctx.store(&net.w1[size_t(i) * p.hidden + h], 16);
            }
        }
    });

    digest = core::hashRange(net.w1.begin(), net.w1.end());
    digest = core::hashCombine(digest, uint64_t(out * 1e6f));
}

gpusim::LaunchSequence
BackProp::runGpu(core::Scale scale, int version)
{
    (void)version;
    const Params p = params(scale);
    Net net;
    makeNet(p, net);

    const int numTiles = p.inputs / kTile;
    std::vector<float> partialOut(size_t(numTiles) * p.hidden, 0.0f);

    gpusim::LaunchConfig launch;
    launch.gridDim = numTiles;
    launch.blockDim = kTile * kTile;

    gpusim::DeviceSpace dev;
    dev.add(net.x);
    dev.add(net.w1);
    dev.add(partialOut);

    gpusim::LaunchSequence seq;

    // Forward kernel: per-tile multiply plus shared tree reduction.
    auto forward = [&](gpusim::KernelCtx &ctx) {
        const int tile = ctx.blockIdx();
        const int ty = ctx.tid() / kTile; // input index within tile
        const int tx = ctx.tid() % kTile; // hidden unit
        const int i = tile * kTile + ty;

        auto inputNode = ctx.shared<float>(kTile);
        auto weight = ctx.shared<float>(size_t(kTile) * kTile);

        if (ctx.branch(tx == 0))
            inputNode.put(ctx, ty, ctx.ldg(&net.x[i]));
        ctx.sync();

        float w = ctx.ldg(&net.w1[size_t(i) * p.hidden + tx]);
        ctx.fp(1);
        weight.put(ctx, size_t(ty) * kTile + tx,
                   w * inputNode.get(ctx, ty));
        ctx.sync();

        // Tree reduction along ty: active lanes halve per step
        // (8, 4, 2, 1), the paper's warp-underutilization pattern.
        for (int step = 1; step <= 4; ++step) {
            gpusim::LoopIter li(ctx, step);
            int stride = 1 << step;
            if (ctx.branch(ty % stride == 0)) {
                float a = weight.get(ctx, size_t(ty) * kTile + tx);
                float b = weight.get(
                    ctx, size_t(ty + stride / 2) * kTile + tx);
                ctx.fp(1);
                weight.put(ctx, size_t(ty) * kTile + tx, a + b);
            }
            ctx.sync();
        }

        if (ctx.branch(ty == 0))
            ctx.stg(&partialOut[size_t(tile) * p.hidden + tx],
                    weight.get(ctx, tx));
    };
    seq.add(gpusim::recordKernel(launch, forward, dev));

    // Host: finish the forward pass and compute the deltas.
    float out = 0.0f;
    std::vector<float> deltaHid(p.hidden, 0.0f);
    {
        for (int h = 0; h < p.hidden; ++h) {
            float s = 0.0f;
            for (int tile = 0; tile < numTiles; ++tile)
                s += partialOut[size_t(tile) * p.hidden + h];
            net.hid[h] = sigmoid(s);
        }
        float o = 0.0f;
        for (int h = 0; h < p.hidden; ++h)
            o += net.hid[h] * net.w2[h];
        out = sigmoid(o);
        float deltaOut = (net.target - out) * out * (1.0f - out);
        for (int h = 0; h < p.hidden; ++h) {
            deltaHid[h] = net.hid[h] * (1.0f - net.hid[h]) * net.w2[h] *
                          deltaOut;
            net.w2[h] += p.eta * deltaOut * net.hid[h];
        }
    }

    dev.add(deltaHid);

    // Backward kernel: coalesced weight updates.
    auto adjust = [&](gpusim::KernelCtx &ctx) {
        const int tile = ctx.blockIdx();
        const int ty = ctx.tid() / kTile;
        const int tx = ctx.tid() % kTile;
        const int i = tile * kTile + ty;

        float xi = ctx.ldg(&net.x[i]);
        float dh = ctx.ldc(&deltaHid[tx]);
        float w = ctx.ldg(&net.w1[size_t(i) * p.hidden + tx]);
        ctx.fp(3);
        ctx.stg(&net.w1[size_t(i) * p.hidden + tx],
                w + p.eta * dh * xi);
    };
    seq.add(gpusim::recordKernel(launch, adjust, dev));

    digest = core::hashRange(net.w1.begin(), net.w1.end());
    digest = core::hashCombine(digest, uint64_t(out * 1e6f));
    return seq;
}

void
registerBackprop()
{
    core::Registry::instance().add(
        kInfo, [] { return std::make_unique<BackProp>(); });
}

} // namespace workloads
} // namespace rodinia
