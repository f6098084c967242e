#include "workloads/rodinia/leukocyte.hh"

#include <cmath>

#include "gpusim/devicemem.hh"
#include "support/rng.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "leukocyte",
    "Leukocyte Tracking",
    core::Suite::Rodinia,
    "Structured Grid",
    "Medical Imaging",
    "160x320 pixels/frame",
    "GICOV cell detection with circle sampling and dilation",
    "219x640 frame (Table I)",
};

struct LcData
{
    std::vector<float> image;
    std::vector<float> sinT, cosT, weightT; //!< constant tables
    std::vector<int> dy, dx;                //!< sample offsets
    std::vector<float> score;
    std::vector<float> dilated;
};

void
makeData(const Leukocyte::Params &p, LcData &d)
{
    Rng rng(0x1E0C);
    d.image.resize(size_t(p.rows) * p.cols);
    for (auto &v : d.image)
        v = float(rng.uniform(0.0, 255.0));

    // The sample tables are tiny (8 floats at full scale) and their
    // addresses are traced; reserve at least a cache line so the
    // allocation crosses the page-alignment threshold and the tables
    // never share a page with an unrelated allocation.
    const size_t tableCap = std::max<size_t>(p.samples, 16);
    d.sinT.reserve(tableCap);
    d.cosT.reserve(tableCap);
    d.weightT.reserve(tableCap);
    d.sinT.resize(p.samples);
    d.cosT.resize(p.samples);
    d.weightT.resize(p.samples);
    d.dy.resize(p.samples);
    d.dx.resize(p.samples);
    for (int s = 0; s < p.samples; ++s) {
        double a = 2.0 * 3.14159265358979 * s / p.samples;
        d.sinT[s] = float(std::sin(a));
        d.cosT[s] = float(std::cos(a));
        d.weightT[s] = float(rng.uniform(0.5, 1.5));
        d.dy[s] = int(std::lround((p.margin - 1) * std::sin(a)));
        d.dx[s] = int(std::lround((p.margin - 1) * std::cos(a)));
    }
    d.score.assign(d.image.size(), 0.0f);
    d.dilated.assign(d.image.size(), 0.0f);
}

/** GICOV-style score of one pixel (uninstrumented math). */
inline float
gicovAt(const LcData &d, int cols, int samples, int r, int c)
{
    float mean = 0.0f, var = 0.0f;
    for (int s = 0; s < samples; ++s) {
        float v = d.image[size_t(r + d.dy[s]) * cols + c + d.dx[s]] *
                  d.weightT[s] * (d.sinT[s] + d.cosT[s] + 2.0f);
        mean += v;
        var += v * v;
    }
    mean /= float(samples);
    var = var / float(samples) - mean * mean;
    return var > 1e-6f ? mean * mean / var : 0.0f;
}

} // namespace

Leukocyte::Params
Leukocyte::params(core::Scale scale)
{
    switch (scale) {
      case core::Scale::Tiny:
        return {40, 64, 8, 8};
      case core::Scale::Small:
        return {64, 128, 12, 8};
      case core::Scale::Paper:
        return {219, 640, 12, 8};
      case core::Scale::Full:
      default:
        return {160, 320, 12, 8};
    }
}

const core::WorkloadInfo &
Leukocyte::info() const
{
    return kInfo;
}

void
Leukocyte::runCpu(trace::TraceSession &session, core::Scale scale)
{
    const Params p = params(scale);
    LcData d;
    makeData(p, d);
    const int nt = session.numThreads();
    const int r0 = p.margin, r1 = p.rows - p.margin;

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(35 * 1024);
        const int t = ctx.tid();
        const int lo = r0 + (r1 - r0) * t / nt;
        const int hi = r0 + (r1 - r0) * (t + 1) / nt;

        // GICOV pass.
        for (int r = lo; r < hi; ++r) {
            for (int c = p.margin; c < p.cols - p.margin; ++c) {
                for (int s = 0; s < p.samples; ++s) {
                    ctx.load(&d.sinT[s], 4);
                    ctx.load(&d.weightT[s], 4);
                    ctx.load(&d.image[size_t(r + d.dy[s]) * p.cols + c +
                                      d.dx[s]],
                             4);
                    ctx.fp(5);
                }
                ctx.fp(6);
                d.score[size_t(r) * p.cols + c] =
                    gicovAt(d, p.cols, p.samples, r, c);
                ctx.store(&d.score[size_t(r) * p.cols + c], 4);
            }
        }
        ctx.barrier();

        // Dilation pass (3x3 max filter on the score map).
        for (int r = lo; r < hi; ++r) {
            for (int c = p.margin; c < p.cols - p.margin; ++c) {
                float mx = 0.0f;
                for (int wr = -1; wr <= 1; ++wr) {
                    ctx.load(&d.score[size_t(r + wr) * p.cols + c - 1],
                             12);
                    for (int wc = -1; wc <= 1; ++wc)
                        mx = std::max(
                            mx,
                            d.score[size_t(r + wr) * p.cols + c + wc]);
                }
                ctx.fp(9);
                ctx.branch();
                d.dilated[size_t(r) * p.cols + c] = mx;
                ctx.store(&d.dilated[size_t(r) * p.cols + c], 4);
            }
        }
    });

    digest = core::hashRange(d.dilated.begin(), d.dilated.end());
}

gpusim::LaunchSequence
Leukocyte::runGpu(core::Scale scale, int version)
{
    const Params p = params(scale);
    LcData d;
    makeData(p, d);
    const int r0 = p.margin, r1 = p.rows - p.margin;
    const int c0 = p.margin, c1 = p.cols - p.margin;
    const int width = c1 - c0;
    const int numPixels = (r1 - r0) * width;

    gpusim::DeviceSpace dev;
    dev.add(d.image);
    dev.add(d.sinT);
    dev.add(d.cosT);
    dev.add(d.weightT);
    dev.add(d.score);
    dev.add(d.dilated);

    gpusim::LaunchSequence seq;

    auto samplePixel = [&](gpusim::KernelCtx &ctx, int r, int c) {
        float mean = 0.0f, var = 0.0f;
        for (int s = 0; s < p.samples; ++s) {
            float sv = ctx.ldc(&d.sinT[s]);
            float cv = ctx.ldc(&d.cosT[s]);
            float wv = ctx.ldc(&d.weightT[s]);
            float iv = ctx.ldt(
                &d.image[size_t(r + d.dy[s]) * p.cols + c + d.dx[s]]);
            ctx.fp(5);
            float v = iv * wv * (sv + cv + 2.0f);
            mean += v;
            var += v * v;
        }
        ctx.fp(6);
        mean /= float(p.samples);
        var = var / float(p.samples) - mean * mean;
        return var > 1e-6f ? mean * mean / var : 0.0f;
    };

    if (version == 1) {
        // v1: one thread per pixel; scores to global memory.
        gpusim::LaunchConfig launch;
        launch.blockDim = 128;
        launch.gridDim = (numPixels + launch.blockDim - 1) /
                         launch.blockDim;
        auto gicov = [&](gpusim::KernelCtx &ctx) {
            int i = ctx.globalId();
            if (ctx.branch(i >= numPixels))
                return;
            int r = r0 + i / width;
            int c = c0 + i % width;
            float sc = samplePixel(ctx, r, c);
            d.score[size_t(r) * p.cols + c] = sc;
            ctx.stg(&d.score[size_t(r) * p.cols + c], sc);
        };
        seq.add(gpusim::recordKernel(launch, gicov, dev));

        // Dilation kernel: score map re-read through texture.
        auto dilate = [&](gpusim::KernelCtx &ctx) {
            int i = ctx.globalId();
            if (ctx.branch(i >= numPixels))
                return;
            int r = r0 + i / width;
            int c = c0 + i % width;
            float mx = 0.0f;
            for (int wr = -1; wr <= 1; ++wr) {
                for (int wc = -1; wc <= 1; ++wc) {
                    float v = ctx.ldt(
                        &d.score[size_t(r + wr) * p.cols + c + wc]);
                    ctx.fp(1);
                    mx = std::max(mx, v);
                }
            }
            d.dilated[size_t(r) * p.cols + c] = mx;
            ctx.stg(&d.dilated[size_t(r) * p.cols + c], mx);
        };
        seq.add(gpusim::recordKernel(launch, dilate, dev));
    } else {
        // v2: persistent thread blocks; per-chunk scores stay in
        // shared memory and only a per-block best survives. Enough
        // blocks are launched to fill every SM with resident CTAs.
        const int numBlocks = 224;
        const int blockDim = 128;
        gpusim::LaunchConfig launch;
        launch.gridDim = numBlocks;
        launch.blockDim = blockDim;
        std::vector<float> blockBest(numBlocks, 0.0f);
        dev.add(blockBest);

        auto persistent = [&](gpusim::KernelCtx &ctx) {
            auto scores = ctx.shared<float>(blockDim);
            auto best = ctx.shared<float>(blockDim);
            best.put(ctx, ctx.tid(), 0.0f);

            int chunks = (numPixels + numBlocks * blockDim - 1) /
                         (numBlocks * blockDim);
            for (int chunk = 0; chunk < chunks; ++chunk) {
                gpusim::LoopIter li(ctx, chunk);
                int i = (chunk * numBlocks + ctx.blockIdx()) * blockDim +
                        ctx.tid();
                if (ctx.branch(i < numPixels)) {
                    int r = r0 + i / width;
                    int c = c0 + i % width;
                    float sc = samplePixel(ctx, r, c);
                    d.score[size_t(r) * p.cols + c] = sc;
                    scores.put(ctx, ctx.tid(), sc);
                    float b = best.get(ctx, ctx.tid());
                    ctx.fp(1);
                    if (sc > b)
                        best.put(ctx, ctx.tid(), sc);
                }
                ctx.sync();
            }

            // Block-level max reduction in shared memory.
            for (int stride = blockDim / 2; stride > 0; stride /= 2) {
                gpusim::LoopIter li(ctx, uint32_t(stride));
                if (ctx.branch(ctx.tid() < stride)) {
                    float a = best.get(ctx, ctx.tid());
                    float b = best.get(ctx, ctx.tid() + stride);
                    ctx.fp(1);
                    if (b > a)
                        best.put(ctx, ctx.tid(), b);
                }
                ctx.sync();
            }
            if (ctx.branch(ctx.tid() == 0))
                ctx.stg(&blockBest[ctx.blockIdx()],
                        best.get(ctx, 0));
        };
        seq.add(gpusim::recordKernel(launch, persistent, dev));

        // Dilation on the host-visible score map (kept in the same
        // launch sequence shape as v1 for comparability).
        for (int r = r0; r < r1; ++r)
            for (int c = c0; c < c1; ++c) {
                float mx = 0.0f;
                for (int wr = -1; wr <= 1; ++wr)
                    for (int wc = -1; wc <= 1; ++wc)
                        mx = std::max(
                            mx,
                            d.score[size_t(r + wr) * p.cols + c + wc]);
                d.dilated[size_t(r) * p.cols + c] = mx;
            }
    }

    digest = core::hashRange(d.dilated.begin(), d.dilated.end());
    return seq;
}

void
registerLeukocyte()
{
    core::Registry::instance().add(
        kInfo, [] { return std::make_unique<Leukocyte>(); });
}

} // namespace workloads
} // namespace rodinia
