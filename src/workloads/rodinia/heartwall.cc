#include "workloads/rodinia/heartwall.hh"

#include <cmath>

#include "gpusim/devicemem.hh"
#include "support/rng.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "heartwall",
    "Heart Wall Tracking",
    core::Suite::Rodinia,
    "Structured Grid",
    "Medical Imaging",
    "96x224 pixels/frame, 64 points",
    "Braided-parallel template tracking of heart-wall sample points",
    "609x590 frames (Table I), 16 of 104 frames",
};

struct HwData
{
    std::vector<std::vector<float>> frames;
    std::vector<float> templates; //!< points x tmpl x tmpl (constant)
    std::vector<int> posR, posC;  //!< tracked positions
};

void
makeData(const HeartWall::Params &p, HwData &d)
{
    Rng rng(0x4EA47);
    d.frames.resize(p.frames);
    // Frame 0 is random texture; later frames drift smoothly so the
    // tracker has something to follow.
    d.frames[0].resize(size_t(p.rows) * p.cols);
    for (auto &v : d.frames[0])
        v = float(rng.uniform(0.0, 255.0));
    for (int f = 1; f < p.frames; ++f) {
        d.frames[f] = d.frames[f - 1];
        int shift = (f % 2) ? 1 : 0;
        for (int r = 0; r < p.rows; ++r)
            for (int c = p.cols - 1; c > 0; --c)
                d.frames[f][size_t(r) * p.cols + c] =
                    d.frames[f][size_t(r) * p.cols + c - shift] +
                    float(rng.uniform(-2.0, 2.0));
    }

    // Sample points around an ellipse (inner + outer walls).
    d.posR.resize(p.points);
    d.posC.resize(p.points);
    int cy = p.rows / 2, cx = p.cols / 2;
    for (int i = 0; i < p.points; ++i) {
        double a = 2.0 * 3.14159265358979 * i / p.points;
        double radY = (i < p.points / 2) ? p.rows / 5.0 : p.rows / 3.2;
        double radX = (i < p.points / 2) ? p.cols / 5.0 : p.cols / 3.2;
        d.posR[i] = cy + int(radY * std::sin(a));
        d.posC[i] = cx + int(radX * std::cos(a));
    }

    // Templates: cut from frame 0 around each initial position.
    d.templates.resize(size_t(p.points) * p.tmplSize * p.tmplSize);
    for (int i = 0; i < p.points; ++i)
        for (int tr = 0; tr < p.tmplSize; ++tr)
            for (int tc = 0; tc < p.tmplSize; ++tc)
                d.templates[(size_t(i) * p.tmplSize + tr) * p.tmplSize +
                            tc] =
                    d.frames[0][size_t(d.posR[i] + tr - p.tmplSize / 2) *
                                    p.cols +
                                d.posC[i] + tc - p.tmplSize / 2];
}

} // namespace

HeartWall::Params
HeartWall::params(core::Scale scale)
{
    switch (scale) {
      case core::Scale::Tiny:
        return {64, 128, 2, 16, 8, 16};
      case core::Scale::Small:
        return {96, 224, 2, 32, 8, 16};
      case core::Scale::Paper:
        return {609, 590, 16, 64, 8, 16};
      case core::Scale::Full:
      default:
        return {96, 224, 3, 64, 8, 16};
    }
}

const core::WorkloadInfo &
HeartWall::info() const
{
    return kInfo;
}

void
HeartWall::runCpu(trace::TraceSession &session, core::Scale scale)
{
    const Params p = params(scale);
    HwData d;
    makeData(p, d);
    const int nt = session.numThreads();
    const int half = p.winSize / 2;

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(30 * 1024);
        const int t = ctx.tid();
        const int lo = p.points * t / nt;
        const int hi = p.points * (t + 1) / nt;

        for (int f = 1; f < p.frames; ++f) {
            const auto &img = d.frames[f];
            // Task-parallel outer loop (TLP), data-parallel inner
            // work (DLP): the braided structure.
            for (int i = lo; i < hi; ++i) {
                // Per-task sequential statistics section.
                float mean = 0.0f;
                for (int e = 0; e < p.winSize; ++e) {
                    ctx.load(&img[size_t(d.posR[i] - half + e) * p.cols +
                                  d.posC[i]],
                             4);
                    ctx.fp(1);
                    mean += img[size_t(d.posR[i] - half + e) * p.cols +
                                d.posC[i]];
                }
                mean /= float(p.winSize);
                (void)mean;

                float bestSsd = 1e30f;
                int bestR = d.posR[i], bestC = d.posC[i];
                for (int wr = 0; wr < p.winSize; ++wr) {
                    for (int wc = 0; wc < p.winSize; ++wc) {
                        int rr = d.posR[i] - half + wr;
                        int cc = d.posC[i] - half + wc;
                        if (rr < half || rr >= p.rows - half ||
                            cc < half || cc >= p.cols - half)
                            continue;
                        float ssd = 0.0f;
                        for (int tr = 0; tr < p.tmplSize; ++tr) {
                            ctx.load(&d.templates[(size_t(i) *
                                                       p.tmplSize +
                                                   tr) *
                                                  p.tmplSize],
                                     4 * p.tmplSize);
                            ctx.load(&img[size_t(rr + tr -
                                                 p.tmplSize / 2) *
                                              p.cols +
                                          cc - p.tmplSize / 2],
                                     4 * p.tmplSize);
                            ctx.fp(2 * p.tmplSize);
                            for (int tc = 0; tc < p.tmplSize; ++tc) {
                                float diff =
                                    img[size_t(rr + tr -
                                               p.tmplSize / 2) *
                                            p.cols +
                                        cc + tc - p.tmplSize / 2] -
                                    d.templates[(size_t(i) *
                                                     p.tmplSize +
                                                 tr) *
                                                    p.tmplSize +
                                                tc];
                                ssd += diff * diff;
                            }
                        }
                        ctx.branch();
                        if (ssd < bestSsd) {
                            bestSsd = ssd;
                            bestR = rr;
                            bestC = cc;
                        }
                    }
                }
                ctx.st(&d.posR[i], bestR);
                ctx.st(&d.posC[i], bestC);
            }
            ctx.barrier();
        }
    });

    digest = core::hashRange(d.posR.begin(), d.posR.end());
    digest = core::hashCombine(
        digest, core::hashRange(d.posC.begin(), d.posC.end()));
}

gpusim::LaunchSequence
HeartWall::runGpu(core::Scale scale, int version)
{
    (void)version;
    const Params p = params(scale);
    HwData d;
    makeData(p, d);
    const int half = p.winSize / 2;
    const int blockDim = 64;
    const int positions = p.winSize * p.winSize;
    const int perThread = (positions + blockDim - 1) / blockDim;

    gpusim::DeviceSpace dev;
    for (const auto &frame : d.frames)
        dev.add(frame);
    dev.add(d.templates);
    // Stable output buffers: the per-frame results are copied back
    // into d.pos* below, so one allocation serves every frame (and
    // keeps the recorded addresses registrable).
    std::vector<int> newR = d.posR, newC = d.posC;
    dev.add(newR);
    dev.add(newC);

    gpusim::LaunchSequence seq;
    for (int f = 1; f < p.frames; ++f) {
        const auto &img = d.frames[f];
        newR = d.posR;
        newC = d.posC;

        gpusim::LaunchConfig launch;
        launch.gridDim = p.points;
        launch.blockDim = blockDim;

        auto kernel = [&](gpusim::KernelCtx &ctx) {
            const int i = ctx.blockIdx();
            const int tid = ctx.tid();
            auto bestSsd = ctx.shared<float>(blockDim);
            auto bestPos = ctx.shared<int>(blockDim);

            // Non-parallel per-task section: thread 0 computes the
            // window statistics while the rest of the warp idles —
            // the slight under-utilization the paper describes.
            if (ctx.branch(tid == 0)) {
                float mean = 0.0f;
                for (int e = 0; e < p.winSize; ++e) {
                    mean += ctx.ldt(
                        &img[size_t(d.posR[i] - half + e) * p.cols +
                             d.posC[i]]);
                    ctx.fp(1);
                }
                (void)mean;
            }
            ctx.sync();

            float myBest = 1e30f;
            int myPos = -1;
            for (int k = 0; k < perThread; ++k) {
                gpusim::LoopIter li(ctx, k);
                int pos = k * blockDim + tid;
                if (!ctx.branch(pos < positions))
                    continue;
                int wr = pos / p.winSize, wc = pos % p.winSize;
                int rr = d.posR[i] - half + wr;
                int cc = d.posC[i] - half + wc;
                if (!ctx.branch(rr >= half && rr < p.rows - half &&
                                cc >= half && cc < p.cols - half))
                    continue;
                float ssd = 0.0f;
                for (int tr = 0; tr < p.tmplSize; ++tr) {
                    ctx.record(
                        gpusim::GOp::Load, gpusim::Space::Const,
                        uint64_t(uintptr_t(
                            &d.templates[(size_t(i) * p.tmplSize + tr) *
                                         p.tmplSize])),
                        4 * p.tmplSize,
                        std::source_location::current());
                    ctx.record(
                        gpusim::GOp::Load, gpusim::Space::Tex,
                        uint64_t(uintptr_t(
                            &img[size_t(rr + tr - p.tmplSize / 2) *
                                     p.cols +
                                 cc - p.tmplSize / 2])),
                        4 * p.tmplSize,
                        std::source_location::current());
                    ctx.fp(2 * p.tmplSize);
                    for (int tc = 0; tc < p.tmplSize; ++tc) {
                        float diff =
                            img[size_t(rr + tr - p.tmplSize / 2) *
                                    p.cols +
                                cc + tc - p.tmplSize / 2] -
                            d.templates[(size_t(i) * p.tmplSize + tr) *
                                            p.tmplSize +
                                        tc];
                        ssd += diff * diff;
                    }
                }
                ctx.fp(1);
                if (ssd < myBest) {
                    myBest = ssd;
                    myPos = pos;
                }
            }
            bestSsd.put(ctx, tid, myBest);
            bestPos.put(ctx, tid, myPos);
            ctx.sync();

            // Shared-memory min reduction.
            for (int stride = blockDim / 2; stride > 0; stride /= 2) {
                gpusim::LoopIter li(ctx, uint32_t(stride));
                if (ctx.branch(tid < stride)) {
                    float a = bestSsd.get(ctx, tid);
                    float b = bestSsd.get(ctx, tid + stride);
                    ctx.fp(1);
                    if (b < a) {
                        bestSsd.put(ctx, tid, b);
                        bestPos.put(ctx, tid,
                                    bestPos.get(ctx, tid + stride));
                    }
                }
                ctx.sync();
            }

            if (ctx.branch(tid == 0)) {
                int pos = bestPos.get(ctx, 0);
                if (pos >= 0) {
                    int rr = d.posR[i] - half + pos / p.winSize;
                    int cc = d.posC[i] - half + pos % p.winSize;
                    newR[i] = rr;
                    newC[i] = cc;
                    ctx.stg(&newR[i], rr);
                    ctx.stg(&newC[i], cc);
                }
            }
        };
        seq.add(gpusim::recordKernel(launch, kernel, dev));

        d.posR = newR;
        d.posC = newC;
    }

    digest = core::hashRange(d.posR.begin(), d.posR.end());
    digest = core::hashCombine(
        digest, core::hashRange(d.posC.begin(), d.posC.end()));
    return seq;
}

void
registerHeartwall()
{
    core::Registry::instance().add(
        kInfo, [] { return std::make_unique<HeartWall>(); });
}

} // namespace workloads
} // namespace rodinia
