#include "workloads/rodinia/srad.hh"

#include <cmath>

#include "gpusim/devicemem.hh"
#include "support/rng.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "srad",
    "SRAD",
    core::Suite::Rodinia,
    "Structured Grid",
    "Image Processing",
    "256x256 data points",
    "Speckle-reducing anisotropic diffusion on ultrasound imagery",
    "502x458 image (Table I)",
};

constexpr int kBlock = 16;

void
makeImage(const Srad::Params &p, std::vector<float> &img)
{
    Rng rng(0x55AD);
    img.resize(size_t(p.rows) * p.cols);
    for (auto &v : img)
        v = float(std::exp(rng.uniform(0.0, 1.0)));
}

/** Mean/variance statistic q0^2 over the whole image (host side). */
float
computeQ0sq(const std::vector<float> &img)
{
    double sum = 0.0, sum2 = 0.0;
    for (float v : img) {
        sum += v;
        sum2 += double(v) * v;
    }
    double mean = sum / double(img.size());
    double var = sum2 / double(img.size()) - mean * mean;
    return float(var / (mean * mean));
}

/** Diffusion coefficient for one pixel (uninstrumented math). */
inline float
coeffAt(float jc, float dn, float ds, float dw, float de, float q0sq)
{
    float g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc);
    float l = (dn + ds + dw + de) / jc;
    float num = 0.5f * g2 - (1.0f / 16.0f) * l * l;
    float den = 1.0f + 0.25f * l;
    float qsq = num / (den * den);
    float c = 1.0f / (1.0f + (qsq - q0sq) / (q0sq * (1.0f + q0sq)));
    return c < 0.0f ? 0.0f : (c > 1.0f ? 1.0f : c);
}

} // namespace

Srad::Params
Srad::params(core::Scale scale)
{
    switch (scale) {
      case core::Scale::Tiny:
        return {64, 64, 1, 0.5f};
      case core::Scale::Small:
        return {128, 128, 2, 0.5f};
      case core::Scale::Paper:
        return {502, 458, 2, 0.5f};
      case core::Scale::Full:
      default:
        return {256, 256, 2, 0.5f};
    }
}

const core::WorkloadInfo &
Srad::info() const
{
    return kInfo;
}

std::vector<float>
Srad::reference(const Params &p)
{
    std::vector<float> img;
    makeImage(p, img);
    const int rows = p.rows, cols = p.cols;
    std::vector<float> dn(img.size()), ds(img.size()), dw(img.size()),
        de(img.size()), cc(img.size());
    for (int it = 0; it < p.iters; ++it) {
        float q0sq = computeQ0sq(img);
        for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
                size_t i = size_t(r) * cols + c;
                float jc = img[i];
                dn[i] = (r > 0 ? img[i - cols] : jc) - jc;
                ds[i] = (r < rows - 1 ? img[i + cols] : jc) - jc;
                dw[i] = (c > 0 ? img[i - 1] : jc) - jc;
                de[i] = (c < cols - 1 ? img[i + 1] : jc) - jc;
                cc[i] = coeffAt(jc, dn[i], ds[i], dw[i], de[i], q0sq);
            }
        }
        for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
                size_t i = size_t(r) * cols + c;
                float cs = r < rows - 1 ? cc[i + cols] : cc[i];
                float ce = c < cols - 1 ? cc[i + 1] : cc[i];
                float d = cc[i] * dn[i] + cs * ds[i] + cc[i] * dw[i] +
                          ce * de[i];
                img[i] += 0.25f * p.lambda * d;
            }
        }
    }
    return img;
}

void
Srad::runCpu(trace::TraceSession &session, core::Scale scale)
{
    const Params p = params(scale);
    std::vector<float> img;
    makeImage(p, img);
    const int rows = p.rows, cols = p.cols;
    std::vector<float> dn(img.size()), ds(img.size()), dw(img.size()),
        de(img.size()), cc(img.size());
    const int nt = session.numThreads();
    float q0sq = 0.0f;

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(12 * 1024);
        const int t = ctx.tid();
        const int rlo = rows * t / nt;
        const int rhi = rows * (t + 1) / nt;
        for (int it = 0; it < p.iters; ++it) {
            if (t == 0) {
                // Image statistics (the host step in the CUDA port).
                for (size_t i = 0; i < img.size(); i += 4) {
                    ctx.load(&img[i], 16);
                    ctx.fp(4);
                }
                q0sq = computeQ0sq(img);
            }
            ctx.barrier();

            for (int r = rlo; r < rhi; ++r) {
                for (int c = 0; c < cols; ++c) {
                    size_t i = size_t(r) * cols + c;
                    float jc = ctx.ld(&img[i]);
                    ctx.load(&img[r > 0 ? i - cols : i], 4);
                    ctx.load(&img[r < rows - 1 ? i + cols : i], 4);
                    ctx.load(&img[c > 0 ? i - 1 : i], 4);
                    ctx.load(&img[c < cols - 1 ? i + 1 : i], 4);
                    dn[i] = (r > 0 ? img[i - cols] : jc) - jc;
                    ds[i] = (r < rows - 1 ? img[i + cols] : jc) - jc;
                    dw[i] = (c > 0 ? img[i - 1] : jc) - jc;
                    de[i] = (c < cols - 1 ? img[i + 1] : jc) - jc;
                    ctx.fp(36);
                    cc[i] = coeffAt(jc, dn[i], ds[i], dw[i], de[i],
                                    q0sq);
                    ctx.store(&dn[i], 4);
                    ctx.store(&ds[i], 4);
                    ctx.store(&dw[i], 4);
                    ctx.store(&de[i], 4);
                    ctx.store(&cc[i], 4);
                }
            }
            ctx.barrier();

            for (int r = rlo; r < rhi; ++r) {
                for (int c = 0; c < cols; ++c) {
                    size_t i = size_t(r) * cols + c;
                    ctx.load(&cc[i], 4);
                    ctx.load(&cc[r < rows - 1 ? i + cols : i], 4);
                    ctx.load(&cc[c < cols - 1 ? i + 1 : i], 4);
                    ctx.load(&dn[i], 16);
                    float cs = r < rows - 1 ? cc[i + cols] : cc[i];
                    float ce = c < cols - 1 ? cc[i + 1] : cc[i];
                    ctx.fp(18);
                    float d = cc[i] * dn[i] + cs * ds[i] +
                              cc[i] * dw[i] + ce * de[i];
                    img[i] += 0.25f * p.lambda * d;
                    ctx.store(&img[i], 4);
                }
            }
            ctx.barrier();
        }
    });

    digest = core::hashRange(img.begin(), img.end());
}

gpusim::LaunchSequence
Srad::runGpu(core::Scale scale, int version)
{
    const Params p = params(scale);
    std::vector<float> img;
    makeImage(p, img);
    const int rows = p.rows, cols = p.cols;
    std::vector<float> dn(img.size()), ds(img.size()), dw(img.size()),
        de(img.size()), cc(img.size());

    const int tilesX = cols / kBlock;
    const int tilesY = rows / kBlock;
    gpusim::LaunchConfig launch;
    launch.gridDim = tilesX * tilesY;
    launch.blockDim = kBlock * kBlock;

    gpusim::DeviceSpace dev;
    dev.add(img);
    dev.add(dn);
    dev.add(ds);
    dev.add(dw);
    dev.add(de);
    dev.add(cc);

    gpusim::LaunchSequence seq;
    for (int it = 0; it < p.iters; ++it) {
        const float q0sq = computeQ0sq(img);

        // Kernel 1: derivatives and diffusion coefficient.
        auto srad1 = [&, q0sq](gpusim::KernelCtx &ctx) {
            const int tile = ctx.blockIdx();
            const int r0 = (tile / tilesX) * kBlock;
            const int c0 = (tile % tilesX) * kBlock;
            const int lr = ctx.tid() / kBlock;
            const int lc = ctx.tid() % kBlock;
            const int r = r0 + lr, c = c0 + lc;
            size_t i = size_t(r) * cols + c;

            float jc, n, s, w, e;
            if (version == 2) {
                // Tile the image through shared memory with halo.
                const int dim = kBlock + 2;
                auto tile_s = ctx.shared<float>(size_t(dim) * dim);
                tile_s.put(ctx, size_t(lr + 1) * dim + lc + 1,
                           ctx.ldg(&img[i]));
                if (ctx.branch(lr == 0))
                    tile_s.put(ctx, size_t(0) * dim + lc + 1,
                               r > 0 ? ctx.ldg(&img[i - cols]) : img[i]);
                if (ctx.branch(lr == kBlock - 1))
                    tile_s.put(ctx, size_t(dim - 1) * dim + lc + 1,
                               r < rows - 1 ? ctx.ldg(&img[i + cols])
                                            : img[i]);
                if (ctx.branch(lc == 0))
                    tile_s.put(ctx, size_t(lr + 1) * dim,
                               c > 0 ? ctx.ldg(&img[i - 1]) : img[i]);
                if (ctx.branch(lc == kBlock - 1))
                    tile_s.put(ctx, size_t(lr + 1) * dim + dim - 1,
                               c < cols - 1 ? ctx.ldg(&img[i + 1])
                                            : img[i]);
                ctx.sync();
                jc = tile_s.get(ctx, size_t(lr + 1) * dim + lc + 1);
                n = tile_s.get(ctx, size_t(lr) * dim + lc + 1);
                s = tile_s.get(ctx, size_t(lr + 2) * dim + lc + 1);
                w = tile_s.get(ctx, size_t(lr + 1) * dim + lc);
                e = tile_s.get(ctx, size_t(lr + 1) * dim + lc + 2);
            } else {
                jc = ctx.ldg(&img[i]);
                n = r > 0 ? ctx.ldg(&img[i - cols]) : jc;
                s = r < rows - 1 ? ctx.ldg(&img[i + cols]) : jc;
                w = c > 0 ? ctx.ldg(&img[i - 1]) : jc;
                e = c < cols - 1 ? ctx.ldg(&img[i + 1]) : jc;
            }
            if (r == 0)
                n = jc;
            if (r == rows - 1)
                s = jc;
            if (c == 0)
                w = jc;
            if (c == cols - 1)
                e = jc;
            ctx.fp(36);
            float vdn = n - jc, vds = s - jc, vdw = w - jc, vde = e - jc;
            float vc = coeffAt(jc, vdn, vds, vdw, vde, q0sq);
            dn[i] = vdn;
            ds[i] = vds;
            dw[i] = vdw;
            de[i] = vde;
            ctx.stg(&dn[i], vdn);
            ctx.stg(&ds[i], vds);
            ctx.stg(&dw[i], vdw);
            ctx.stg(&de[i], vde);
            ctx.stg(&cc[i], vc);
        };
        seq.add(gpusim::recordKernel(launch, srad1, dev));

        // Kernel 2: divergence update.
        auto srad2 = [&](gpusim::KernelCtx &ctx) {
            const int tile = ctx.blockIdx();
            const int r0 = (tile / tilesX) * kBlock;
            const int c0 = (tile % tilesX) * kBlock;
            const int lr = ctx.tid() / kBlock;
            const int lc = ctx.tid() % kBlock;
            const int r = r0 + lr, c = c0 + lc;
            size_t i = size_t(r) * cols + c;

            float cn, cs, ce;
            if (version == 2) {
                const int dim = kBlock + 1;
                auto ctile = ctx.shared<float>(size_t(dim) * dim);
                ctile.put(ctx, size_t(lr) * dim + lc, ctx.ldg(&cc[i]));
                if (ctx.branch(lr == kBlock - 1))
                    ctile.put(ctx, size_t(kBlock) * dim + lc,
                              r < rows - 1 ? ctx.ldg(&cc[i + cols])
                                           : cc[i]);
                if (ctx.branch(lc == kBlock - 1))
                    ctile.put(ctx, size_t(lr) * dim + kBlock,
                              c < cols - 1 ? ctx.ldg(&cc[i + 1])
                                           : cc[i]);
                ctx.sync();
                cn = ctile.get(ctx, size_t(lr) * dim + lc);
                cs = ctile.get(ctx, size_t(lr + 1) * dim + lc);
                ce = ctile.get(ctx, size_t(lr) * dim + lc + 1);
            } else {
                cn = ctx.ldg(&cc[i]);
                cs = r < rows - 1 ? ctx.ldg(&cc[i + cols]) : cn;
                ce = c < cols - 1 ? ctx.ldg(&cc[i + 1]) : cn;
            }
            float vdn = ctx.ldg(&dn[i]);
            float vds = ctx.ldg(&ds[i]);
            float vdw = ctx.ldg(&dw[i]);
            float vde = ctx.ldg(&de[i]);
            ctx.fp(18);
            float d = cn * vdn + cs * vds + cn * vdw + ce * vde;
            float v = img[i] + 0.25f * p.lambda * d;
            img[i] = v;
            ctx.stg(&img[i], v);
        };
        seq.add(gpusim::recordKernel(launch, srad2, dev));
    }

    digest = core::hashRange(img.begin(), img.end());
    return seq;
}

void
registerSrad()
{
    core::Registry::instance().add(
        kInfo, [] { return std::make_unique<Srad>(); });
}

} // namespace workloads
} // namespace rodinia
