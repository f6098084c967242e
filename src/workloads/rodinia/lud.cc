#include "workloads/rodinia/lud.hh"

#include "gpusim/devicemem.hh"
#include "support/rng.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "lud",
    "LU Decomposition",
    core::Suite::Rodinia,
    "Dense Linear Algebra",
    "Linear Algebra",
    "128x128 data points",
    "Blocked in-place LU factorization without pivoting",
    "256x256 matrix (Table I)",
};

constexpr int kB = 16; //!< tile width

} // namespace

std::vector<float>
Lud::makeMatrix(int n)
{
    Rng rng(0x10D);
    std::vector<float> a(size_t(n) * n);
    for (auto &v : a)
        v = float(rng.uniform(-1.0, 1.0));
    // Diagonal dominance keeps the factorization stable unpivoted.
    for (int i = 0; i < n; ++i)
        a[size_t(i) * n + i] = float(n) + float(rng.uniform(0.0, 1.0));
    return a;
}

Lud::Params
Lud::params(core::Scale scale)
{
    switch (scale) {
      case core::Scale::Tiny:
        return {32};
      case core::Scale::Small:
        return {64};
      case core::Scale::Paper:
        return {256};
      case core::Scale::Full:
      default:
        return {128};
    }
}

const core::WorkloadInfo &
Lud::info() const
{
    return kInfo;
}

void
Lud::runCpu(trace::TraceSession &session, core::Scale scale)
{
    const Params p = params(scale);
    const int n = p.n;
    out = makeMatrix(n);
    std::vector<float> &a = out;
    const int nt = session.numThreads();

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(10 * 1024);
        const int t = ctx.tid();
        for (int k = 0; k < n - 1; ++k) {
            int rows = n - 1 - k;
            int lo = k + 1 + rows * t / nt;
            int hi = k + 1 + rows * (t + 1) / nt;
            float pivot = ctx.ld(&a[size_t(k) * n + k]);
            for (int i = lo; i < hi; ++i) {
                float l = ctx.ld(&a[size_t(i) * n + k]) / pivot;
                ctx.fp(1);
                ctx.st(&a[size_t(i) * n + k], l);
                for (int j = k + 1; j < n; j += 4) {
                    ctx.load(&a[size_t(k) * n + j], 16);
                    ctx.load(&a[size_t(i) * n + j], 16);
                    ctx.fp(2);
                    for (int u = 0; u < 4 && j + u < n; ++u)
                        a[size_t(i) * n + j + u] -=
                            l * a[size_t(k) * n + j + u];
                    ctx.store(&a[size_t(i) * n + j], 16);
                }
            }
            ctx.barrier();
        }
    });

    digest = core::hashRange(a.begin(), a.end());
}

gpusim::LaunchSequence
Lud::runGpu(core::Scale scale, int version)
{
    const Params p = params(scale);
    const int n = p.n;
    out = makeMatrix(n);
    std::vector<float> &a = out;
    gpusim::DeviceSpace dev;
    dev.add(a);
    gpusim::LaunchSequence seq;

    if (version == 1) {
        // v1: unblocked, straight from global memory; one launch per
        // elimination step (thread per row).
        for (int k = 0; k < n - 1; ++k) {
            gpusim::LaunchConfig launch;
            launch.blockDim = 64;
            int rows = n - 1 - k;
            launch.gridDim = (rows + launch.blockDim - 1) /
                             launch.blockDim;
            auto kernel = [&, k](gpusim::KernelCtx &ctx) {
                int i = k + 1 + ctx.globalId();
                if (ctx.branch(i >= n))
                    return;
                float pivot = ctx.ldg(&a[size_t(k) * n + k]);
                float l = ctx.ldg(&a[size_t(i) * n + k]) / pivot;
                ctx.fp(1);
                ctx.stg(&a[size_t(i) * n + k], l);
                for (int j = k + 1; j < n; ++j) {
                    float u = ctx.ldg(&a[size_t(k) * n + j]);
                    float v = ctx.ldg(&a[size_t(i) * n + j]);
                    ctx.fp(2);
                    ctx.stg(&a[size_t(i) * n + j], v - l * u);
                }
            };
            seq.add(gpusim::recordKernel(launch, kernel, dev));
        }
        digest = core::hashRange(a.begin(), a.end());
        return seq;
    }

    // v2: Rodinia's blocked three-kernel structure, one kB-wide tile
    // step at a time: diagonal, perimeter, then internal tiles.
    const int tiles = n / kB;
    for (int kb = 0; kb < tiles; ++kb) {
        const int base = kb * kB;

        // Diagonal kernel: factorize the pivot tile in place.
        {
            gpusim::LaunchConfig launch;
            launch.gridDim = 1;
            launch.blockDim = kB;
            auto diag = [&, base](gpusim::KernelCtx &ctx) {
                int tx = ctx.tid();
                auto sh = ctx.shared<float>(size_t(kB) * kB);
                for (int j = 0; j < kB; ++j)
                    sh.put(ctx, size_t(tx) * kB + j,
                           ctx.ldg(&a[size_t(base + tx) * n + base + j]));
                ctx.sync();
                for (int k = 0; k < kB - 1; ++k) {
                    gpusim::LoopIter li(ctx, k);
                    if (ctx.branch(tx > k)) {
                        float l = sh.get(ctx, size_t(tx) * kB + k) /
                                  sh.get(ctx, size_t(k) * kB + k);
                        ctx.fp(1);
                        sh.put(ctx, size_t(tx) * kB + k, l);
                        for (int j = k + 1; j < kB; ++j) {
                            float u = sh.get(ctx, size_t(k) * kB + j);
                            float v = sh.get(ctx, size_t(tx) * kB + j);
                            ctx.fp(2);
                            sh.put(ctx, size_t(tx) * kB + j, v - l * u);
                        }
                    }
                    ctx.sync();
                }
                for (int j = 0; j < kB; ++j) {
                    float v = sh.get(ctx, size_t(tx) * kB + j);
                    a[size_t(base + tx) * n + base + j] = v;
                    ctx.stg(&a[size_t(base + tx) * n + base + j], v);
                }
            };
            seq.add(gpusim::recordKernel(launch, diag, dev));
        }

        if (kb == tiles - 1)
            break;

        // Perimeter kernel: row tiles (L-solve) and column tiles
        // (U-solve with divide).
        {
            int rem = tiles - kb - 1;
            gpusim::LaunchConfig launch;
            launch.gridDim = 2 * rem;
            launch.blockDim = kB;
            auto perim = [&, base, rem](gpusim::KernelCtx &ctx) {
                int b = ctx.blockIdx();
                bool isRow = b < rem;
                int other = base + kB * ((isRow ? b : b - rem) + 1);
                int tx = ctx.tid();

                auto dia = ctx.shared<float>(size_t(kB) * kB);
                auto tile = ctx.shared<float>(size_t(kB) * kB);
                for (int j = 0; j < kB; ++j)
                    dia.put(ctx, size_t(tx) * kB + j,
                            ctx.ldg(&a[size_t(base + tx) * n + base + j]));
                if (ctx.branch(isRow)) {
                    for (int j = 0; j < kB; ++j)
                        tile.put(ctx, size_t(tx) * kB + j,
                                 ctx.ldg(&a[size_t(base + tx) * n +
                                            other + j]));
                } else {
                    for (int j = 0; j < kB; ++j)
                        tile.put(ctx, size_t(tx) * kB + j,
                                 ctx.ldg(&a[size_t(other + tx) * n +
                                            base + j]));
                }
                ctx.sync();

                if (ctx.branch(isRow)) {
                    // Thread tx owns column tx: forward substitution
                    // with unit-diagonal L.
                    for (int k = 0; k < kB - 1; ++k) {
                        gpusim::LoopIter li(ctx, k);
                        float akc = tile.get(ctx, size_t(k) * kB + tx);
                        for (int i = k + 1; i < kB; ++i) {
                            float l = dia.get(ctx, size_t(i) * kB + k);
                            float v = tile.get(ctx, size_t(i) * kB + tx);
                            ctx.fp(2);
                            tile.put(ctx, size_t(i) * kB + tx,
                                     v - l * akc);
                        }
                    }
                } else {
                    // Thread tx owns row tx: solve x * U = tile row.
                    for (int k = 0; k < kB; ++k) {
                        gpusim::LoopIter li(ctx, k);
                        float v = tile.get(ctx, size_t(tx) * kB + k) /
                                  dia.get(ctx, size_t(k) * kB + k);
                        ctx.fp(1);
                        tile.put(ctx, size_t(tx) * kB + k, v);
                        for (int j = k + 1; j < kB; ++j) {
                            float u = dia.get(ctx, size_t(k) * kB + j);
                            float w = tile.get(ctx, size_t(tx) * kB + j);
                            ctx.fp(2);
                            tile.put(ctx, size_t(tx) * kB + j,
                                     w - v * u);
                        }
                    }
                }
                ctx.sync();

                if (ctx.branch(isRow)) {
                    for (int j = 0; j < kB; ++j) {
                        float v = tile.get(ctx, size_t(tx) * kB + j);
                        a[size_t(base + tx) * n + other + j] = v;
                        ctx.stg(&a[size_t(base + tx) * n + other + j],
                                v);
                    }
                } else {
                    for (int j = 0; j < kB; ++j) {
                        float v = tile.get(ctx, size_t(tx) * kB + j);
                        a[size_t(other + tx) * n + base + j] = v;
                        ctx.stg(&a[size_t(other + tx) * n + base + j],
                                v);
                    }
                }
            };
            seq.add(gpusim::recordKernel(launch, perim, dev));
        }

        // Internal kernel: trailing-submatrix tile update.
        {
            int rem = tiles - kb - 1;
            gpusim::LaunchConfig launch;
            launch.gridDim = rem * rem;
            launch.blockDim = kB * kB;
            auto internal = [&, base, rem](gpusim::KernelCtx &ctx) {
                int b = ctx.blockIdx();
                int row0 = base + kB * (b / rem + 1);
                int col0 = base + kB * (b % rem + 1);
                int ty = ctx.tid() / kB;
                int tx = ctx.tid() % kB;

                auto lsh = ctx.shared<float>(size_t(kB) * kB);
                auto ush = ctx.shared<float>(size_t(kB) * kB);
                lsh.put(ctx, size_t(ty) * kB + tx,
                        ctx.ldg(&a[size_t(row0 + ty) * n + base + tx]));
                ush.put(ctx, size_t(ty) * kB + tx,
                        ctx.ldg(&a[size_t(base + ty) * n + col0 + tx]));
                ctx.sync();

                float acc = 0.0f;
                for (int k = 0; k < kB; ++k) {
                    acc += lsh.get(ctx, size_t(ty) * kB + k) *
                           ush.get(ctx, size_t(k) * kB + tx);
                    ctx.fp(2);
                }
                float v = ctx.ldg(&a[size_t(row0 + ty) * n + col0 + tx]);
                ctx.fp(1);
                a[size_t(row0 + ty) * n + col0 + tx] = v - acc;
                ctx.stg(&a[size_t(row0 + ty) * n + col0 + tx], v - acc);
            };
            seq.add(gpusim::recordKernel(launch, internal, dev));
        }
    }

    digest = core::hashRange(a.begin(), a.end());
    return seq;
}

void
registerLud()
{
    core::Registry::instance().add(kInfo,
                                   [] { return std::make_unique<Lud>(); });
}

} // namespace workloads
} // namespace rodinia
