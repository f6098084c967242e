#include "workloads/rodinia/nw.hh"

#include <algorithm>

#include "gpusim/devicemem.hh"
#include "support/rng.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "nw",
    "Needleman-Wunsch",
    core::Suite::Rodinia,
    "Dynamic Programming",
    "Bioinformatics",
    "256x256 data points",
    "Global DNA sequence alignment via wavefront dynamic programming",
    "2048x2048 sequences (Table I)",
};

constexpr int kBlock = 16;

struct NwData
{
    std::vector<int8_t> seqA;
    std::vector<int8_t> seqB;
    std::vector<int> ref;   //!< (n+1)^2 substitution scores
    std::vector<int> score; //!< (n+1)^2 DP matrix
};

void
makeInput(const NeedlemanWunsch::Params &p, NwData &d)
{
    Rng rng(0xA11C43);
    int n = p.n;
    d.seqA.resize(n + 1);
    d.seqB.resize(n + 1);
    for (int i = 1; i <= n; ++i) {
        d.seqA[i] = int8_t(rng.below(4));
        d.seqB[i] = int8_t(rng.below(4));
    }

    // BLOSUM-like substitution scores.
    int sim[4][4];
    for (int a = 0; a < 4; ++a)
        for (int b = 0; b < 4; ++b)
            sim[a][b] = a == b ? 5 : -3;

    int w = n + 1;
    d.ref.assign(size_t(w) * w, 0);
    for (int i = 1; i <= n; ++i)
        for (int j = 1; j <= n; ++j)
            d.ref[size_t(i) * w + j] = sim[d.seqA[i]][d.seqB[j]];

    d.score.assign(size_t(w) * w, 0);
    for (int i = 1; i <= n; ++i)
        d.score[size_t(i) * w] = -i * p.penalty;
    for (int j = 1; j <= n; ++j)
        d.score[j] = -j * p.penalty;
}

uint64_t
digestOf(const NwData &d, int n)
{
    int w = n + 1;
    uint64_t h = core::hashRange(d.score.begin() + size_t(n) * w,
                                 d.score.end());
    return core::hashCombine(h, uint64_t(d.score[size_t(n) * w + n]));
}

} // namespace

NeedlemanWunsch::Params
NeedlemanWunsch::params(core::Scale scale)
{
    switch (scale) {
      case core::Scale::Tiny:
        return {64, 10};
      case core::Scale::Small:
        return {128, 10};
      case core::Scale::Paper:
        return {2048, 10};
      case core::Scale::Full:
      default:
        return {256, 10};
    }
}

const core::WorkloadInfo &
NeedlemanWunsch::info() const
{
    return kInfo;
}

void
NeedlemanWunsch::runCpu(trace::TraceSession &session, core::Scale scale)
{
    const Params p = params(scale);
    NwData d;
    makeInput(p, d);
    const int n = p.n;
    const int w = n + 1;
    const int nt = session.numThreads();

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(8 * 1024);
        const int t = ctx.tid();
        // Anti-diagonal wavefront: cells (i, j) with i + j == diag.
        for (int diag = 2; diag <= 2 * n; ++diag) {
            int ilo = std::max(1, diag - n);
            int ihi = std::min(n, diag - 1);
            int cells = ihi - ilo + 1;
            int lo = ilo + cells * t / nt;
            int hi = ilo + cells * (t + 1) / nt;
            for (int i = lo; i < hi; ++i) {
                int j = diag - i;
                size_t idx = size_t(i) * w + j;
                int nw = ctx.ld(&d.score[idx - w - 1]);
                int up = ctx.ld(&d.score[idx - w]);
                int left = ctx.ld(&d.score[idx - 1]);
                int r = ctx.ld(&d.ref[idx]);
                ctx.alu(4);
                ctx.branch(2);
                int v = std::max(nw + r,
                                 std::max(up - p.penalty,
                                          left - p.penalty));
                ctx.st(&d.score[idx], v);
            }
            ctx.barrier();
        }
    });

    score = d.score[size_t(n) * w + n];
    digest = digestOf(d, n);
}

gpusim::LaunchSequence
NeedlemanWunsch::runGpu(core::Scale scale, int version)
{
    const Params p = params(scale);
    NwData d;
    makeInput(p, d);
    const int n = p.n;
    const int w = n + 1;
    const int tiles = n / kBlock;
    const int penalty = p.penalty;

    gpusim::DeviceSpace dev;
    dev.add(d.score);
    dev.add(d.ref);

    gpusim::LaunchSequence seq;

    // Tiles along each tile-anti-diagonal are independent.
    for (int td = 0; td < 2 * tiles - 1; ++td) {
        std::vector<std::pair<int, int>> tileList;
        int trLo = std::max(0, td - tiles + 1);
        int trHi = std::min(td, tiles - 1);
        for (int tr = trLo; tr <= trHi; ++tr)
            tileList.emplace_back(tr, td - tr);

        gpusim::LaunchConfig launch;
        launch.gridDim = int(tileList.size());
        launch.blockDim = kBlock;

        auto kernel = [&, tileList, version](gpusim::KernelCtx &ctx) {
            auto [tr, tc] = tileList[ctx.blockIdx()];
            const int i0 = tr * kBlock; // tile covers rows i0+1..i0+16
            const int j0 = tc * kBlock;
            const int tx = ctx.tid();

            if (version == 2) {
                // Blocked shared-memory version (Rodinia's kernel).
                auto temp = ctx.shared<int>((kBlock + 1) * (kBlock + 1));
                auto refs = ctx.shared<int>(kBlock * kBlock);

                // Halo: west column, north row, corner.
                temp.put(ctx, size_t(tx + 1) * (kBlock + 1),
                         ctx.ldg(&d.score[size_t(i0 + tx + 1) * w + j0]));
                temp.put(ctx, size_t(tx + 1),
                         ctx.ldg(&d.score[size_t(i0) * w + j0 + tx + 1]));
                if (ctx.branch(tx == 0))
                    temp.put(ctx, 0,
                             ctx.ldg(&d.score[size_t(i0) * w + j0]));
                // Substitution scores for this thread's row.
                for (int j = 0; j < kBlock; ++j)
                    refs.put(ctx, size_t(tx) * kBlock + j,
                             ctx.ldg(&d.ref[size_t(i0 + tx + 1) * w +
                                            j0 + j + 1]));
                ctx.sync();

                for (int m = 0; m < 2 * kBlock - 1; ++m) {
                    gpusim::LoopIter li(ctx, m);
                    if (ctx.branch(m - tx >= 0 && m - tx < kBlock)) {
                        int j = m - tx;
                        size_t row = size_t(tx + 1) * (kBlock + 1);
                        int nwv =
                            temp.get(ctx, row - (kBlock + 1) + j);
                        int upv =
                            temp.get(ctx, row - (kBlock + 1) + j + 1);
                        int lfv = temp.get(ctx, row + j);
                        int rv = refs.get(ctx, size_t(tx) * kBlock + j);
                        ctx.alu(4);
                        int v = std::max(
                            nwv + rv,
                            std::max(upv - penalty, lfv - penalty));
                        temp.put(ctx, row + j + 1, v);
                    }
                    ctx.sync();
                }

                // Write the tile back, 16 bytes at a time.
                for (int j = 0; j < kBlock; j += 4) {
                    size_t idx = size_t(i0 + tx + 1) * w + j0 + j + 1;
                    for (int u = 0; u < 4; ++u)
                        d.score[idx + u] = temp.get(
                            ctx, size_t(tx + 1) * (kBlock + 1) + j + u +
                                     1);
                    ctx.record(gpusim::GOp::Store, gpusim::Space::Global,
                               uint64_t(uintptr_t(&d.score[idx])), 16,
                               std::source_location::current());
                }
            } else {
                // v1: cells computed straight from global memory.
                for (int m = 0; m < 2 * kBlock - 1; ++m) {
                    gpusim::LoopIter li(ctx, m);
                    if (ctx.branch(m - tx >= 0 && m - tx < kBlock)) {
                        int i = i0 + tx + 1;
                        int j = j0 + (m - tx) + 1;
                        size_t idx = size_t(i) * w + j;
                        int nwv = ctx.ldg(&d.score[idx - w - 1]);
                        int upv = ctx.ldg(&d.score[idx - w]);
                        int lfv = ctx.ldg(&d.score[idx - 1]);
                        int rv = ctx.ldg(&d.ref[idx]);
                        ctx.alu(4);
                        int v = std::max(
                            nwv + rv,
                            std::max(upv - penalty, lfv - penalty));
                        ctx.stg(&d.score[idx], v);
                    }
                    ctx.sync();
                }
            }
        };
        seq.add(gpusim::recordKernel(launch, kernel, dev));
    }

    score = d.score[size_t(n) * w + n];
    digest = digestOf(d, n);
    return seq;
}

void
registerNw()
{
    core::Registry::instance().add(
        kInfo, [] { return std::make_unique<NeedlemanWunsch>(); });
}

} // namespace workloads
} // namespace rodinia
