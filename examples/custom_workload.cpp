/**
 * @file
 * Scenario: adding your own benchmark to the suite.
 *
 * Implements a small SAXPY-with-reduction workload against the
 * public Workload interface — instrumented CPU threads plus a SIMT
 * GPU kernel — registers it, and characterizes it exactly like the
 * built-in benchmarks. This is the template for extending the suite
 * with new applications. Exits 1 if the CPU and GPU implementations
 * disagree on the result.
 */

#include <cstdio>
#include <numeric>

#include "core/characterize.hh"
#include "core/workload.hh"
#include "gpusim/replay.hh"
#include "gpusim/timing.hh"
#include "support/rng.hh"

using namespace rodinia;

namespace {

const core::WorkloadInfo kInfo = {
    "saxpyred",
    "SaxpyReduce",
    core::Suite::Rodinia,
    "Dense Linear Algebra",
    "Example",
    "65536 elements",
    "y = a*x + y followed by a block-level sum reduction",
    "65536 elements",
};

class SaxpyReduce : public core::Workload
{
  public:
    const core::WorkloadInfo &info() const override { return kInfo; }

    void
    runCpu(trace::TraceSession &session, core::Scale) override
    {
        const int n = 65536;
        std::vector<float> x(n), y(n);
        Rng rng(1);
        for (int i = 0; i < n; ++i) {
            x[i] = float(rng.uniform());
            y[i] = float(rng.uniform());
        }
        const int nt = session.numThreads();
        std::vector<double> partial(nt, 0.0);

        session.run([&](trace::ThreadCtx &ctx) {
            const int t = ctx.tid();
            double acc = 0.0;
            // Block-cyclic distribution, like schedule(static, 4).
            for (int i = t * 4; i < n; i += nt * 4) {
                ctx.load(&x[i], 16);
                ctx.load(&y[i], 16);
                ctx.fp(4);
                for (int u = 0; u < 4; ++u) {
                    y[i + u] = 2.5f * x[i + u] + y[i + u];
                    acc += y[i + u];
                }
                ctx.store(&y[i], 16);
            }
            partial[t] = acc;
            ctx.barrier();
            if (t == 0) {
                double total = 0.0;
                for (int w = 0; w < nt; ++w) {
                    ctx.load(&partial[w], 8);
                    ctx.fp(1);
                    total += partial[w];
                }
                sum = total;
            }
        });
        digest = uint64_t(sum);
    }

    int gpuVersions() const override { return 1; }

    gpusim::LaunchSequence
    runGpu(core::Scale, int) override
    {
        const int n = 65536;
        std::vector<float> x(n), y(n);
        std::vector<float> blockSums(n / 256, 0.0f);
        Rng rng(1);
        for (int i = 0; i < n; ++i) {
            x[i] = float(rng.uniform());
            y[i] = float(rng.uniform());
        }

        gpusim::LaunchConfig launch;
        launch.blockDim = 256;
        launch.gridDim = n / 256;
        auto kernel = [&](gpusim::KernelCtx &ctx) {
            auto sh = ctx.shared<float>(256);
            int i = ctx.globalId();
            float v = 2.5f * ctx.ldg(&x[i]) + ctx.ldg(&y[i]);
            ctx.fp(2);
            ctx.stg(&y[i], v);
            sh.put(ctx, ctx.tid(), v);
            ctx.sync();
            for (int stride = 128; stride > 0; stride /= 2) {
                gpusim::LoopIter li(ctx, uint32_t(stride));
                if (ctx.branch(ctx.tid() < stride)) {
                    float a = sh.get(ctx, ctx.tid());
                    float b = sh.get(ctx, ctx.tid() + stride);
                    ctx.fp(1);
                    sh.put(ctx, ctx.tid(), a + b);
                }
                ctx.sync();
            }
            if (ctx.branch(ctx.tid() == 0))
                ctx.stg(&blockSums[ctx.blockIdx()], sh.get(ctx, 0));
        };

        gpusim::LaunchSequence seq;
        seq.add(gpusim::recordKernel(launch, kernel));
        sum = std::accumulate(blockSums.begin(), blockSums.end(), 0.0);
        digest = uint64_t(sum);
        return seq;
    }

    uint64_t checksum() const override { return digest; }
    double result() const { return sum; }

  private:
    double sum = 0.0;
    uint64_t digest = 0;
};

} // namespace

int
main()
{
    core::registerAllWorkloads();
    core::Registry::instance().add(
        kInfo, [] { return std::make_unique<SaxpyReduce>(); });

    auto w = core::Registry::instance().create("saxpyred");
    auto cpu = core::characterizeCpu(*w, core::Scale::Small);
    std::printf("CPU:  %llu instructions, miss rate @128kB = %.4f, "
                "sum checksum %llu\n",
                (unsigned long long)cpu.mix.total(),
                cpu.sweep.front().missRate(),
                (unsigned long long)cpu.checksum);

    auto seq = w->runGpu(core::Scale::Small, 1);
    auto config = gpusim::SimConfig::gpgpusimDefault();
    auto trace = gpusim::analyzeTrace(seq, config.warpSize);
    auto timing = gpusim::TimingSim(config).simulate(seq);
    std::printf("GPU:  IPC %.1f over %llu cycles, avg occupancy %.1f, "
                "sum checksum %llu\n",
                timing.ipc(), (unsigned long long)timing.cycles,
                trace.avgWarpOccupancy(), (unsigned long long)w->checksum());
    bool same = cpu.checksum == w->checksum();
    std::printf("\nCPU and GPU computed %s result.\n",
                same ? "the SAME" : "a DIFFERENT");
    return same ? 0 : 1;
}
