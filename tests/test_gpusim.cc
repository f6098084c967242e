/**
 * @file
 * Unit and property tests for the SIMT GPU simulator: recorder,
 * warp replay (divergence/reconvergence), and the timing model.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "gpusim/recorder.hh"
#include "gpusim/replay.hh"
#include "gpusim/simplecache.hh"
#include "gpusim/timing.hh"
#include "support/metrics.hh"

using namespace rodinia;
using namespace rodinia::gpusim;

namespace {

LaunchConfig
launchOf(int grid, int block)
{
    LaunchConfig l;
    l.gridDim = grid;
    l.blockDim = block;
    return l;
}

} // namespace

TEST(SimpleCache, HitAfterMiss)
{
    SimpleCache c(1024, 4, 64);
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x104));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SimpleCache, EvictsLeastRecentlyUsed)
{
    SimpleCache c(256, 4, 64); // one set of 4 ways
    for (uint64_t i = 0; i < 4; ++i)
        c.access(i * 64);
    c.access(0);      // refresh line 0
    c.access(4 * 64); // evict line 1
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(64));
}

TEST(Recorder, RecordsPerLaneEvents)
{
    std::vector<float> data(64, 1.0f);
    DeviceSpace dev;
    dev.add(data);
    auto rec = recordKernel(launchOf(1, 32), [&](KernelCtx &ctx) {
        ctx.ldg(&data[ctx.tid()]);
        ctx.fp(2);
        ctx.stg(&data[ctx.tid()], 0.0f);
    }, dev);
    ASSERT_EQ(rec.blocks.size(), 1u);
    ASSERT_EQ(rec.blocks[0].lanes.size(), 32u);
    for (const auto &lane : rec.blocks[0].lanes)
        EXPECT_EQ(lane.size(), 3u);
    EXPECT_EQ(rec.threadInstructions(), 32u * 4); // fp(2) counts as 2
}

TEST(Recorder, SharedMemoryCommunicatesAcrossBarrier)
{
    // Classic reverse-through-shared: thread t writes slot t, reads
    // slot (n-1-t) after the barrier. Fails unless barriers really
    // order the phases.
    const int n = 64;
    std::vector<int> out(n, -1);
    DeviceSpace dev;
    recordKernel(launchOf(1, n), [&](KernelCtx &ctx) {
        auto sh = ctx.shared<int>(n);
        sh.put(ctx, ctx.tid(), ctx.tid() * 10);
        ctx.sync();
        out[ctx.tid()] = sh.get(ctx, n - 1 - ctx.tid());
    }, dev);
    for (int t = 0; t < n; ++t)
        EXPECT_EQ(out[t], (n - 1 - t) * 10);
}

TEST(Recorder, MultiPhaseProducerConsumer)
{
    // Iterated neighbor passing: value must travel one slot per
    // barrier phase.
    const int n = 16;
    std::vector<int> out(n, 0);
    DeviceSpace dev;
    recordKernel(launchOf(1, n), [&](KernelCtx &ctx) {
        auto sh = ctx.shared<int>(n);
        sh.put(ctx, ctx.tid(), ctx.tid());
        ctx.sync();
        for (int step = 0; step < 3; ++step) {
            gpusim::LoopIter li(ctx, step);
            int v = sh.get(ctx, (ctx.tid() + 1) % n);
            ctx.sync();
            sh.put(ctx, ctx.tid(), v);
            ctx.sync();
        }
        out[ctx.tid()] = sh.get(ctx, ctx.tid());
    }, dev);
    for (int t = 0; t < n; ++t)
        EXPECT_EQ(out[t], (t + 3) % n);
}

TEST(Recorder, SharedBytesTracked)
{
    DeviceSpace dev;
    auto rec = recordKernel(launchOf(2, 8), [&](KernelCtx &ctx) {
        auto a = ctx.shared<float>(128);
        auto b = ctx.shared<double>(16);
        a.put(ctx, 0, 1.0f);
        (void)b;
    }, dev);
    EXPECT_GE(rec.blocks[0].sharedBytes, 128 * 4 + 16 * 8);
}

TEST(Recorder, AluEventsMerge)
{
    DeviceSpace dev;
    auto rec = recordKernel(launchOf(1, 1), [&](KernelCtx &ctx) {
        for (int i = 0; i < 100; ++i)
            ctx.fp(1); // same site, same key: must merge
    }, dev);
    ASSERT_EQ(rec.blocks[0].lanes[0].size(), 1u);
    EXPECT_EQ(rec.blocks[0].lanes[0].decodeAll()[0].count, 100u);
}

TEST(DeviceSpace, RegisteredBuffersGetAlignedBasesInRegistrationOrder)
{
    // Carve three buffers out of one allocation, registering them
    // out of host-address order: canonical bases follow registration
    // order and round each size up to the 256-byte cudaMalloc grain.
    std::vector<char> host(4096);
    const uint64_t at = uint64_t(uintptr_t(host.data()));
    DeviceSpace dev;
    dev.add(host.data() + 2048, 100);
    dev.add(host.data(), 1000);
    dev.add(host.data() + 1024, 8);
    const uint64_t base = DeviceSpace::kDeviceBase;
    EXPECT_EQ(dev.translate(at + 2048), base);
    EXPECT_EQ(dev.translate(at + 2048 + 99), base + 99);
    EXPECT_EQ(dev.translate(at), base + 256);
    EXPECT_EQ(dev.translate(at + 999), base + 256 + 999);
    EXPECT_EQ(dev.translate(at + 1024), base + 256 + 1024);
    EXPECT_EQ(dev.translate(at + 1031), base + 256 + 1024 + 7);
    // A repeat lookup (served by the one-entry cache) agrees.
    EXPECT_EQ(dev.translate(at + 1), base + 256 + 1);
    EXPECT_EQ(dev.translate(at + 1), base + 256 + 1);
}

TEST(DeviceSpace, UnregisteredAddressesFallBackPagewise)
{
    std::vector<char> host(64);
    DeviceSpace dev;
    dev.add(host);
    const uint64_t fallback = DeviceSpace::kHostBase;
    // First touch numbers pages in order; offsets within a page are
    // kept, and a page keeps its number once assigned.
    EXPECT_EQ(dev.translate(0x7f0012345678), fallback + 0x678);
    EXPECT_EQ(dev.translate(0x7f0000001010), fallback + 0x1010);
    EXPECT_EQ(dev.translate(0x7f0012345abc), fallback + 0xabc);
    EXPECT_EQ(dev.translate(0x7f0000001ffc), fallback + 0x1ffc);
    EXPECT_EQ(dev.translate(uint64_t(uintptr_t(host.data())) + 5),
              DeviceSpace::kDeviceBase + 5);
}

TEST(DeviceSpace, RecordingIsIndependentOfHostBuffers)
{
    // The same kernel over two live (so distinct) host buffers, each
    // registered in its own space, records identical traces.
    std::vector<float> first(1000, 1.0f), second(1000, 1.0f);
    float scale = 2.0f;
    auto record = [&](std::vector<float> &data) {
        DeviceSpace dev;
        dev.add(data);
        dev.add(&scale, sizeof(scale));
        return recordKernel(launchOf(4, 64), [&](KernelCtx &ctx) {
            int i = ctx.globalId() * 3 % int(data.size());
            float s = ctx.ldp(&scale);
            ctx.stg(&data[i], s * ctx.ldg(&data[i]));
        }, dev);
    };
    auto a = record(first);
    auto b = record(second);
    ASSERT_NE(first.data(), second.data());
    EXPECT_EQ(contentHash(a), contentHash(b));
    // Lane 0 of block 0 reads the scale parameter (the second
    // registration), then data[0] (the first), then stores it back.
    auto events = a.blocks[0].lanes[0].decodeAll();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].addr, DeviceSpace::kDeviceBase + 4096);
    EXPECT_EQ(events[1].addr, DeviceSpace::kDeviceBase);
    EXPECT_EQ(events[2].addr, DeviceSpace::kDeviceBase);
}

TEST(Replay, UniformKernelFullyOccupied)
{
    std::vector<float> data(32, 0.0f);
    DeviceSpace dev;
    dev.add(data);
    auto rec = recordKernel(launchOf(1, 32), [&](KernelCtx &ctx) {
        ctx.ldg(&data[ctx.tid()]);
        ctx.fp(3);
        ctx.stg(&data[ctx.tid()], 1.0f);
    }, dev);
    auto stats = analyzeTrace(rec);
    auto frac = stats.occupancyFractions();
    EXPECT_DOUBLE_EQ(frac[3], 1.0); // all warp insts 25-32 active
    EXPECT_DOUBLE_EQ(stats.avgWarpOccupancy(), 32.0);
}

TEST(Replay, BranchDivergenceSplitsWarp)
{
    DeviceSpace dev;
    auto rec = recordKernel(launchOf(1, 32), [&](KernelCtx &ctx) {
        if (ctx.branch(ctx.tid() < 8))
            ctx.fp(10);
        else
            ctx.alu(10);
        ctx.fp(1); // reconverged
    }, dev);
    ASSERT_EQ(rec.blocks.size(), 1u);
    WarpReplayer rep(rec.blocks[0], 0, 32);
    WarpInst inst;
    // 1: branch, full warp.
    ASSERT_TRUE(rep.next(inst));
    EXPECT_EQ(inst.op, GOp::Branch);
    EXPECT_EQ(inst.activeLanes(), 32);
    // 2: then-path, 8 lanes.
    ASSERT_TRUE(rep.next(inst));
    EXPECT_EQ(inst.activeLanes(), 8);
    EXPECT_EQ(inst.op, GOp::FpAlu);
    // 3: else-path, 24 lanes.
    ASSERT_TRUE(rep.next(inst));
    EXPECT_EQ(inst.activeLanes(), 24);
    EXPECT_EQ(inst.op, GOp::IntAlu);
    // 4: reconverged, 32 lanes.
    ASSERT_TRUE(rep.next(inst));
    EXPECT_EQ(inst.activeLanes(), 32);
    EXPECT_FALSE(rep.next(inst));
}

TEST(Replay, LoopTripCountDivergence)
{
    // Lane t iterates t+1 times; with LoopIter the replayer must not
    // merge different iterations, so occupancy decays.
    DeviceSpace dev;
    auto rec = recordKernel(launchOf(1, 32), [&](KernelCtx &ctx) {
        for (int i = 0; i <= ctx.tid(); ++i) {
            LoopIter li(ctx, i);
            ctx.fp(1);
        }
    }, dev);
    WarpReplayer rep(rec.blocks[0], 0, 32);
    WarpInst inst;
    int step = 0;
    while (rep.next(inst)) {
        // Iteration i has 32 - i active lanes.
        EXPECT_EQ(inst.activeLanes(), 32 - step);
        ++step;
    }
    EXPECT_EQ(step, 32);
}

TEST(Replay, PartialLastWarp)
{
    DeviceSpace dev;
    auto rec = recordKernel(launchOf(1, 40), [&](KernelCtx &ctx) {
        ctx.fp(1);
    }, dev);
    auto stats = analyzeTrace(rec);
    // Warp 0 fully occupied; warp 1 has 8 lanes.
    EXPECT_EQ(stats.occupancyBuckets[3], 1u);
    EXPECT_EQ(stats.occupancyBuckets[0], 1u);
}

TEST(Replay, MemOpsBrokenDownBySpace)
{
    std::vector<float> g(32), t(32);
    float c = 1.0f;
    DeviceSpace dev;
    dev.add(g);
    dev.add(t);
    dev.add(&c, sizeof(c));
    auto rec = recordKernel(launchOf(1, 32), [&](KernelCtx &ctx) {
        auto sh = ctx.shared<float>(32);
        ctx.ldg(&g[ctx.tid()]);
        ctx.ldt(&t[ctx.tid()]);
        ctx.ldc(&c);
        ctx.ldp(&c);
        sh.put(ctx, ctx.tid(), 0.0f);
    }, dev);
    auto stats = analyzeTrace(rec);
    EXPECT_EQ(stats.memOps[size_t(Space::Global)], 32u);
    EXPECT_EQ(stats.memOps[size_t(Space::Tex)], 32u);
    EXPECT_EQ(stats.memOps[size_t(Space::Const)], 32u);
    EXPECT_EQ(stats.memOps[size_t(Space::Param)], 32u);
    EXPECT_EQ(stats.memOps[size_t(Space::Shared)], 32u);
}

namespace {

/** A compute-heavy kernel: every thread does `n` FP instructions. */
KernelRecording
computeKernel(int grid, int block, int n)
{
    DeviceSpace dev;
    return recordKernel(launchOf(grid, block), [&](KernelCtx &ctx) {
        for (int i = 0; i < n; ++i)
            ctx.fp(1);
    }, dev);
}

/** A streaming kernel reading one float per thread per rep. */
KernelRecording
streamKernel(std::vector<float> &data, int grid, int block, int reps)
{
    DeviceSpace dev;
    dev.add(data);
    return recordKernel(launchOf(grid, block), [&](KernelCtx &ctx) {
        for (int r = 0; r < reps; ++r) {
            LoopIter li(ctx, r);
            int i = (r * grid * block + ctx.globalId()) %
                    int(data.size());
            ctx.ldg(&data[i]);
            ctx.fp(1);
        }
    }, dev);
}

} // namespace

TEST(Timing, IpcBoundedByMachineWidth)
{
    auto rec = computeKernel(64, 256, 64);
    SimConfig cfg = SimConfig::gpgpusimDefault();
    TimingSim sim(cfg);
    auto st = sim.simulate(rec);
    EXPECT_GT(st.ipc(), 0.0);
    EXPECT_LE(st.ipc(), double(cfg.numSms) * cfg.warpSize + 1e-9);
    EXPECT_EQ(st.threadInstructions, rec.threadInstructions());
}

TEST(Timing, ComputeKernelScalesWithShaders)
{
    auto rec = computeKernel(112, 256, 128);
    auto st28 = TimingSim(SimConfig::shaders(28)).simulate(rec);
    auto st8 = TimingSim(SimConfig::shaders(8)).simulate(rec);
    // Abundant parallelism: 28 shaders should be ~3.5x faster.
    double speedup = double(st8.cycles) / double(st28.cycles);
    EXPECT_GT(speedup, 2.5);
    EXPECT_LT(speedup, 4.0);
}

TEST(Timing, BandwidthBoundKernelGainsFromChannels)
{
    std::vector<float> data(1 << 20);
    auto rec = streamKernel(data, 64, 256, 16);
    SimConfig c4 = SimConfig::gpgpusimDefault();
    c4.numChannels = 4;
    SimConfig c8 = SimConfig::gpgpusimDefault();
    c8.numChannels = 8;
    auto s4 = TimingSim(c4).simulate(rec);
    auto s8 = TimingSim(c8).simulate(rec);
    EXPECT_LT(s8.cycles, s4.cycles);
    // High utilization on the starved configuration.
    EXPECT_GT(s4.bwUtilization(), 0.5);
}

TEST(Timing, ComputeKernelInsensitiveToChannels)
{
    auto rec = computeKernel(64, 256, 128);
    SimConfig c4 = SimConfig::gpgpusimDefault();
    c4.numChannels = 4;
    SimConfig c8 = SimConfig::gpgpusimDefault();
    c8.numChannels = 8;
    auto s4 = TimingSim(c4).simulate(rec);
    auto s8 = TimingSim(c8).simulate(rec);
    EXPECT_NEAR(double(s8.cycles) / double(s4.cycles), 1.0, 0.05);
}

TEST(Timing, CoalescedBeatsScattered)
{
    std::vector<float> data(1 << 20);
    DeviceSpace dev;
    dev.add(data);
    // Coalesced: lane l reads consecutive addresses.
    auto coalesced =
        recordKernel(launchOf(64, 256), [&](KernelCtx &ctx) {
            for (int r = 0; r < 8; ++r) {
                LoopIter li(ctx, r);
                ctx.ldg(&data[(r * 16384 + ctx.globalId()) %
                              int(data.size())]);
            }
        }, dev);
    // Scattered: lane l reads stride-64 addresses (one transaction
    // per lane).
    auto scattered =
        recordKernel(launchOf(64, 256), [&](KernelCtx &ctx) {
            for (int r = 0; r < 8; ++r) {
                LoopIter li(ctx, r);
                ctx.ldg(&data[(size_t(ctx.globalId()) * 64 + r * 7) %
                              data.size()]);
            }
        }, dev);
    TimingSim sim(SimConfig::gpgpusimDefault());
    auto sc = sim.simulate(coalesced);
    auto ss = sim.simulate(scattered);
    EXPECT_LT(sc.dramTransactions, ss.dramTransactions);
    EXPECT_LT(sc.cycles, ss.cycles);
}

TEST(Timing, BankConflictsSerializeSharedAccess)
{
    DeviceSpace dev;
    auto conflictKernel = recordKernel(
        launchOf(28, 256), [&](KernelCtx &ctx) {
            auto sh = ctx.shared<float>(256 * 16);
            for (int r = 0; r < 32; ++r) {
                LoopIter li(ctx, r);
                // Stride-16 words: every lane hits the same bank.
                sh.put(ctx, size_t(ctx.tid()) * 16, float(r));
            }
        }, dev);
    SimConfig on = SimConfig::gpgpusimDefault();
    on.bankConflictsEnabled = true;
    SimConfig off = on;
    off.bankConflictsEnabled = false;
    auto son = TimingSim(on).simulate(conflictKernel);
    auto soff = TimingSim(off).simulate(conflictKernel);
    EXPECT_GT(son.bankConflictExtraCycles, 0u);
    EXPECT_GT(son.cycles, soff.cycles);
}

TEST(Timing, FermiL1HelpsRereadKernels)
{
    // Each thread re-reads a small per-block working set many times:
    // cacheable in L1, thrashing DRAM without it.
    std::vector<float> data(1 << 18);
    DeviceSpace dev;
    dev.add(data);
    auto rec = recordKernel(launchOf(30, 128), [&](KernelCtx &ctx) {
        for (int r = 0; r < 16; ++r) {
            LoopIter li(ctx, r);
            int base = ctx.blockIdx() * 1024;
            ctx.ldg(&data[(base + (ctx.tid() * 7 + r * 13) % 1024) %
                          int(data.size())]);
        }
    }, dev);
    auto l1bias = TimingSim(SimConfig::gtx480(true)).simulate(rec);
    auto nocache = TimingSim(SimConfig::gtx280()).simulate(rec);
    EXPECT_GT(l1bias.l1Hits, 0u);
    EXPECT_LT(l1bias.dramTransactions, nocache.dramTransactions);
}

TEST(Timing, BarrierKernelCompletes)
{
    // Many barriers with uneven work: must terminate (no deadlock)
    // and produce correct data.
    const int n = 128;
    std::vector<int> out(n, 0);
    DeviceSpace dev;
    auto rec = recordKernel(launchOf(4, n), [&](KernelCtx &ctx) {
        auto sh = ctx.shared<int>(n);
        sh.put(ctx, ctx.tid(), ctx.tid());
        ctx.sync();
        for (int step = 1; step < n; step *= 2) {
            LoopIter li(ctx, uint32_t(step));
            int v = 0;
            if (ctx.branch(ctx.tid() + step < n))
                v = sh.get(ctx, ctx.tid() + step);
            ctx.sync();
            if (ctx.branch(ctx.tid() + step < n)) {
                int mine = sh.get(ctx, ctx.tid());
                sh.put(ctx, ctx.tid(), mine + v);
            }
            ctx.sync();
        }
        if (ctx.branch(ctx.tid() == 0))
            out[ctx.blockIdx()] = sh.get(ctx, 0);
    }, dev);
    // Block-level sum of 0..n-1.
    for (int b = 0; b < 4; ++b)
        EXPECT_EQ(out[b], n * (n - 1) / 2);

    auto st = TimingSim(SimConfig::gpgpusimDefault()).simulate(rec);
    EXPECT_GT(st.cycles, 0u);
    // Committed instructions include the implicit address
    // arithmetic around memory operations.
    EXPECT_GE(st.threadInstructions, rec.threadInstructions());
}

TEST(Timing, DeterministicAcrossRuns)
{
    std::vector<float> data(1 << 16);
    auto rec = streamKernel(data, 16, 128, 8);
    TimingSim sim(SimConfig::gpgpusimDefault());
    auto a = sim.simulate(rec);
    auto b = sim.simulate(rec);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramTransactions, b.dramTransactions);
}

TEST(Timing, LaunchSequenceAddsOverhead)
{
    auto r1 = computeKernel(8, 64, 16);
    LaunchSequence seq;
    seq.add(computeKernel(8, 64, 16));
    seq.add(computeKernel(8, 64, 16));
    TimingSim sim(SimConfig::gpgpusimDefault());
    auto single = sim.simulate(r1);
    auto both = sim.simulate(seq);
    EXPECT_GT(both.cycles, 2 * single.cycles);
    EXPECT_EQ(both.threadInstructions, 2 * single.threadInstructions);
}

TEST(Timing, SimdWidthMattersForCompute)
{
    auto rec = computeKernel(56, 256, 64);
    SimConfig wide = SimConfig::gpgpusimDefault();
    wide.simdWidth = 32;
    SimConfig narrow = SimConfig::gpgpusimDefault();
    narrow.simdWidth = 16;
    auto sw = TimingSim(wide).simulate(rec);
    auto sn = TimingSim(narrow).simulate(rec);
    // Half the SIMD width => roughly double the cycles.
    double ratio = double(sn.cycles) / double(sw.cycles);
    EXPECT_GT(ratio, 1.6);
    EXPECT_LT(ratio, 2.4);
}

TEST(Timing, CtaLimitsReduceLatencyHiding)
{
    // A latency-bound kernel: few dependent scattered loads per
    // thread, light bandwidth demand. With 28 kB of shared memory
    // per block only one CTA fits per SM (2 warps), so load latency
    // cannot be hidden and execution must slow down clearly compared
    // to the 256-float variant (8 CTAs, 16 warps).
    std::vector<float> data(1 << 22);
    auto makeRec = [&](size_t sharedFloats) {
        DeviceSpace dev;
        dev.add(data);
        return recordKernel(launchOf(32, 64), [&](KernelCtx &ctx) {
            auto sh = ctx.shared<float>(sharedFloats);
            sh.put(ctx, ctx.tid() % sharedFloats, 1.0f);
            for (int r = 0; r < 16; ++r) {
                LoopIter li(ctx, r);
                size_t idx = (size_t(ctx.globalId()) * 4099 +
                              size_t(r) * 65537) %
                             data.size();
                ctx.ldg(&data[idx]);
                ctx.fp(4);
            }
        }, dev);
    };
    auto small = makeRec(256);
    auto big = makeRec(7000); // ~28 kB: one CTA per SM
    SimConfig cfg = SimConfig::shaders(4);
    auto ssmall = TimingSim(cfg).simulate(small);
    auto sbig = TimingSim(cfg).simulate(big);
    EXPECT_GT(double(sbig.cycles), 1.2 * double(ssmall.cycles));
}

TEST(Timing, OversubscribedCtaCountsMetric)
{
    // A CTA demanding 64 kB of shared memory can never fit the
    // 32 kB SM, but the placement hatch admits it so the sim makes
    // progress. The guard must count each such admission.
    auto overCount = [] {
        return support::metrics::Registry::global().snapshot().value(
            "gpusim.oversubscribed_cta");
    };
    uint64_t before = overCount();
    std::vector<float> data(64, 0.0f);
    DeviceSpace dev;
    dev.add(data);
    KernelRecording rec =
        recordKernel(launchOf(3, 32), [&](KernelCtx &ctx) {
            auto sh = ctx.shared<double>(8192); // 64 kB > 32 kB SM
            sh.put(ctx, ctx.tid(), 1.0);
            ctx.sync();
            ctx.stg(&data[ctx.tid()],
                    float(sh.get(ctx, ctx.tid())));
        }, dev);
    KernelStats st = TimingSim(SimConfig::gpgpusimDefault()).simulate(rec);
    EXPECT_EQ(overCount(), before + 3);
    EXPECT_GT(st.cycles, 0u);
}

TEST(OversubscribedCtaDeath, StrictModePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::vector<float> data(32, 0.0f);
    DeviceSpace dev;
    dev.add(data);
    KernelRecording rec =
        recordKernel(launchOf(2, 32), [&](KernelCtx &ctx) {
            auto sh = ctx.shared<double>(8192);
            sh.put(ctx, ctx.tid(), 1.0);
            ctx.stg(&data[ctx.tid()], 0.0f);
        }, dev);
    EXPECT_DEATH(
        {
            setenv("RODINIA_STRICT", "1", 1);
            TimingSim(SimConfig::gpgpusimDefault()).simulate(rec);
        },
        "oversubscribed");
}

TEST(Timing, DeadlockDiagnosticsNameEverySm)
{
    std::vector<SmSnapshot> sms(2);
    sms[0].readyWarps = 3;
    sms[0].waitingWarps = 1;
    sms[0].residentCtas = 2;
    sms[0].freeCycle = 120;
    sms[0].nextBound = 130;
    sms[1].nextBound = ~uint64_t(0); // idle sentinel
    std::string msg = formatDeadlockDiagnostics(1000, 5, 12, 7, sms);
    EXPECT_NE(msg.find("cycle 1000"), std::string::npos);
    EXPECT_NE(msg.find("7 of 12 blocks"), std::string::npos);
    EXPECT_NE(msg.find("next block to place: 5"), std::string::npos);
    EXPECT_NE(msg.find("sm0:"), std::string::npos);
    EXPECT_NE(msg.find("ready=3"), std::string::npos);
    EXPECT_NE(msg.find("sm1:"), std::string::npos);
    EXPECT_NE(msg.find("idle"), std::string::npos);
}

// ---------------------------------------------------------------
// SimConfig validation and fingerprinting
// ---------------------------------------------------------------

TEST(SimConfigDeath, RejectsDegenerateGeometry)
{
    SimConfig zero_sms;
    zero_sms.numSms = 0;
    EXPECT_DEATH(zero_sms.validate(), "numSms");

    SimConfig zero_channels;
    zero_channels.numChannels = 0;
    EXPECT_DEATH(zero_channels.validate(), "numChannels");

    SimConfig zero_warp;
    zero_warp.warpSize = 0;
    EXPECT_DEATH(zero_warp.validate(), "warpSize");

    SimConfig ragged_issue;
    ragged_issue.simdWidth = 24; // 32 % 24 != 0
    EXPECT_DEATH(ragged_issue.validate(), "multiple of simdWidth");

    SimConfig odd_coalesce;
    odd_coalesce.coalesceBytes = 48;
    EXPECT_DEATH(odd_coalesce.validate(), "coalesceBytes");

    SimConfig odd_l1_line = SimConfig::gtx480(true);
    odd_l1_line.l1LineBytes = 96;
    EXPECT_DEATH(odd_l1_line.validate(), "l1LineBytes");

    SimConfig odd_l2_line = SimConfig::gtx480(false);
    odd_l2_line.l2LineBytes = 200;
    EXPECT_DEATH(odd_l2_line.validate(), "l2LineBytes");

    SimConfig bad_split = SimConfig::gtx480(true);
    bad_split.sharedMemPerSm = 32 * 1024; // 48 + 32 != 64 kB
    EXPECT_DEATH(bad_split.validate(), "Fermi split");

    SimConfig zero_clock;
    zero_clock.memClockGhz = 0.0;
    EXPECT_DEATH(zero_clock.validate(), "clocks");
}

TEST(SimConfig, EveryPresetValidates)
{
    SimConfig::gpgpusimDefault().validate();
    SimConfig::shaders(8).validate();
    SimConfig::gtx280().validate();
    SimConfig::gtx480(true).validate();
    SimConfig::gtx480(false).validate();
}

TEST(SimConfig, FingerprintCoversEveryField)
{
    // Equal configs fingerprint equally...
    EXPECT_EQ(SimConfig().fingerprint(),
              SimConfig::gpgpusimDefault().fingerprint());

    // ...and flipping any single architectural parameter changes the
    // fingerprint (the store key must never alias two different
    // machines). One mutation per SimConfig field.
    const std::vector<std::function<void(SimConfig &)>> mutations = {
        [](SimConfig &c) { c.numSms = 29; },
        [](SimConfig &c) { c.warpSize = 16; },
        [](SimConfig &c) { c.simdWidth = 8; },
        [](SimConfig &c) { c.maxThreadsPerSm = 768; },
        [](SimConfig &c) { c.maxCtasPerSm = 4; },
        [](SimConfig &c) { c.regFileSize = 32768; },
        [](SimConfig &c) { c.regsPerThread = 20; },
        [](SimConfig &c) { c.sharedMemPerSm = 48 * 1024; },
        [](SimConfig &c) { c.bankConflictsEnabled = false; },
        [](SimConfig &c) { c.sharedBanks = 32; },
        [](SimConfig &c) { c.coreClockGhz = 1.5; },
        [](SimConfig &c) { c.memClockGhz = 2.4; },
        [](SimConfig &c) { c.addressAluPerMem = 2; },
        [](SimConfig &c) { c.numChannels = 6; },
        [](SimConfig &c) { c.dramBusBytes = 8; },
        [](SimConfig &c) { c.coalesceBytes = 128; },
        [](SimConfig &c) { c.gmemLatencyCycles = 400; },
        [](SimConfig &c) { c.launchOverheadCycles = 700; },
        [](SimConfig &c) { c.texCacheBytes = 32 * 1024; },
        [](SimConfig &c) { c.constCacheBytes = 16 * 1024; },
        [](SimConfig &c) { c.texHitLatency = 20; },
        [](SimConfig &c) { c.constHitLatency = 6; },
        [](SimConfig &c) { c.l1Enabled = true; },
        [](SimConfig &c) { c.l1Bytes = 48 * 1024; },
        [](SimConfig &c) { c.l1LineBytes = 64; },
        [](SimConfig &c) { c.l1HitLatency = 30; },
        [](SimConfig &c) { c.l2Enabled = true; },
        [](SimConfig &c) { c.l2Bytes = 512 * 1024; },
        [](SimConfig &c) { c.l2LineBytes = 64; },
        [](SimConfig &c) { c.l2HitLatency = 120; },
    };
    std::set<std::string> prints;
    prints.insert(SimConfig().fingerprint());
    for (size_t i = 0; i < mutations.size(); ++i) {
        SimConfig c;
        mutations[i](c);
        EXPECT_TRUE(prints.insert(c.fingerprint()).second)
            << "mutation " << i << " did not change the fingerprint";
    }
}

// ---------------------------------------------------------------
// KernelStats serialization and merging
// ---------------------------------------------------------------

TEST(KernelStats, SerializeParseRoundTrip)
{
    KernelStats s;
    s.cycles = 0x123456789abcdefull; // > 2^32: payload must be 64-bit
    s.threadInstructions = 987654321098ull;
    s.warpInstructions = 30864197534ull;
    s.occupancyBuckets = {1, 2, 3, 4};
    s.memOps = {5, 6, 7, 8, 9, 10, 11};
    s.dramTransactions = 12;
    s.dramBytes = 13;
    s.channelBusyCycles = 14;
    s.bankConflictExtraCycles = 15;
    s.l1Hits = 16;
    s.l1Misses = 17;
    s.l2Hits = 18;
    s.l2Misses = 19;
    s.texHits = 20;
    s.texMisses = 21;
    s.constHits = 22;
    s.constMisses = 23;
    s.numChannels = 6;
    s.coreClockGhz = 1.4; // not exactly representable: needs
                          // max_digits10 to round-trip

    KernelStats out;
    ASSERT_TRUE(parseKernelStats(serializeKernelStats(s), out));
    EXPECT_TRUE(s == out);
    EXPECT_EQ(serializeKernelStats(out), serializeKernelStats(s));
}

TEST(KernelStats, ParseRejectsMalformedPayloads)
{
    KernelStats out;
    EXPECT_FALSE(parseKernelStats("", out));
    EXPECT_FALSE(parseKernelStats("cpuchar 1\n", out));
    EXPECT_FALSE(parseKernelStats("gpustats 2\n", out)); // bad version
    EXPECT_FALSE(parseKernelStats("gpustats 1\n1 2\n", out)); // truncated
}

TEST(KernelStats, SimulatedStatsRoundTripThroughPayload)
{
    auto rec = computeKernel(8, 64, 32);
    KernelStats s = TimingSim(SimConfig::shaders(4)).simulate(rec);
    KernelStats out;
    ASSERT_TRUE(parseKernelStats(serializeKernelStats(s), out));
    EXPECT_TRUE(s == out);
}

TEST(KernelStats, MergeIsAssociative)
{
    // Launch-sequence aggregation folds left; result assembly in the
    // parallel driver may fold in slot order. Both must agree, so
    // add() has to be associative — including the "last launch wins"
    // config fields (numChannels, coreClockGhz).
    std::vector<float> data(1 << 12);
    KernelStats a = TimingSim(SimConfig::shaders(4))
                        .simulate(computeKernel(8, 64, 32));
    KernelStats b = TimingSim(SimConfig::gtx280())
                        .simulate(streamKernel(data, 4, 64, 4));
    KernelStats c = TimingSim(SimConfig::gtx480(true))
                        .simulate(computeKernel(2, 32, 8));

    KernelStats ab = a;
    ab.add(b);
    KernelStats ab_c = ab;
    ab_c.add(c);

    KernelStats bc = b;
    bc.add(c);
    KernelStats a_bc = a;
    a_bc.add(bc);

    EXPECT_TRUE(ab_c == a_bc);
    EXPECT_EQ(serializeKernelStats(ab_c), serializeKernelStats(a_bc));
}
