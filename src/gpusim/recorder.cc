#include "gpusim/recorder.hh"

#include <ucontext.h>

#include <cstdint>
#include <memory>

#include "support/logging.hh"

namespace rodinia {
namespace gpusim {

namespace {

constexpr size_t fiberStackBytes = 128 * 1024;
constexpr uint64_t sharedBase = 0x10000;
/**
 * Runaway-kernel guard. Sized for the streamed LaneStream encoding
 * (~3-5 B/event, so a maximal launch is ~1-1.5 GB): paper-scale
 * kmeans records ~90 M thread events in one launch and must fit.
 * Before streaming this was 80 M — the materialized 32 B GEvent
 * vectors made anything larger unaffordable.
 */
constexpr uint64_t maxEventsPerLaunch = 320ULL * 1000 * 1000;

/**
 * Recycles fiber stacks across the blocks of one launch. Blocks run
 * sequentially, so at most blockDim stacks are live at once; without
 * the pool every block re-allocates (and re-faults) blockDim x 128 KB
 * of stack, which dominates recording time for launches with many
 * blocks.
 */
class StackPool
{
  public:
    std::unique_ptr<char[]>
    get()
    {
        if (!free.empty()) {
            auto s = std::move(free.back());
            free.pop_back();
            return s;
        }
        return std::make_unique<char[]>(fiberStackBytes);
    }

    void
    put(std::unique_ptr<char[]> s)
    {
        free.push_back(std::move(s));
    }

  private:
    std::vector<std::unique_ptr<char[]>> free;
};

} // namespace

/**
 * Executes the threads of one block as fibers, giving real barrier
 * and shared-memory semantics while recording per-lane traces.
 */
class BlockRunner
{
  public:
    BlockRunner(const LaunchConfig &launch, const Kernel &kernel,
                int block_idx, StackPool &stacks, DeviceSpace &dev)
        : dev(dev), launch(launch), kernel(kernel), blockIdx(block_idx),
          stacks(stacks)
    {
    }

    BlockRecord run();

    /** Fiber-yielding barrier, called from KernelCtx::sync(). */
    void
    barrier(int tid)
    {
        fibers[tid].atBarrier = true;
        swapcontext(&fibers[tid].ctx, &schedCtx);
    }

    /**
     * Order-stable per-block shared-memory allocator: every thread
     * performs the same allocation sequence; the first performer
     * creates the buffer, later threads attach by cursor.
     */
    void *
    sharedAlloc(size_t &cursor, size_t bytes, size_t align,
                uint64_t &base_addr)
    {
        if (cursor == allocs.size()) {
            SharedAllocation a;
            uint64_t aligned = (sharedTop + align - 1) / align * align;
            a.base = aligned;
            a.buf.assign(bytes, std::byte{0});
            sharedTop = aligned + bytes;
            allocs.push_back(std::move(a));
        }
        SharedAllocation &a = allocs[cursor];
        if (a.buf.size() != bytes)
            fatal("shared allocation sequence diverged across threads "
                  "(block ", blockIdx, ", alloc #", cursor, ")");
        base_addr = a.base;
        ++cursor;
        return a.buf.data();
    }

    uint64_t eventBudgetUsed = 0;
    DeviceSpace &dev; //!< translates KernelCtx::record's addresses

  private:
    struct Fiber
    {
        ucontext_t ctx;
        std::unique_ptr<char[]> stack;
        bool done = false;
        bool atBarrier = false;
    };

    struct SharedAllocation
    {
        std::vector<std::byte> buf;
        uint64_t base = 0;
    };

    static void trampoline(unsigned hi, unsigned lo);

    void
    runThreadBody()
    {
        kernel(*ctxs[currentThread]);
        fibers[currentThread].done = true;
    }

    LaunchConfig launch;
    const Kernel &kernel;
    int blockIdx;
    StackPool &stacks;

    ucontext_t schedCtx;
    std::vector<Fiber> fibers;
    std::vector<std::unique_ptr<KernelCtx>> ctxs;
    int currentThread = 0;

    std::vector<SharedAllocation> allocs;
    uint64_t sharedTop = sharedBase;
};

void
BlockRunner::trampoline(unsigned hi, unsigned lo)
{
    auto *self = reinterpret_cast<BlockRunner *>(
        (uint64_t(hi) << 32) | uint64_t(lo));
    self->runThreadBody();
    // Returning lets ucontext follow uc_link back to the scheduler.
}

BlockRecord
BlockRunner::run()
{
    const int n = launch.blockDim;
    fibers.resize(n);
    ctxs.clear();
    for (int t = 0; t < n; ++t)
        ctxs.push_back(
            std::make_unique<KernelCtx>(this, t, blockIdx, launch));

    uint64_t self_bits = uint64_t(uintptr_t(this));
    for (int t = 0; t < n; ++t) {
        Fiber &f = fibers[t];
        f.stack = stacks.get();
        if (getcontext(&f.ctx) != 0)
            panic("getcontext failed");
        f.ctx.uc_stack.ss_sp = f.stack.get();
        f.ctx.uc_stack.ss_size = fiberStackBytes;
        f.ctx.uc_link = &schedCtx;
        makecontext(&f.ctx, reinterpret_cast<void (*)()>(trampoline), 2,
                    unsigned(self_bits >> 32), unsigned(self_bits));
    }

    // Scheduler: run every live, unblocked fiber in thread order;
    // when all live fibers sit at the barrier, release them together.
    while (true) {
        bool all_done = true;
        for (int t = 0; t < n; ++t) {
            Fiber &f = fibers[t];
            if (f.done || f.atBarrier) {
                all_done = all_done && f.done;
                continue;
            }
            currentThread = t;
            swapcontext(&schedCtx, &f.ctx);
            all_done = all_done && f.done;
        }
        if (all_done)
            break;
        // Every fiber is now done or at a barrier: release the phase.
        for (int t = 0; t < n; ++t)
            fibers[t].atBarrier = false;
    }

    BlockRecord rec;
    rec.blockDim = n;
    rec.sharedBytes = sharedTop - sharedBase;
    rec.lanes.reserve(n);
    for (int t = 0; t < n; ++t) {
        ctxs[t]->flushPending();
        ctxs[t]->events.shrinkToFit();
        eventBudgetUsed += ctxs[t]->events.size();
        rec.lanes.push_back(std::move(ctxs[t]->events));
        stacks.put(std::move(fibers[t].stack));
    }
    return rec;
}

KernelCtx::KernelCtx(BlockRunner *runner, int tid, int block_idx,
                     const LaunchConfig &launch)
    : runner(runner), threadId(tid), blockId(block_idx), cfg(launch)
{
}

OrderKey
KernelCtx::currentKey(uint16_t event_pc) const
{
    OrderKey k = keyBase;
    if (pcInHi)
        k.hi |= uint64_t(event_pc) << pcShift;
    else
        k.lo |= uint64_t(event_pc) << pcShift;
    return k;
}

void
KernelCtx::recomputeKeyBase()
{
    uint16_t f[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int levels = loopDepth < 3 ? loopDepth : 3;
    for (int i = 0; i < levels; ++i) {
        f[2 * i] = uint16_t(loopStack[i] >> 16);
        f[2 * i + 1] = uint16_t(loopStack[i]);
    }
    keyBase.hi = (uint64_t(f[0]) << 48) | (uint64_t(f[1]) << 32) |
                 (uint64_t(f[2]) << 16) | uint64_t(f[3]);
    keyBase.lo = (uint64_t(f[4]) << 48) | (uint64_t(f[5]) << 32) |
                 (uint64_t(f[6]) << 16) | uint64_t(f[7]);
    // The event PC occupies slot 2*levels of the same layout.
    int slot = 2 * levels;
    pcInHi = slot < 4;
    pcShift = 48 - 16 * (slot & 3);
}

void
KernelCtx::pushLoop(uint16_t pc, uint32_t iter)
{
    if (loopDepth >= 8)
        fatal("LoopIter nesting deeper than 8");
    uint32_t it = iter + 1;
    if (it > 0xffff)
        it = 0xffff;
    loopStack[loopDepth++] = (uint32_t(pc) << 16) | it;
    recomputeKeyBase();
}

void
KernelCtx::popLoop()
{
    if (loopDepth <= 0)
        panic("LoopIter pop without push");
    --loopDepth;
    recomputeKeyBase();
}

void
KernelCtx::record(GOp op, Space space, uint64_t addr, uint32_t size,
                  const std::source_location &loc, uint32_t count)
{
    OrderKey key = currentKey(packPc(loc));
    if ((op == GOp::IntAlu || op == GOp::FpAlu) && hasPending &&
        pending.op == op && pending.key == key &&
        uint64_t(pending.count) + count <= 0xffffffffu) {
        // Merge only while the 32-bit repeat counter has room; a
        // kernel issuing >4G ALU ops at one site spills into a
        // fresh event instead of silently wrapping. The last event
        // lives in `pending` (not yet committed to the append-only
        // stream) precisely so this merge can mutate it.
        pending.count += count;
        return;
    }
    if (runner->eventBudgetUsed + events.size() + (hasPending ? 1 : 0) >
        maxEventsPerLaunch)
        fatal("kernel trace exceeds ", maxEventsPerLaunch,
              " events; reduce the problem size");
    // Shared addresses come from the block's bump allocator and are
    // already virtual; every other memory space holds host addresses.
    if ((op == GOp::Load || op == GOp::Store) && space != Space::Shared &&
        space != Space::None)
        addr = runner->dev.translate(addr);
    flushPending();
    pending.key = key;
    pending.addr = addr;
    pending.size = size;
    pending.count = count;
    pending.op = op;
    pending.space = space;
    hasPending = true;
}

void
KernelCtx::sync(std::source_location loc)
{
    record(GOp::Sync, Space::None, 0, 0, loc);
    runner->barrier(threadId);
}

void *
KernelCtx::sharedAlloc(size_t bytes, size_t align, uint64_t &base_addr)
{
    return runner->sharedAlloc(sharedCursor, bytes, align, base_addr);
}

KernelRecording
recordKernel(const LaunchConfig &launch, const Kernel &kernel,
             DeviceSpace &dev)
{
    if (launch.gridDim < 1 || launch.blockDim < 1)
        fatal("recordKernel: invalid launch geometry");

    KernelRecording rec;
    rec.launch = launch;
    rec.blocks.reserve(launch.gridDim);
    StackPool stacks;
    uint64_t budget = 0;
    for (int b = 0; b < launch.gridDim; ++b) {
        BlockRunner runner(launch, kernel, b, stacks, dev);
        runner.eventBudgetUsed = budget;
        rec.blocks.push_back(runner.run());
        budget = runner.eventBudgetUsed;
    }
    return rec;
}

uint64_t
KernelRecording::threadInstructions() const
{
    uint64_t n = 0;
    for (const auto &block : blocks)
        for (const auto &lane : block.lanes)
            lane.forEach([&](const GEvent &e) {
                n += e.op == GOp::Sync ? 1 : e.count;
            });
    return n;
}

uint64_t
LaunchSequence::threadInstructions() const
{
    uint64_t n = 0;
    for (const auto &l : launches)
        n += l.threadInstructions();
    return n;
}

namespace {

/**
 * splitmix64-style word mixer. Recordings run to tens of millions of
 * events, and byte-at-a-time FNV-1a over them costs seconds per
 * process; this absorbs a 64-bit word in a handful of ALU ops while
 * still diffusing every input bit across the state. Deterministic
 * and platform-independent, which is all the store key needs.
 */
inline uint64_t
mixWord(uint64_t h, uint64_t v)
{
    uint64_t x = h + 0x9e3779b97f4a7c15ull + v;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

} // namespace

uint64_t
contentHash(const KernelRecording &rec)
{
    uint64_t h = 0x6a09e667f3bcc908ull; // arbitrary fixed seed
    h = mixWord(h, uint64_t(rec.launch.gridDim));
    h = mixWord(h, uint64_t(rec.launch.blockDim));
    h = mixWord(h, uint64_t(rec.blocks.size()));
    for (const auto &block : rec.blocks) {
        h = mixWord(h, uint64_t(block.blockDim));
        h = mixWord(h, block.sharedBytes);
        h = mixWord(h, uint64_t(block.lanes.size()));
        for (const auto &lane : block.lanes) {
            h = mixWord(h, uint64_t(lane.size()));
            lane.forEach([&](const GEvent &e) {
                // Field-by-field over the decoded event (a GEvent
                // has padding bytes whose contents are unspecified),
                // so the digest is a pure function of the logical
                // trace, not of LaneStream's byte encoding: store
                // keys survive an encoding change, and the recorded
                // addresses are canonical, so they survive a change
                // of heap layout too. Two mix rounds per event,
                // not five: each field is premixed with a distinct
                // odd multiplier so contributions cannot cancel by
                // simple XOR alignment, and the full avalanche runs
                // on the combined words. This loop hashes tens of
                // millions of events per run, so the round count is
                // what the recording phase pays.
                uint64_t w1 =
                    e.key.hi * 0x9e3779b97f4a7c15ull + e.key.lo;
                uint64_t w2 =
                    e.addr +
                    ((uint64_t(e.size) << 32) |
                     (uint64_t(e.count) & 0xffffffffu)) *
                        0xc2b2ae3d27d4eb4full +
                    ((uint64_t(uint8_t(e.op)) << 8) |
                     uint64_t(uint8_t(e.space))) *
                        0xff51afd7ed558ccdull;
                h = mixWord(mixWord(h, w1), w2);
            });
        }
    }
    return h;
}

uint64_t
contentHash(const LaunchSequence &seq)
{
    uint64_t h = mixWord(0x6a09e667f3bcc908ull,
                         uint64_t(seq.launches.size()));
    for (const auto &rec : seq.launches)
        h = mixWord(h, contentHash(rec));
    return h;
}

} // namespace gpusim
} // namespace rodinia
