#include "workloads/parsec/parsec.hh"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "support/rng.hh"
#include "workloads/parsec/pipeline.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "dedup",
    "Dedup",
    core::Suite::Parsec,
    "Combinational Logic",
    "Enterprise Storage",
    "1 MB stream, 4-stage pipeline",
    "Pipelined content-defined chunking, deduplication, compression",
    "4 MiB stream",
};

struct Chunk
{
    const uint8_t *data;
    int len;
    int id;
};

} // namespace

const core::WorkloadInfo &
Dedup::info() const
{
    return kInfo;
}

void
Dedup::runCpu(trace::TraceSession &session, core::Scale scale)
{
    int bytes;
    switch (scale) {
      case core::Scale::Tiny:
        bytes = 64 * 1024;
        break;
      case core::Scale::Small:
        bytes = 256 * 1024;
        break;
      case core::Scale::Paper:
        bytes = 4 * 1024 * 1024;
        break;
      default:
        bytes = 1024 * 1024;
        break;
    }

    // Synthetic input with heavy redundancy: repeated phrases with
    // occasional mutation, so deduplication actually fires.
    Rng rng(0xDED);
    std::vector<uint8_t> input(bytes);
    std::vector<uint8_t> phrase(509);
    for (auto &c : phrase)
        c = uint8_t(rng.below(256));
    for (int i = 0; i < bytes; ++i) {
        input[i] = phrase[i % phrase.size()];
        if (rng.chance(0.001))
            input[i] = uint8_t(rng.below(256));
    }

    const int nt = session.numThreads();
    if (nt < 3)
        throw std::invalid_argument(
            "dedup's pipeline needs at least 3 threads, got " +
            std::to_string(nt));

    // Deterministic pipeline lanes: the chunker routes each chunk by
    // a content key, lane L's deduplicator feeds lane L's compressor
    // through a single-producer single-consumer queue, so every
    // thread sees an arrival order that is a pure function of the
    // input. Content routing also makes the dedup decision
    // lane-local: equal chunks always land in the same lane, so "who
    // saw this fingerprint first" no longer races across threads.
    const int lanes = (nt - 1) / 2;
    std::vector<std::unique_ptr<BoundedQueue<Chunk>>> chunkQ;
    std::vector<std::unique_ptr<BoundedQueue<Chunk>>> uniqueQ;
    for (int l = 0; l < lanes; ++l) {
        chunkQ.push_back(std::make_unique<BoundedQueue<Chunk>>(128));
        uniqueQ.push_back(std::make_unique<BoundedQueue<Chunk>>(128));
    }
    std::vector<uint64_t> compressedSizes(4096, 0);
    std::atomic<int> uniqueCount{0};
    std::atomic<int> dupCount{0};
    std::atomic<uint64_t> outBytes{0};

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(90 * 1024);
        const int t = ctx.tid();
        if (t == 0) {
            // Stage 1: content-defined chunking via a rolling hash.
            // The boundary hash doubles as the routing key — it is a
            // content digest of the chunk, so identical chunks route
            // identically.
            uint64_t h = 0;
            int start = 0;
            int id = 0;
            for (int i = 0; i < bytes; ++i) {
                ctx.load(&input[i], 1);
                ctx.alu(3);
                h = h * 131 + input[i];
                bool boundary = (h & 0x3ff) == 0 ||
                                i - start >= 4096 || i == bytes - 1;
                ctx.branch();
                if (boundary) {
                    int lane = int((h >> 10) % uint64_t(lanes));
                    chunkQ[size_t(lane)]->push(
                        {&input[start], i - start + 1, id++});
                    start = i + 1;
                    h = 0;
                }
            }
            for (int l = 0; l < lanes; ++l)
                chunkQ[size_t(l)]->close();
        } else if (t <= lanes) {
            // Stage 2: deduplicate this lane's chunks by fingerprint
            // (lane-local table; routing already partitioned by
            // content).
            const int lane = t - 1;
            std::unordered_map<uint64_t, int> table;
            while (auto c = chunkQ[size_t(lane)]->pop()) {
                uint64_t fp = 1469598103934665603ULL;
                for (int i = 0; i < c->len; ++i) {
                    ctx.load(&c->data[i], 1);
                    ctx.alu(2);
                    fp = (fp ^ c->data[i]) * 1099511628211ULL;
                }
                bool fresh = table.emplace(fp, c->id).second;
                ctx.branch();
                if (fresh) {
                    uniqueCount.fetch_add(1);
                    uniqueQ[size_t(lane)]->push(*c);
                } else {
                    dupCount.fetch_add(1);
                }
            }
            uniqueQ[size_t(lane)]->close();
        } else if (t <= 2 * lanes) {
            // Stage 3: "compress" unique chunks (delta + RLE sizing).
            const int lane = t - 1 - lanes;
            while (auto c = uniqueQ[size_t(lane)]->pop()) {
                int runs = 1;
                for (int i = 1; i < c->len; ++i) {
                    ctx.load(&c->data[i], 1);
                    ctx.alu(1);
                    ctx.branch();
                    if (c->data[i] != c->data[i - 1])
                        ++runs;
                }
                uint64_t sz = uint64_t(runs) * 2;
                outBytes.fetch_add(sz);
                if (c->id < int(compressedSizes.size()))
                    ctx.store(&compressedSizes[c->id], 8);
            }
        }
        // Stage 4: reassembly scan once the pipeline drains (any
        // thread beyond the lane pairs, e.g. t = 7 of 8).
        ctx.barrier();
        if (t == 2 * lanes + 1) {
            for (size_t i = 0; i < compressedSizes.size(); ++i) {
                ctx.load(&compressedSizes[i], 8);
                ctx.alu(1);
            }
        }
    });

    digest = core::hashCombine(uint64_t(uniqueCount.load()),
                               uint64_t(dupCount.load()));
    digest = core::hashCombine(digest, outBytes.load());
}

void
registerDedup()
{
    core::Registry::instance().add(
        kInfo, [] { return std::make_unique<Dedup>(); });
}

} // namespace workloads
} // namespace rodinia
