#include "workloads/rodinia/mummer.hh"

#include <algorithm>

#include "gpusim/devicemem.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "mummer",
    "MUMmer",
    core::Suite::Rodinia,
    "Graph Traversal",
    "Bioinformatics",
    "16384 25-character queries vs 128k-base reference",
    "Suffix-tree query matching (MUMmerGPU, Schatz et al.)",
    "50000 25-char queries (Table I), 1M-base reference",
};

} // namespace

SuffixTree::SuffixTree(std::vector<uint8_t> text_in,
                       trace::ThreadCtx *ctx)
    : text(std::move(text_in))
{
    if (text.empty() || text.back() != kTerm)
        fatal("SuffixTree: text must end with the terminal symbol");
    build(ctx);
}

int
SuffixTree::newNode(int start, int end)
{
    Node n;
    n.start = start;
    n.end = end;
    n.slink = 0;
    nodes.push_back(n);
    return int(nodes.size()) - 1;
}

void
SuffixTree::build(trace::ThreadCtx *ctx)
{
    const int n = int(text.size());
    nodes.reserve(size_t(2) * n);
    newNode(-1, -1); // root

    int activeNode = 0;
    int activeEdge = 0;   // index into text
    int activeLength = 0;
    int remainder = 0;
    int needSlink = -1;

    auto addSlink = [&](int node) {
        if (needSlink > 0) {
            nodes[needSlink].slink = node;
            if (ctx)
                ctx->store(&nodes[needSlink].slink, 4);
        }
        needSlink = node;
    };

    for (int pos = 0; pos < n; ++pos) {
        needSlink = -1;
        ++remainder;
        if (ctx) {
            ctx->load(&text[pos], 1);
            ctx->alu(2);
        }
        while (remainder > 0) {
            if (activeLength == 0)
                activeEdge = pos;
            int c = text[activeEdge];
            if (ctx) {
                ctx->load(&text[activeEdge], 1);
                ctx->load(&nodes[activeNode].ch[c], 4);
                ctx->branch();
            }
            if (nodes[activeNode].ch[c] == -1) {
                int leaf = newNode(pos, leafSentinel);
                nodes[activeNode].ch[c] = leaf;
                if (ctx)
                    ctx->store(&nodes[activeNode].ch[c], 4);
                addSlink(activeNode);
            } else {
                int nxt = nodes[activeNode].ch[c];
                int el = std::min(edgeEnd(nodes[nxt]), pos + 1) -
                         nodes[nxt].start;
                if (ctx) {
                    ctx->load(&nodes[nxt].start, 8);
                    ctx->alu(3);
                    ctx->branch();
                }
                if (activeLength >= el) {
                    activeNode = nxt;
                    activeEdge += el;
                    activeLength -= el;
                    continue;
                }
                if (ctx) {
                    ctx->load(&text[nodes[nxt].start + activeLength], 1);
                    ctx->branch();
                }
                if (text[nodes[nxt].start + activeLength] == text[pos]) {
                    ++activeLength;
                    addSlink(activeNode);
                    break;
                }
                int split = newNode(nodes[nxt].start,
                                    nodes[nxt].start + activeLength);
                nodes[activeNode].ch[c] = split;
                int leaf = newNode(pos, leafSentinel);
                nodes[split].ch[text[pos]] = leaf;
                nodes[nxt].start += activeLength;
                nodes[split].ch[text[nodes[nxt].start]] = nxt;
                if (ctx) {
                    ctx->store(&nodes[activeNode].ch[c], 4);
                    ctx->store(&nodes[split].ch[0], 20);
                    ctx->store(&nodes[nxt].start, 4);
                    ctx->alu(4);
                }
                addSlink(split);
            }
            --remainder;
            if (activeNode == 0 && activeLength > 0) {
                --activeLength;
                activeEdge = pos - remainder + 1;
            } else if (activeNode != 0) {
                activeNode = nodes[activeNode].slink;
                if (ctx)
                    ctx->load(&nodes[activeNode].slink, 4);
            }
            if (ctx)
                ctx->branch(2);
        }
    }
}

int
SuffixTree::matchLength(const uint8_t *q, int len) const
{
    int node = 0;
    int matched = 0;
    while (matched < len) {
        int child = nodes[node].ch[q[matched]];
        if (child < 0)
            return matched;
        int e0 = nodes[child].start;
        int e1 = edgeEnd(nodes[child]);
        for (int i = e0; i < e1; ++i) {
            if (matched == len || text[i] != q[matched])
                return matched;
            ++matched;
        }
        node = child;
    }
    return matched;
}

Mummer::Params
Mummer::params(core::Scale scale)
{
    switch (scale) {
      case core::Scale::Tiny:
        return {1024, 512, 25};
      case core::Scale::Small:
        return {4096, 2048, 25};
      case core::Scale::Paper:
        return {1048576, 50000, 25};
      case core::Scale::Full:
      default:
        return {131072, 16384, 25};
    }
}

const core::WorkloadInfo &
Mummer::info() const
{
    return kInfo;
}

namespace {

/** Reference text plus mostly-derived queries with mutations. */
void
makeInput(const Mummer::Params &p, std::vector<uint8_t> &ref,
          std::vector<uint8_t> &queries)
{
    Rng rng(0x3B3);
    ref.resize(p.refLen + 1);
    for (int i = 0; i < p.refLen; ++i)
        ref[i] = uint8_t(rng.below(4));
    ref[p.refLen] = SuffixTree::kTerm;

    queries.resize(size_t(p.numQueries) * p.queryLen);
    for (int q = 0; q < p.numQueries; ++q) {
        uint8_t *dst = &queries[size_t(q) * p.queryLen];
        if (rng.chance(0.8)) {
            int start = int(rng.below(uint64_t(p.refLen - p.queryLen)));
            for (int j = 0; j < p.queryLen; ++j)
                dst[j] = ref[start + j];
            // A point mutation makes match lengths diverge.
            if (rng.chance(0.7))
                dst[rng.below(uint64_t(p.queryLen))] =
                    uint8_t(rng.below(4));
        } else {
            for (int j = 0; j < p.queryLen; ++j)
                dst[j] = uint8_t(rng.below(4));
        }
    }
}

} // namespace

void
Mummer::runCpu(trace::TraceSession &session, core::Scale scale)
{
    const Params p = params(scale);
    std::vector<uint8_t> ref, queries;
    makeInput(p, ref, queries);
    std::vector<int> results(p.numQueries, 0);
    const int nt = session.numThreads();
    SuffixTree *treePtr = nullptr;

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(110 * 1024);
        const int t = ctx.tid();
        // Thread 0 builds the suffix tree (Ukkonen), instrumented.
        if (t == 0)
            treePtr = new SuffixTree(ref, &ctx);
        ctx.barrier();
        const SuffixTree &tree = *treePtr;
        const auto &nodes = tree.allNodes();
        const auto &text = tree.textData();

        const int lo = p.numQueries * t / nt;
        const int hi = p.numQueries * (t + 1) / nt;
        for (int q = lo; q < hi; ++q) {
            const uint8_t *qs = &queries[size_t(q) * p.queryLen];
            int node = 0;
            int matched = 0;
            bool done = false;
            while (!done && matched < p.queryLen) {
                ctx.load(&qs[matched], 1);
                int child = ctx.ld(&nodes[node].ch[qs[matched]]);
                ctx.branch();
                if (child < 0)
                    break;
                int e0 = ctx.ld(&nodes[child].start);
                int e1 = tree.edgeEnd(nodes[child]);
                ctx.alu(2);
                for (int i = e0; i < e1; ++i) {
                    ctx.load(&text[i], 1);
                    ctx.branch();
                    if (matched == p.queryLen ||
                        text[i] != qs[matched]) {
                        done = true;
                        break;
                    }
                    ++matched;
                }
                node = child;
            }
            ctx.st(&results[q], matched);
        }
        ctx.barrier();
        if (t == 0) {
            delete treePtr;
            treePtr = nullptr;
        }
    });

    digest = core::hashRange(results.begin(), results.end());
}

gpusim::LaunchSequence
Mummer::runGpu(core::Scale scale, int version)
{
    (void)version;
    const Params p = params(scale);
    std::vector<uint8_t> ref, queries;
    makeInput(p, ref, queries);
    std::vector<int> results(p.numQueries, 0);

    // Host-side tree construction (Ukkonen), then "transfer": the
    // kernel reads the node arrays through the texture path, as
    // MUMmerGPU stores the tree in 2-D textures.
    SuffixTree tree(ref, nullptr);
    const auto &nodes = tree.allNodes();
    const auto &text = tree.textData();

    gpusim::DeviceSpace dev;
    dev.add(queries);
    dev.add(nodes);
    dev.add(text);
    dev.add(results);

    gpusim::LaunchConfig launch;
    launch.blockDim = 128;
    launch.gridDim = (p.numQueries + launch.blockDim - 1) /
                     launch.blockDim;

    auto kernel = [&](gpusim::KernelCtx &ctx) {
        int q = ctx.globalId();
        if (ctx.branch(q >= p.numQueries))
            return;
        const uint8_t *qs = &queries[size_t(q) * p.queryLen];
        int node = 0;
        int matched = 0;
        bool done = false;
        int step = 0;
        while (!done && matched < p.queryLen) {
            gpusim::LoopIter li(ctx, uint32_t(step++));
            uint8_t qc = ctx.ldg(&qs[matched]);
            int child = ctx.ldt(&nodes[node].ch[qc]);
            if (ctx.branch(child < 0))
                break;
            int e0 = ctx.ldt(&nodes[child].start);
            int e1 = tree.edgeEnd(nodes[child]);
            ctx.alu(2);
            for (int i = e0; i < e1; ++i) {
                gpusim::LoopIter li2(ctx, uint32_t(i - e0));
                uint8_t tc = ctx.ldt(&text[i]);
                if (ctx.branch(matched == p.queryLen ||
                               tc != qs[matched])) {
                    done = true;
                    break;
                }
                ++matched;
            }
            node = child;
        }
        ctx.stg(&results[q], matched);
    };
    gpusim::LaunchSequence seq;
    seq.add(gpusim::recordKernel(launch, kernel, dev));

    digest = core::hashRange(results.begin(), results.end());
    return seq;
}

void
registerMummer()
{
    core::Registry::instance().add(
        kInfo, [] { return std::make_unique<Mummer>(); });
}

} // namespace workloads
} // namespace rodinia
