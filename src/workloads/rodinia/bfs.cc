#include "workloads/rodinia/bfs.hh"

#include <deque>

#include "gpusim/devicemem.hh"
#include "support/rng.hh"

namespace rodinia {
namespace workloads {

namespace {

const core::WorkloadInfo kInfo = {
    "bfs",
    "Breadth-First Search",
    core::Suite::Rodinia,
    "Graph Traversal",
    "Graph Algorithms",
    "32768 nodes, avg degree 6",
    "Level-synchronous breadth-first traversal of a sparse graph",
    "1048576 nodes, avg degree 6 (Table I)",
};

} // namespace

BfsGraph
BfsGraph::random(int nodes, int avg_degree, uint64_t seed)
{
    Rng rng(seed);
    BfsGraph g;
    g.numNodes = nodes;
    g.rowStart.assign(nodes + 1, 0);
    std::vector<std::vector<int>> adj(nodes);
    for (int i = 0; i < nodes; ++i) {
        int deg = 1 + int(rng.below(uint64_t(2 * avg_degree - 1)));
        for (int e = 0; e < deg; ++e) {
            int to;
            if (rng.chance(0.5)) {
                // Local edge: models meshes/spatial graphs.
                int offset = 1 + int(rng.below(64));
                to = (i + offset) % nodes;
            } else {
                to = int(rng.below(uint64_t(nodes)));
            }
            if (to != i)
                adj[i].push_back(to);
        }
    }
    for (int i = 0; i < nodes; ++i) {
        g.rowStart[i + 1] = g.rowStart[i] + int(adj[i].size());
        for (int to : adj[i])
            g.adj.push_back(to);
    }
    return g;
}

std::vector<int>
Bfs::reference(const BfsGraph &g, int source)
{
    std::vector<int> cost(g.numNodes, -1);
    std::deque<int> queue{source};
    cost[source] = 0;
    while (!queue.empty()) {
        int u = queue.front();
        queue.pop_front();
        for (int e = g.rowStart[u]; e < g.rowStart[u + 1]; ++e) {
            int v = g.adj[e];
            if (cost[v] < 0) {
                cost[v] = cost[u] + 1;
                queue.push_back(v);
            }
        }
    }
    return cost;
}

Bfs::Params
Bfs::params(core::Scale scale)
{
    switch (scale) {
      case core::Scale::Tiny:
        return {2048, 6};
      case core::Scale::Small:
        return {8192, 6};
      case core::Scale::Paper:
        return {1048576, 6};
      case core::Scale::Full:
      default:
        return {32768, 6};
    }
}

const core::WorkloadInfo &
Bfs::info() const
{
    return kInfo;
}

void
Bfs::runCpu(trace::TraceSession &session, core::Scale scale)
{
    const Params p = params(scale);
    BfsGraph g = BfsGraph::random(p.nodes, p.avgDegree, 0xBF5);
    std::vector<int> cost(g.numNodes, -1);
    std::vector<int> prevCost(g.numNodes, -1);
    std::vector<uint8_t> frontier(g.numNodes, 0);
    std::vector<uint8_t> next(g.numNodes, 0);
    cost[0] = 0;
    prevCost[0] = 0;
    frontier[0] = 1;
    bool more = true;
    const int nt = session.numThreads();

    session.run([&](trace::ThreadCtx &ctx) {
        // Hot-code size of the application this
        // workload models (Fig. 11 substitution).
        ctx.codeRegion(6 * 1024);
        const int t = ctx.tid();
        const int lo = g.numNodes * t / nt;
        const int hi = g.numNodes * (t + 1) / nt;
        while (more) {
            for (int u = lo; u < hi; ++u) {
                ctx.branch();
                if (!ctx.ld(&frontier[u]))
                    continue;
                int level = ctx.ld(&cost[u]);
                int e0 = ctx.ld(&g.rowStart[u]);
                int e1 = ctx.ld(&g.rowStart[u + 1]);
                for (int e = e0; e < e1; ++e) {
                    int v = ctx.ld(&g.adj[e]);
                    ctx.branch();
                    // Visited-check against the previous level's
                    // snapshot, not the live array: racing writers
                    // all store the identical level + 1 (like the
                    // Rodinia GPU kernel), and whether a peer's
                    // store has become visible no longer changes
                    // this thread's recorded trace — the trace is a
                    // pure function of the graph.
                    if (ctx.ld(&prevCost[v]) < 0) {
                        ctx.st(&cost[v], level + 1);
                        ctx.st(&next[v], uint8_t(1));
                    }
                }
            }
            ctx.barrier();
            if (t == 0) {
                more = false;
                for (int u = 0; u < g.numNodes; ++u) {
                    ctx.load(&next[u], 1);
                    if (next[u])
                        more = true;
                }
                std::copy(cost.begin(), cost.end(),
                          prevCost.begin());
                std::swap(frontier, next);
                std::fill(next.begin(), next.end(), uint8_t(0));
            }
            ctx.barrier();
        }
    });

    digest = core::hashRange(cost.begin(), cost.end());
}

gpusim::LaunchSequence
Bfs::runGpu(core::Scale scale, int version)
{
    (void)version;
    const Params p = params(scale);
    BfsGraph g = BfsGraph::random(p.nodes, p.avgDegree, 0xBF5);
    std::vector<int> cost(g.numNodes, -1);
    std::vector<uint8_t> frontier(g.numNodes, 0);
    std::vector<uint8_t> next(g.numNodes, 0);
    cost[0] = 0;
    frontier[0] = 1;

    gpusim::LaunchConfig launch;
    launch.blockDim = 256;
    launch.gridDim = (g.numNodes + launch.blockDim - 1) /
                     launch.blockDim;

    gpusim::DeviceSpace dev;
    dev.add(g.rowStart);
    dev.add(g.adj);
    dev.add(cost);
    dev.add(frontier);
    dev.add(next);

    gpusim::LaunchSequence seq;
    bool more = true;
    while (more) {
        auto kernel = [&](gpusim::KernelCtx &ctx) {
            int u = ctx.globalId();
            if (ctx.branch(u >= g.numNodes))
                return;
            if (!ctx.branch(ctx.ldg(&frontier[u]) != 0))
                return;
            int level = ctx.ldg(&cost[u]);
            int e0 = ctx.ldg(&g.rowStart[u]);
            int e1 = ctx.ldg(&g.rowStart[u + 1]);
            for (int e = e0; e < e1; ++e) {
                gpusim::LoopIter li(ctx, uint32_t(e - e0));
                int v = ctx.ldg(&g.adj[e]);
                ctx.alu(1);
                if (ctx.branch(ctx.ldg(&cost[v]) < 0)) {
                    cost[v] = level + 1;
                    next[v] = 1;
                    ctx.stg(&cost[v], level + 1);
                    ctx.stg(&next[v], uint8_t(1));
                }
            }
        };
        seq.add(gpusim::recordKernel(launch, kernel, dev));

        more = false;
        for (int u = 0; u < g.numNodes; ++u)
            if (next[u])
                more = true;
        std::swap(frontier, next);
        std::fill(next.begin(), next.end(), uint8_t(0));
    }

    digest = core::hashRange(cost.begin(), cost.end());
    return seq;
}

void
registerBfs()
{
    core::Registry::instance().add(kInfo,
                                   [] { return std::make_unique<Bfs>(); });
}

} // namespace workloads
} // namespace rodinia
