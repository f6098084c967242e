#include "driver/figures.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <tuple>

#include "driver/tracing.hh"
#include "gpusim/recorder.hh"
#include "gpusim/replay.hh"
#include "gpusim/timing.hh"
#include "stats/cluster.hh"
#include "stats/pca.hh"
#include "stats/plackett_burman.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
#include "support/table.hh"

namespace rodinia {
namespace driver {

namespace {

core::Scale &
primaryScaleSlot()
{
    static core::Scale scale = core::Scale::Full;
    return scale;
}

} // namespace

core::Scale
primaryScale()
{
    return primaryScaleSlot();
}

void
setPrimaryScale(core::Scale scale)
{
    primaryScaleSlot() = scale;
}

std::string
renderScatter(const std::vector<double> &xs,
              const std::vector<double> &ys,
              const std::vector<std::string> &labels,
              const std::vector<core::Suite> &suites, int width,
              int height)
{
    if (xs.empty())
        return "";
    double xmin = xs[0], xmax = xs[0], ymin = ys[0], ymax = ys[0];
    for (size_t i = 0; i < xs.size(); ++i) {
        xmin = std::min(xmin, xs[i]);
        xmax = std::max(xmax, xs[i]);
        ymin = std::min(ymin, ys[i]);
        ymax = std::max(ymax, ys[i]);
    }
    double xspan = std::max(xmax - xmin, 1e-9);
    double yspan = std::max(ymax - ymin, 1e-9);

    std::vector<std::string> grid(height, std::string(width, ' '));
    for (size_t i = 0; i < xs.size(); ++i) {
        int cx = int((xs[i] - xmin) / xspan * (width - 1) + 0.5);
        int cy = int((ys[i] - ymin) / yspan * (height - 1) + 0.5);
        char mark = suites[i] == core::Suite::Rodinia ? 'x'
                    : suites[i] == core::Suite::Parsec ? 'o'
                                                       : '#';
        char &cell = grid[height - 1 - cy][cx];
        cell = (cell == ' ') ? mark : '*';
    }

    std::ostringstream os;
    os << "  PC2 ^   (x = Rodinia, o = Parsec, # = both, * = overlap)\n";
    for (const auto &row : grid)
        os << "      |" << row << "\n";
    os << "      +" << std::string(width, '-') << "> PC1\n\n";
    for (size_t i = 0; i < labels.size(); ++i) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "  %-14s %-6s (%7.2f, %7.2f)\n",
                      labels[i].c_str(),
                      core::suiteTag(suites[i]).c_str(), xs[i], ys[i]);
        os << buf;
    }
    return os.str();
}

namespace {

// ---------------------------------------------------------------
// Table I / IV / V: suite inventory from the registry metadata.
// ---------------------------------------------------------------

std::string
buildTable1(Context &ctx)
{
    (void)ctx;
    core::registerAllWorkloads();
    auto &reg = core::Registry::instance();
    std::ostringstream os;

    Table t1("Table I: Rodinia applications and kernels");
    t1.setHeader({"Application", "Dwarf", "Domain", "Problem size"});
    for (const auto &info : reg.all()) {
        if (info.suite == core::Suite::Rodinia ||
            info.suite == core::Suite::Both)
            t1.addRow({info.displayName, info.dwarf, info.domain,
                       info.problemSize});
    }
    os << t1.render() << "\n";

    Table t5("Table V: Parsec applications (analog implementations)");
    t5.setHeader({"Application", "Domain", "Problem size",
                  "Description"});
    for (const auto &info : reg.all()) {
        if (info.suite == core::Suite::Parsec ||
            info.suite == core::Suite::Both)
            t5.addRow({info.displayName, info.domain, info.problemSize,
                       info.description});
    }
    os << t5.render() << "\n";

    Table t4("Table IV: suite comparison");
    t4.setHeader({"Feature", "Parsec", "Rodinia"});
    t4.addRow({"Platform", "CPU", "CPU and GPU"});
    t4.addRow({"Machine Model", "Shared Memory",
               "Shared Memory and Offloading"});
    t4.addRow({"Application Count", "13 workloads", "12 workloads"});
    t4.addRow({"Incremental Versions", "No",
               "Yes (NW, SRAD, Leukocyte, LUD)"});
    t4.addRow({"Memory Space", "HW Cache", "HW and SW Caches"});
    t4.addRow({"Synchronization", "Barriers, Locks, Pipelines",
               "Barriers"});
    os << t4.render();
    return os.str();
}

// ---------------------------------------------------------------
// Figure 1: IPC on the 8- and 28-shader configurations. The 12
// benchmarks x 2 shader counts fan out across the pool through
// Context::gpuStats (memoized + store-cached); the table is
// assembled serially in figure order from per-iteration slots.
// ---------------------------------------------------------------

std::string
buildFig1(Context &ctx)
{
    static constexpr int kShaders[2] = {8, 28};
    const auto &order = figureOrder();

    std::vector<std::array<double, 2>> ipc(order.size());
    ctx.parallelFor(order.size() * 2, [&](size_t idx) {
        size_t b = idx / 2;
        size_t si = idx % 2;
        const auto &st =
            ctx.gpuStats(order[b].first, primaryScale(), 0,
                         gpusim::SimConfig::shaders(kShaders[si]));
        ipc[b][si] = st.ipc();
    });

    Table t("Figure 1: IPC, 8-shader vs 28-shader configurations");
    t.setHeader({"Benchmark", "IPC(8)", "IPC(28)", "Scaling"});
    std::ostringstream bars;
    double maxIpc = 0.0;
    for (size_t b = 0; b < order.size(); ++b)
        maxIpc = std::max(maxIpc, ipc[b][1]);

    for (size_t b = 0; b < order.size(); ++b) {
        const auto &label = order[b].second;
        double i8 = ipc[b][0], i28 = ipc[b][1];
        t.addRow({label, Table::fmt(i8, 1), Table::fmt(i28, 1),
                  Table::fmt(i28 / std::max(i8, 1e-9), 2) + "x"});
        bars << barRow(label + " (28)", i28, maxIpc) << "\n";
        bars << barRow(label + " (8)", i8, maxIpc) << "\n";
    }
    return t.render() + "\n" + bars.str();
}

// ---------------------------------------------------------------
// Figure 2: memory-operation breakdown by space. Figs. 2/3 and
// Table III's mix columns read the recordings' trace statistics from
// their recipes, so a warm run neither records nor analyzes.
// ---------------------------------------------------------------

std::string
buildFig2(Context &ctx)
{
    using gpusim::Space;
    Table t("Figure 2: memory operation breakdown (percent)");
    t.setHeader({"Benchmark", "Shared", "Tex", "Const", "Param",
                 "Global/Local"});
    for (const auto &[name, label] : figureOrder()) {
        auto f = ctx.recipe(name, primaryScale()).trace.memOpFractions();
        double globloc =
            f[size_t(Space::Global)] + f[size_t(Space::Local)];
        t.addRow({label, Table::pct(f[size_t(Space::Shared)]),
                  Table::pct(f[size_t(Space::Tex)]),
                  Table::pct(f[size_t(Space::Const)]),
                  Table::pct(f[size_t(Space::Param)]),
                  Table::pct(globloc)});
    }
    return t.render();
}

// ---------------------------------------------------------------
// Figure 3: warp-occupancy histogram.
// ---------------------------------------------------------------

std::string
buildFig3(Context &ctx)
{
    Table t("Figure 3: warp occupancy (percent of warp instructions)");
    t.setHeader({"Benchmark", "1-8", "9-16", "17-24", "25-32",
                 "avg active"});
    for (const auto &[name, label] : figureOrder()) {
        const auto &stats = ctx.recipe(name, primaryScale()).trace;
        auto f = stats.occupancyFractions();
        t.addRow({label, Table::pct(f[0]), Table::pct(f[1]),
                  Table::pct(f[2]), Table::pct(f[3]),
                  Table::fmt(stats.avgWarpOccupancy(), 1)});
    }
    return t.render();
}

// ---------------------------------------------------------------
// Figure 4: speedup vs memory channels. The 12 benchmarks x 3
// channel configurations fan out across the pool; every iteration
// writes its own slot, and the table is assembled in figure order.
// ---------------------------------------------------------------

std::string
buildFig4(Context &ctx)
{
    static constexpr int kChannels[3] = {4, 6, 8};
    const auto &order = figureOrder();

    struct Slot
    {
        double cycles[3] = {0.0, 0.0, 0.0};
        double util4 = 0.0;
    };
    std::vector<Slot> slots(order.size());

    ctx.parallelFor(order.size() * 3, [&](size_t idx) {
        size_t b = idx / 3;
        size_t ci = idx % 3;
        gpusim::SimConfig cfg = gpusim::SimConfig::gpgpusimDefault();
        cfg.numChannels = kChannels[ci];
        const auto &st =
            ctx.gpuStats(order[b].first, primaryScale(), 0, cfg);
        slots[b].cycles[ci] = double(st.cycles);
        if (kChannels[ci] == 4)
            slots[b].util4 = st.bwUtilization();
    });

    Table t("Figure 4: speedup vs channels (normalized to 4 channels)");
    t.setHeader({"Benchmark", "4ch", "6ch", "8ch", "BW util @4ch"});
    for (size_t b = 0; b < order.size(); ++b) {
        const auto &s = slots[b];
        t.addRow({order[b].second, "1.00",
                  Table::fmt(s.cycles[0] / s.cycles[1], 2),
                  Table::fmt(s.cycles[0] / s.cycles[2], 2),
                  Table::pct(s.util4)});
    }
    return t.render();
}

// ---------------------------------------------------------------
// Figure 5: Fermi (GTX 480) vs GTX 280. 12 benchmarks x 3 GPU
// configurations fan out across the pool into per-benchmark slots.
// ---------------------------------------------------------------

std::string
buildFig5(Context &ctx)
{
    const auto &order = figureOrder();
    auto configFor = [](size_t ci) {
        return ci == 0   ? gpusim::SimConfig::gtx280()
               : ci == 1 ? gpusim::SimConfig::gtx480(false)
                         : gpusim::SimConfig::gtx480(true);
    };

    std::vector<std::array<double, 3>> us(order.size());
    ctx.parallelFor(order.size() * 3, [&](size_t idx) {
        size_t b = idx / 3;
        size_t ci = idx % 3;
        const auto &st = ctx.gpuStats(order[b].first,
                                      primaryScale(), 0,
                                      configFor(ci));
        us[b][ci] = st.timeUs();
    });

    Table t("Figure 5: kernel time normalized to GTX 280");
    t.setHeader({"Benchmark", "GTX280", "GTX480 shared-bias",
                 "GTX480 L1-bias", "L1-bias gain"});
    for (size_t b = 0; b < order.size(); ++b) {
        double t280 = us[b][0], tShared = us[b][1], tL1 = us[b][2];
        double gain = (tShared - tL1) / tShared;
        t.addRow({order[b].second, "1.00",
                  Table::fmt(tShared / t280, 2),
                  Table::fmt(tL1 / t280, 2), Table::pct(gain)});
    }
    return t.render();
}

// ---------------------------------------------------------------
// Table III: incrementally optimized versions.
// ---------------------------------------------------------------

std::string
buildTable3(Context &ctx)
{
    using gpusim::Space;
    // srad/leukocyte first, then the nw/lud incremental versions the
    // release also ships; 8 (benchmark, version) combos fan out.
    static const std::pair<const char *, int> kCombos[] = {
        {"srad", 1},      {"srad", 2},
        {"leukocyte", 1}, {"leukocyte", 2},
        {"nw", 1},        {"nw", 2},
        {"lud", 1},       {"lud", 2},
    };
    constexpr size_t kNumCombos = sizeof(kCombos) / sizeof(kCombos[0]);

    struct Slot
    {
        gpusim::KernelStats st;
        std::array<double, 7> mix{};
    };
    std::vector<Slot> slots(kNumCombos);
    ctx.parallelFor(kNumCombos, [&](size_t i) {
        const auto &[name, version] = kCombos[i];
        slots[i].st =
            ctx.gpuStats(name, primaryScale(), version,
                         gpusim::SimConfig::gpgpusimDefault());
        slots[i].mix =
            ctx.recipe(name, primaryScale(), version).trace.memOpFractions();
    });

    Table t("Table III: incrementally optimized SRAD and Leukocyte");
    t.setHeader({"Benchmark", "Version", "IPC", "BW util", "Shared",
                 "Global", "Const", "Tex"});
    for (size_t i = 0; i < kNumCombos; ++i) {
        const auto &[name, version] = kCombos[i];
        const auto &st = slots[i].st;
        const auto &mix = slots[i].mix;
        // Appending, not operator+: GCC 12 at -O3 reports a false
        // -Wrestrict in the inlined "v" + std::string.
        std::string ver = "v";
        ver += std::to_string(version);
        t.addRow({name, ver,
                  Table::fmt(st.ipc(), 0),
                  Table::pct(st.bwUtilization(), 0),
                  Table::pct(mix[size_t(Space::Shared)]),
                  Table::pct(mix[size_t(Space::Global)]),
                  Table::pct(mix[size_t(Space::Const)]),
                  Table::pct(mix[size_t(Space::Tex)])});
    }
    return t.render();
}

// ---------------------------------------------------------------
// Section III-E: Plackett-Burman sensitivity. The 12 benchmarks x
// 12 design runs fan out across the pool into per-run response
// slots; effect ranking and the Borda aggregation stay serial and
// ordered, so pool execution cannot change the output.
// ---------------------------------------------------------------

const std::vector<std::string> &
pbFactorNames()
{
    static const std::vector<std::string> names = {
        "core-clock",   "simd-width",  "shared-size",
        "bank-conflict", "regfile",    "threads/SM",
        "mem-clock",    "channels",    "bus-width",
    };
    return names;
}

gpusim::SimConfig
pbConfigFor(const std::vector<int> &signs)
{
    gpusim::SimConfig cfg = gpusim::SimConfig::gpgpusimDefault();
    cfg.coreClockGhz = signs[0] > 0 ? 1.5 : 1.2;
    cfg.simdWidth = signs[1] > 0 ? 32 : 16;
    cfg.sharedMemPerSm = signs[2] > 0 ? 32 * 1024 : 16 * 1024;
    cfg.bankConflictsEnabled = signs[3] > 0;
    cfg.regFileSize = signs[4] > 0 ? 32768 : 16384;
    cfg.maxThreadsPerSm = signs[5] > 0 ? 2048 : 1024;
    cfg.memClockGhz = signs[6] > 0 ? 2.0 : 1.6;
    cfg.numChannels = signs[7] > 0 ? 8 : 4;
    cfg.dramBusBytes = signs[8] > 0 ? 16 : 8;
    return cfg;
}

std::string
buildPbSensitivity(Context &ctx)
{
    const auto &factors = pbFactorNames();
    auto design = stats::pbDesign(int(factors.size()));
    const auto &order = figureOrder();
    const size_t runs = size_t(design.runs);

    std::vector<std::vector<double>> responses(
        order.size(), std::vector<double>(runs, 0.0));
    ctx.parallelFor(order.size() * runs, [&](size_t idx) {
        size_t b = idx / runs;
        size_t r = idx % runs;
        gpusim::SimConfig cfg = pbConfigFor(design.signs[r]);
        const auto &st = ctx.gpuStats(order[b].first,
                                      core::Scale::Small, 0, cfg);
        // The paper's response variable is total execution
        // cycles (Section III-E).
        responses[b][r] = double(st.cycles);
    });

    Table t("Plackett-Burman sensitivity: top-3 factors per benchmark");
    t.setHeader({"Benchmark", "#1", "#2", "#3"});
    std::vector<double> rankScore(factors.size(), 0.0);

    for (size_t b = 0; b < order.size(); ++b) {
        auto effects = stats::pbEffects(design, responses[b], factors);
        t.addRow({order[b].second, effects[0].name, effects[1].name,
                  effects[2].name});
        // Aggregate: Borda-style rank points.
        for (size_t i = 0; i < effects.size(); ++i)
            rankScore[size_t(effects[i].factor)] +=
                double(effects.size() - i);
    }

    std::vector<std::pair<double, std::string>> agg;
    for (size_t i = 0; i < factors.size(); ++i)
        agg.emplace_back(rankScore[i], factors[i]);
    std::sort(agg.rbegin(), agg.rend());

    Table t2("Aggregate factor importance across the suite");
    t2.setHeader({"Rank", "Factor", "Score"});
    for (size_t i = 0; i < agg.size(); ++i)
        t2.addRow({std::to_string(i + 1), agg[i].second,
                   Table::fmt(agg[i].first, 0)});

    return t.render() + "\n" + t2.render();
}

// ---------------------------------------------------------------
// Figure 6: hierarchical-clustering dendrogram.
// ---------------------------------------------------------------

std::string
buildFig6(Context &ctx)
{
    auto chars = ctx.allCpu(primaryScale());

    std::vector<std::vector<double>> rows;
    std::vector<std::string> labels;
    for (const auto &c : chars) {
        rows.push_back(c.allFeatures());
        labels.push_back(c.name + core::suiteTag(c.suite));
    }

    auto pca = stats::runPca(stats::Matrix::fromRows(rows));
    size_t keep = pca.componentsForVariance(0.9);
    auto scores = stats::pcaProject(pca, keep);

    auto lk = stats::hierarchicalCluster(scores,
                                         stats::LinkageMethod::Average);
    std::ostringstream os;
    os << "Figure 6: dendrogram over " << keep
       << " principal components (90% variance)\n\n";
    os << stats::renderDendrogram(lk, labels);

    os << "\nFlat clustering at k=8:\n";
    auto cut = lk.cut(8);
    for (int cl = 0; cl < 8; ++cl) {
        os << "  cluster " << cl << ":";
        for (size_t i = 0; i < labels.size(); ++i)
            if (cut[i] == cl)
                os << " " << labels[i];
        os << "\n";
    }
    return os.str();
}

// ---------------------------------------------------------------
// Figures 7-9: PCA scatters over one feature group each.
// ---------------------------------------------------------------

std::string
buildPcaScatter(Context &ctx, const char *caption,
                std::vector<double> (core::CpuCharacterization::*features)()
                    const)
{
    auto chars = ctx.allCpu(primaryScale());
    std::vector<std::vector<double>> rows;
    std::vector<std::string> labels;
    std::vector<core::Suite> suites;
    for (const auto &c : chars) {
        rows.push_back((c.*features)());
        labels.push_back(c.name);
        suites.push_back(c.suite);
    }
    auto pca = stats::runPca(stats::Matrix::fromRows(rows));
    std::vector<double> xs, ys;
    for (size_t i = 0; i < rows.size(); ++i) {
        xs.push_back(pca.scores.at(i, 0));
        ys.push_back(pca.scores.at(i, 1));
    }
    std::string head =
        std::string(caption) + " (PC1 explains " +
        std::to_string(int(pca.explained[0] * 100)) + "%, PC2 " +
        std::to_string(int(pca.explained[1] * 100)) + "%)\n\n";
    return head + renderScatter(xs, ys, labels, suites);
}

std::string
buildFig7(Context &ctx)
{
    return buildPcaScatter(ctx, "Figure 7: instruction-mix PCA",
                           &core::CpuCharacterization::instrMixFeatures);
}

std::string
buildFig8(Context &ctx)
{
    return buildPcaScatter(
        ctx, "Figure 8: working-set PCA",
        &core::CpuCharacterization::workingSetFeatures);
}

std::string
buildFig9(Context &ctx)
{
    return buildPcaScatter(ctx, "Figure 9: sharing-behavior PCA",
                           &core::CpuCharacterization::sharingFeatures);
}

// ---------------------------------------------------------------
// Figure 10: miss rates at a 4 MB shared cache.
// ---------------------------------------------------------------

std::string
buildFig10(Context &ctx)
{
    auto chars = ctx.allCpu(primaryScale());

    // Find the 4 MB sweep index.
    size_t idx4mb = 0;
    for (size_t i = 0; i < chars[0].cacheSizes.size(); ++i)
        if (chars[0].cacheSizes[i] == 4ull * 1024 * 1024)
            idx4mb = i;

    std::vector<std::tuple<double, std::string, core::Suite>> rows;
    for (const auto &c : chars)
        rows.emplace_back(c.sweep[idx4mb].missRate(), c.name, c.suite);
    std::sort(rows.rbegin(), rows.rend());

    double maxRate = std::get<0>(rows.front());
    std::ostringstream os;
    os << "Figure 10: miss rate per memory reference @ 4 MB shared "
          "cache\n\n";
    for (const auto &[rate, name, suite] : rows)
        os << barRow(name + core::suiteTag(suite), rate,
                     std::max(maxRate, 1e-9), 40, 4)
           << "\n";
    return os.str();
}

// ---------------------------------------------------------------
// Figure 11: instruction footprint.
// ---------------------------------------------------------------

std::string
buildFig11(Context &ctx)
{
    auto chars = ctx.allCpu(primaryScale());
    std::vector<std::tuple<double, std::string, core::Suite>> rows;
    for (const auto &c : chars)
        rows.emplace_back(double(c.instructionBlocks), c.name, c.suite);
    std::sort(rows.rbegin(), rows.rend());

    double maxBlocks = std::get<0>(rows.front());
    std::ostringstream os;
    os << "Figure 11: instruction footprint (64 B blocks touched)\n\n";
    for (const auto &[blocks, name, suite] : rows)
        os << barRow(name + core::suiteTag(suite), blocks, maxBlocks,
                     40, 0)
           << "\n";

    double rodiniaAvg = 0, parsecAvg = 0;
    int nr = 0, np = 0;
    for (const auto &c : chars) {
        if (c.suite != core::Suite::Parsec) {
            rodiniaAvg += double(c.instructionBlocks);
            ++nr;
        }
        if (c.suite != core::Suite::Rodinia) {
            parsecAvg += double(c.instructionBlocks);
            ++np;
        }
    }
    os << "\n  suite averages: Rodinia " << Table::fmt(rodiniaAvg / nr, 1)
       << " blocks, Parsec " << Table::fmt(parsecAvg / np, 1)
       << " blocks\n";
    return os.str();
}

// ---------------------------------------------------------------
// Figure 12: data footprint.
// ---------------------------------------------------------------

std::string
buildFig12(Context &ctx)
{
    auto chars = ctx.allCpu(primaryScale());
    std::vector<std::tuple<double, std::string, core::Suite>> rows;
    for (const auto &c : chars)
        rows.emplace_back(double(c.dataPages), c.name, c.suite);
    std::sort(rows.rbegin(), rows.rend());

    double maxPages = std::get<0>(rows.front());
    std::ostringstream os;
    os << "Figure 12: data footprint (4 kB pages touched)\n\n";
    for (const auto &[pages, name, suite] : rows)
        os << barRow(name + core::suiteTag(suite), pages, maxPages, 40,
                     0)
           << "\n";
    return os.str();
}

// ---------------------------------------------------------------
// Ablation: SIMT loop-iteration path keys.
// ---------------------------------------------------------------

std::string
buildAblationSimt(Context &ctx)
{
    (void)ctx;
    using namespace rodinia::gpusim;

    // Per-thread trip counts drawn from a skewed distribution, like
    // query lengths in MUMmer.
    Rng rng(0xAB1);
    std::vector<int> trips(2048);
    for (auto &t : trips)
        t = 1 + int(rng.below(64));
    std::vector<float> data(1 << 16, 1.0f);

    LaunchConfig launch;
    launch.gridDim = 16;
    launch.blockDim = 128;

    // The loop body takes a data-dependent branch, like an edge
    // comparison in a tree walk: lanes on different iterations sit
    // at the same then/else PCs, which naive min-PC would merge.
    auto body = [&](KernelCtx &ctx2, float &acc, int i) {
        if (ctx2.branch(((ctx2.globalId() * 31 + i) % 3) == 0)) {
            acc += ctx2.ldg(&data[(ctx2.globalId() * 67 + i) %
                                  int(data.size())]);
            ctx2.fp(4);
        } else {
            ctx2.alu(2);
        }
    };
    DeviceSpace dev;
    dev.add(data);
    auto makeRec = [&](bool use_keys) {
        return recordKernel(launch, [&](KernelCtx &ctx2) {
            int n = trips[ctx2.globalId()];
            float acc = 0.0f;
            for (int i = 0; i < n; ++i) {
                if (use_keys) {
                    LoopIter li(ctx2, i);
                    body(ctx2, acc, i);
                } else {
                    body(ctx2, acc, i);
                }
            }
            ctx2.stg(&data[ctx2.globalId()], acc);
        }, dev);
    };

    auto withKeys = analyzeTrace(makeRec(true));
    auto without = analyzeTrace(makeRec(false));

    Table t("SIMT ablation: loop path keys vs naive min-PC merge");
    t.setHeader({"Model", "avg active threads", "warp insts",
                 "1-8 bucket"});
    auto row = [&](const char *name, const TraceStats &s) {
        t.addRow({name, Table::fmt(s.avgWarpOccupancy(), 2),
                  Table::fmtInt(s.warpInstructions),
                  Table::pct(s.occupancyFractions()[0])});
    };
    row("loop path keys (default)", withKeys);
    row("naive min-PC (no keys)", without);

    std::ostringstream os;
    os << t.render() << "\n"
       << "Without path keys, different loop iterations of different\n"
       << "lanes merge at the same PC, inflating occupancy and\n"
       << "deflating the serialized warp-instruction count on\n"
       << "trip-count-divergent kernels (MUMmer, BFS).\n";
    return os.str();
}

// ---------------------------------------------------------------
// Ablation: coalescing granularity.
// ---------------------------------------------------------------

std::string
buildAblationCoalesce(Context &ctx)
{
    static const char *kNames[3] = {"kmeans", "cfd", "bfs"};
    static constexpr int kGranules[3] = {32, 64, 128};

    struct Slot
    {
        double cycles[3] = {0, 0, 0};
        double trans[3] = {0, 0, 0};
    };
    std::vector<Slot> slots(3);
    ctx.parallelFor(9, [&](size_t idx) {
        size_t b = idx / 3;
        size_t gi = idx % 3;
        gpusim::SimConfig cfg = gpusim::SimConfig::gpgpusimDefault();
        cfg.coalesceBytes = kGranules[gi];
        const auto &st =
            ctx.gpuStats(kNames[b], core::Scale::Small, 0, cfg);
        slots[b].cycles[gi] = double(st.cycles);
        slots[b].trans[gi] = double(st.dramTransactions);
    });

    Table t("Coalescing-granularity ablation (normalized to 64 B)");
    t.setHeader({"Benchmark", "Metric", "32B", "64B", "128B"});
    for (size_t b = 0; b < 3; ++b) {
        const auto &s = slots[b];
        t.addRow({kNames[b], "cycles",
                  Table::fmt(s.cycles[0] / s.cycles[1], 2), "1.00",
                  Table::fmt(s.cycles[2] / s.cycles[1], 2)});
        t.addRow({"", "transactions",
                  Table::fmt(s.trans[0] / s.trans[1], 2), "1.00",
                  Table::fmt(s.trans[2] / s.trans[1], 2)});
    }
    return t.render();
}

std::vector<GpuDep>
figureOrderDeps(core::Scale scale)
{
    std::vector<GpuDep> deps;
    for (const auto &[name, label] : figureOrder()) {
        (void)label;
        deps.push_back({name, scale, 0});
    }
    return deps;
}

} // namespace

const std::vector<FigureDef> &
allFigures()
{
    // Cached per primary scale: the GPU dependency lists embed the
    // scale, so a --scale change (set once at startup, before any
    // figure is built) rebuilds the table on the next call.
    static core::Scale builtFor = core::Scale::Full;
    static std::vector<FigureDef> figures;
    if (!figures.empty() && builtFor == primaryScale())
        return figures;
    builtFor = primaryScale();
    figures = [] {
        std::vector<FigureDef> f;
        auto fullOrder = figureOrderDeps(primaryScale());
        auto smallOrder = figureOrderDeps(core::Scale::Small);

        f.push_back({"table1", "table1/inventory", buildTable1, false,
                     {}});
        f.push_back({"fig1", "fig1/ipc", buildFig1, false, fullOrder});
        f.push_back(
            {"fig2", "fig2/memmix", buildFig2, false, fullOrder});
        f.push_back(
            {"fig3", "fig3/occupancy", buildFig3, false, fullOrder});
        f.push_back(
            {"fig4", "fig4/channels", buildFig4, false, fullOrder});
        f.push_back({"fig5", "fig5/fermi", buildFig5, false, fullOrder});
        f.push_back({"table3", "table3/incremental", buildTable3, false,
                     {{"srad", primaryScale(), 1},
                      {"srad", primaryScale(), 2},
                      {"leukocyte", primaryScale(), 1},
                      {"leukocyte", primaryScale(), 2},
                      {"nw", primaryScale(), 1},
                      {"nw", primaryScale(), 2},
                      {"lud", primaryScale(), 1},
                      {"lud", primaryScale(), 2}}});
        f.push_back({"pb", "sec3e/plackett_burman", buildPbSensitivity,
                     false, smallOrder});
        f.push_back(
            {"fig6", "fig6/dendrogram", buildFig6, true, {}});
        f.push_back(
            {"fig7", "fig7/instmix_pca", buildFig7, true, {}});
        f.push_back(
            {"fig8", "fig8/workingset_pca", buildFig8, true, {}});
        f.push_back(
            {"fig9", "fig9/sharing_pca", buildFig9, true, {}});
        f.push_back(
            {"fig10", "fig10/missrates", buildFig10, true, {}});
        f.push_back(
            {"fig11", "fig11/ifootprint", buildFig11, true, {}});
        f.push_back(
            {"fig12", "fig12/dfootprint", buildFig12, true, {}});
        f.push_back({"ablation_simt", "ablation/simt_keys",
                     buildAblationSimt, false, {}});
        f.push_back({"ablation_coalesce", "ablation/coalesce",
                     buildAblationCoalesce, false,
                     {{"kmeans", core::Scale::Small, 0},
                      {"cfd", core::Scale::Small, 0},
                      {"bfs", core::Scale::Small, 0}}});
        return f;
    }();
    return figures;
}

const FigureDef *
findFigure(const std::string &id)
{
    for (const auto &f : allFigures())
        if (f.id == id)
            return &f;
    return nullptr;
}

std::string
buildFigure(const FigureDef &def, Context &ctx)
{
    auto t0 = std::chrono::steady_clock::now();
    std::string out = def.build(ctx);
    auto t1 = std::chrono::steady_clock::now();
    support::metrics::count("figures.built");
    support::metrics::gaugeLabeled(
        "figures.wall_us", def.id,
        uint64_t(std::chrono::duration_cast<
                     std::chrono::microseconds>(t1 - t0)
                     .count()));
    if (auto *tc = TraceCollector::active())
        tc->record("figure", def.id, "{}", t0, t1);
    return out;
}

} // namespace driver
} // namespace rodinia
