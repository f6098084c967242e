/**
 * @file
 * Quickstart: characterize one benchmark on both targets.
 *
 * Runs Kmeans through the whole pipeline: the instrumented
 * multithreaded CPU implementation (instruction mix, cache behavior,
 * footprints) and the SIMT GPU simulation (IPC, occupancy, memory
 * mix) — the minimal end-to-end use of the library.
 *
 *   ./quickstart [workload-name]
 */

#include <cstdio>

#include "core/characterize.hh"
#include "core/workload.hh"
#include "gpusim/replay.hh"
#include "gpusim/timing.hh"
#include "support/table.hh"

using namespace rodinia;

int
main(int argc, char **argv)
{
    core::registerAllWorkloads();
    std::string name = argc > 1 ? argv[1] : "kmeans";
    if (!core::Registry::instance().has(name)) {
        std::fprintf(stderr, "unknown workload '%s'; try one of:\n",
                     name.c_str());
        for (const auto &info : core::Registry::instance().all())
            std::fprintf(stderr, "  %s\n", info.name.c_str());
        return 1;
    }

    auto workload = core::Registry::instance().create(name);
    const auto &info = workload->info();
    std::printf("== %s — %s (%s dwarf, %s)\n\n", info.name.c_str(),
                info.description.c_str(), info.dwarf.c_str(),
                info.domain.c_str());

    // --- CPU side: the Pin-style characterization. -----------------
    auto cpu = core::characterizeCpu(*workload, core::Scale::Small);
    auto mixf = cpu.instrMixFeatures();
    Table mix("CPU instruction mix (8 threads, Small scale)");
    mix.setHeader({"int", "fp", "branch", "load", "store"});
    mix.addRow({Table::pct(mixf[0]), Table::pct(mixf[1]),
                Table::pct(mixf[2]), Table::pct(mixf[3]),
                Table::pct(mixf[4])});
    mix.print();

    Table ws("Working set / sharing");
    ws.setHeader({"cache", "miss rate", "shared lines", "shared acc"});
    for (size_t i = 0; i < cpu.cacheSizes.size(); i += 2) {
        ws.addRow({std::to_string(cpu.cacheSizes[i] / 1024) + " kB",
                   Table::fmt(cpu.sweep[i].missRate(), 4),
                   Table::pct(cpu.sweep[i].sharedLineFraction()),
                   Table::pct(cpu.sweep[i].sharedAccessFraction())});
    }
    ws.print();
    std::printf("data footprint: %llu pages (4 kB), "
                "instruction footprint: %llu blocks (64 B)\n\n",
                (unsigned long long)cpu.dataPages,
                (unsigned long long)cpu.instructionBlocks);

    // --- GPU side: record once, then analyze and simulate. ----------
    if (workload->gpuVersions() > 0) {
        auto seq = workload->runGpu(core::Scale::Small,
                                    workload->gpuVersions());
        auto config = gpusim::SimConfig::gpgpusimDefault();
        auto trace = gpusim::analyzeTrace(seq, config.warpSize);
        auto timing = gpusim::TimingSim(config).simulate(seq);
        std::printf("GPU (28-SM GPGPU-Sim-like config):\n");
        std::printf("  IPC                 %.1f\n", timing.ipc());
        std::printf("  cycles              %llu\n",
                    (unsigned long long)timing.cycles);
        std::printf("  DRAM bandwidth util %.1f%%\n",
                    timing.bwUtilization() * 100.0);
        std::printf("  avg warp occupancy  %.1f / 32\n",
                    trace.avgWarpOccupancy());
        auto memf = trace.memOpFractions();
        std::printf("  mem mix: shared %.0f%%  tex %.0f%%  const %.0f%%"
                    "  global %.0f%%\n",
                    memf[size_t(gpusim::Space::Shared)] * 100,
                    memf[size_t(gpusim::Space::Tex)] * 100,
                    memf[size_t(gpusim::Space::Const)] * 100,
                    (memf[size_t(gpusim::Space::Global)] +
                     memf[size_t(gpusim::Space::Local)]) *
                        100);
    } else {
        std::printf("(CPU-only workload — no GPU implementation)\n");
    }
    return 0;
}
