#include "driver/context.hh"

#include "support/logging.hh"

namespace rodinia {
namespace driver {

// The one driver function whose code decides what a GPU recording
// contains. It has a file of its own so the GPU recipe source digest
// (src/driver/CMakeLists.txt) can cover it without moving every
// recipe key on each edit to the memo layer in context.cc.
gpusim::LaunchSequence
recordGpuLaunch(const std::string &name, core::Scale scale, int version)
{
    core::registerAllWorkloads();
    auto w = core::Registry::instance().create(name);
    if (w->gpuVersions() < 1)
        fatal("workload '", name, "' has no GPU implementation");
    if (version <= 0)
        version = w->gpuVersions(); // shipped (most optimized)
    return w->runGpu(scale, version);
}

} // namespace driver
} // namespace rodinia
