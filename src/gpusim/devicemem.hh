/**
 * @file
 * Canonical device address space for recorded kernel traces.
 *
 * Kernels touch the host addresses of the std::vector buffers that
 * stand in for device memory. Those depend on the heap layout, and
 * with them coalescing, cache-set and channel behavior; real CUDA
 * takes addresses from cudaMalloc's private device address space.
 *
 * DeviceSpace reproduces that: a workload's runGpu registers every
 * traced buffer (the cudaMalloc analog) and passes the space to
 * recordKernel, which translates each global/const/tex/param/local
 * address as it records it. Buffers get canonical, 256-byte-aligned
 * bases (cudaMalloc's guarantee) in registration order; offsets
 * within a buffer are kept, so a recording holds no host address and
 * is identical across processes, threads and allocation histories.
 * Addresses in no registered buffer (stack scalars passed by
 * pointer, forgotten registrations) are remapped page-wise on first
 * touch, in recording order, keeping page offsets. Shared-memory
 * addresses are already virtual (the recorder's bump allocator).
 */

#ifndef RODINIA_GPUSIM_DEVICEMEM_HH
#define RODINIA_GPUSIM_DEVICEMEM_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace rodinia {
namespace gpusim {

class DeviceSpace
{
  public:
    /** Canonical base of the first registered buffer. */
    static constexpr uint64_t kDeviceBase = uint64_t(1) << 32;
    /** cudaMalloc alignment guarantee. */
    static constexpr uint64_t kAlign = 256;
    /** Fallback region for addresses in no registered buffer. */
    static constexpr uint64_t kHostBase = uint64_t(1) << 40;

    /**
     * Register a host buffer as a device allocation. Buffers must be
     * live (distinct addresses) at registration time; overlapping
     * registrations are fatal. A buffer must be registered before
     * the first launch that touches it.
     */
    void add(const void *p, size_t bytes);

    /** Register a whole vector's storage. */
    template <typename T>
    void
    add(const std::vector<T> &v)
    {
        if (!v.empty())
            add(v.data(), v.size() * sizeof(T));
    }

    /**
     * Map a host address into the canonical space: a registered
     * buffer's canonical base plus the offset, else a fallback page.
     */
    uint64_t translate(uint64_t addr);

  private:
    struct Buffer
    {
        uint64_t base = 0;      //!< real host address
        uint64_t bytes = 0;
        uint64_t canonical = 0; //!< assigned device address
    };

    std::vector<Buffer> buffers; //!< sorted by real base
    uint64_t top = kDeviceBase;  //!< next canonical base
    size_t last = 0;             //!< index of the last match (a hint)
    /** First-touch page map for addresses in no registered buffer. */
    std::unordered_map<uint64_t, uint64_t> hostPages;
};

} // namespace gpusim
} // namespace rodinia

#endif // RODINIA_GPUSIM_DEVICEMEM_HH
