#include "gpusim/devicemem.hh"

#include <algorithm>

#include "support/logging.hh"

namespace rodinia {
namespace gpusim {

void
DeviceSpace::add(const void *p, size_t bytes)
{
    if (p == nullptr || bytes == 0)
        return;
    Buffer b;
    b.base = uint64_t(uintptr_t(p));
    b.bytes = bytes;
    b.canonical = top;
    top = (top + bytes + kAlign - 1) / kAlign * kAlign;

    auto it = std::upper_bound(buffers.begin(), buffers.end(), b,
                               [](const Buffer &x, const Buffer &y) {
                                   return x.base < y.base;
                               });
    // Overlap would make the address -> buffer lookup ambiguous; it
    // means a registered buffer died and its storage was reused.
    if (it != buffers.end() && b.base + b.bytes > it->base)
        fatal("DeviceSpace: buffer overlaps a later registration");
    if (it != buffers.begin()) {
        const Buffer &prev = *(it - 1);
        if (prev.base + prev.bytes > b.base)
            fatal("DeviceSpace: buffer overlaps an earlier registration");
    }
    buffers.insert(it, b);
}

uint64_t
DeviceSpace::translate(uint64_t addr)
{
    // Consecutive accesses overwhelmingly hit the same buffer, so
    // try the previous match before paying the binary search.
    if (last < buffers.size() &&
        addr - buffers[last].base < buffers[last].bytes)
        return buffers[last].canonical + (addr - buffers[last].base);
    // Registered buffer: canonical base + offset.
    auto it = std::upper_bound(
        buffers.begin(), buffers.end(), addr,
        [](uint64_t a, const Buffer &x) { return a < x.base; });
    if (it != buffers.begin()) {
        const Buffer &b = *(it - 1);
        if (addr - b.base < b.bytes) {
            last = size_t(it - 1 - buffers.begin());
            return b.canonical + (addr - b.base);
        }
    }
    // Fallback: deterministic page-granular relocation.
    uint64_t page = addr >> 12;
    auto [slot, fresh] = hostPages.try_emplace(page, kHostBase >> 12);
    if (fresh)
        slot->second = (kHostBase >> 12) + hostPages.size() - 1;
    return (slot->second << 12) | (addr & 0xfff);
}

} // namespace gpusim
} // namespace rodinia
