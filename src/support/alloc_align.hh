/**
 * @file
 * Scoped deterministic allocation alignment.
 *
 * See alloc_align.cc for the full rationale. While at least one
 * DeterministicAllocScope is alive anywhere in the process, the
 * global operator new replacements pin every allocation's line/page
 * phase (under 64 B: line-aligned; otherwise page-aligned), making
 * line-straddle splits and page co-tenancy of traced addresses
 * process-independent. Outside any scope, allocation falls through
 * to plain malloc at full speed — the GPU simulator and the
 * statistics pipeline get their determinism from address translation
 * (gpusim::DeviceSpace) and need no help from the allocator.
 */

#ifndef RODINIA_SUPPORT_ALLOC_ALIGN_HH
#define RODINIA_SUPPORT_ALLOC_ALIGN_HH

namespace rodinia {
namespace support {

/**
 * RAII guard enabling deterministic allocation alignment. Scopes
 * nest and may overlap across threads (the state is a process-wide
 * counter): alignment is active while any guard lives, so a CPU
 * characterization holds one across its whole workload run and
 * worker-thread allocations inside it are covered too.
 */
class DeterministicAllocScope
{
  public:
    DeterministicAllocScope();
    ~DeterministicAllocScope();
    DeterministicAllocScope(const DeterministicAllocScope &) = delete;
    DeterministicAllocScope &
    operator=(const DeterministicAllocScope &) = delete;
};

} // namespace support
} // namespace rodinia

#endif // RODINIA_SUPPORT_ALLOC_ALIGN_HH
