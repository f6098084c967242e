/**
 * @file
 * Core types for the trace-driven SIMT GPU simulator (the GPGPU-Sim
 * analog used for Figures 1-5, Table III, and the Plackett-Burman
 * study).
 *
 * Kernels execute their real computation per thread while recording a
 * trace of dynamic instructions. Each event carries a 128-bit order
 * key encoding the loop-iteration path plus the source-location PC;
 * comparing keys lexicographically reproduces program execution
 * order, which lets the warp replayer model SIMT reconvergence by
 * always executing the minimum-key lanes together.
 *
 * Lane traces are stored as LaneStreams: delta-encoded byte buffers
 * (order-key deltas, address deltas, op/space tag bytes, optional
 * repeat counts) decoded sequentially during replay. A 40-byte GEvent
 * compresses to a few bytes because consecutive events share key
 * prefixes and access strides — that is what makes paper-scale
 * recordings fit in memory.
 */

#ifndef RODINIA_GPUSIM_TYPES_HH
#define RODINIA_GPUSIM_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <source_location>
#include <vector>

#include "support/varint.hh"

namespace rodinia {
namespace gpusim {

/** Dynamic instruction categories recorded by kernels. */
enum class GOp : uint8_t {
    IntAlu,
    FpAlu,
    Branch,
    Load,
    Store,
    Sync,
};

/** GPU memory spaces (Figure 2's breakdown). */
enum class Space : uint8_t {
    None,
    Global,
    Shared,
    Const,
    Tex,
    Param,
    Local,
};

/**
 * 128-bit execution-order key: up to three (pc, iteration) loop
 * levels followed by the event PC, packed most-significant-first so
 * integer comparison equals lexicographic program-order comparison.
 */
struct OrderKey
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    bool
    operator==(const OrderKey &o) const
    {
        return hi == o.hi && lo == o.lo;
    }
    bool
    operator<(const OrderKey &o) const
    {
        return hi != o.hi ? hi < o.hi : lo < o.lo;
    }
};

/**
 * Compress a source location into a 16-bit PC.
 *
 * Lines above 1023 fold their overflow bits back into the 10-bit
 * field (XOR of the 10-bit groups) instead of clamping: clamping
 * mapped every line past 1023 to the same PC, so distinct
 * instrumentation sites deep in a large file collided into one key
 * slot, merging distinct loop levels and distorting SIMT
 * reconvergence. For lines <= 1023 the folds are no-ops, so existing
 * PCs (and every recorded content hash) are unchanged.
 */
inline uint16_t
packPc(const std::source_location &loc)
{
    uint32_t line = loc.line();
    line = (line ^ (line >> 10) ^ (line >> 20)) & 1023;
    uint32_t col = loc.column() > 63 ? 63 : loc.column();
    uint16_t pc = uint16_t((line << 6) | col);
    return pc ? pc : 1;
}

/** One recorded dynamic instruction of one GPU thread. */
struct GEvent
{
    OrderKey key;
    uint64_t addr = 0;
    uint32_t size = 0;
    uint32_t count = 1; //!< repeat count for batched ALU work
    GOp op = GOp::IntAlu;
    Space space = Space::None;
};

/**
 * Compact append-only storage for one lane's event trace.
 *
 * Events are delta-encoded into a single byte buffer: a tag byte
 * (op, space, presence bits), zigzag-varint deltas of the two order-
 * key words against the previous event, a zigzag-varint address
 * delta against the previous memory access plus a varint size (only
 * for events that carry an address), and a varint repeat count (only
 * when != 1). One buffer per lane — not one per column — because a
 * paper-scale launch has millions of short lanes and per-lane column
 * vectors would cost more in headers than the payload; the CPU-side
 * trace::EventStream, with few long streams, keeps true columns.
 *
 * Decoding is sequential via Cursor, which is exactly how the warp
 * replayer, the content hash, and the aggregate counters consume
 * lanes.
 */
class LaneStream
{
  public:
    /** Append one event at the tail of the lane. */
    void
    append(const GEvent &e)
    {
        ++count;
        bool hasAddr = e.addr != 0 || e.size != 0;
        bool hasCount = e.count != 1;
        uint8_t tag = uint8_t(uint8_t(e.op) | (uint8_t(e.space) << 3) |
                              (hasAddr ? 0x40 : 0) |
                              (hasCount ? 0x80 : 0));
        buf.push_back(tag);
        // Order keys are packed most-significant-first (the event PC
        // occupies bits 48-63 of an empty stack), so consecutive
        // events differ in the HIGH bits — the worst case for a
        // little-endian varint of an arithmetic delta. Byte-swapping
        // before an XOR delta moves the changing bytes to the low
        // end: a PC change costs 1-3 varint bytes instead of 8-10.
        uint64_t swHi = __builtin_bswap64(e.key.hi);
        uint64_t swLo = __builtin_bswap64(e.key.lo);
        support::putVarint(buf, swHi ^ prevKeyHi);
        support::putVarint(buf, swLo ^ prevKeyLo);
        prevKeyHi = swHi;
        prevKeyLo = swLo;
        if (hasAddr) {
            support::putVarint(
                buf, support::zigzag(int64_t(e.addr - prevAddr)));
            support::putVarint(buf, e.size);
            prevAddr = e.addr;
        }
        if (hasCount)
            support::putVarint(buf, e.count);
    }

    uint64_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Encoded payload bytes. */
    uint64_t encodedBytes() const { return buf.size(); }

    /** Drop append slack once complete: recordings outlive the run. */
    void shrinkToFit() { buf.shrink_to_fit(); }

    /** Sequential decoder; do not append while cursors exist. */
    class Cursor
    {
      public:
        Cursor() = default;
        explicit Cursor(const LaneStream &stream)
            : s(&stream), remaining(stream.count)
        {
        }

        /** Decode the next event into out; false at end of lane. */
        bool
        next(GEvent &out)
        {
            if (remaining == 0)
                return false;
            --remaining;
            const uint8_t *p = s->buf.data() + off;
            uint8_t tag = *p++;
            out.op = GOp(tag & 7);
            out.space = Space((tag >> 3) & 7);
            prevKeyHi ^= support::getVarint(p);
            prevKeyLo ^= support::getVarint(p);
            out.key.hi = __builtin_bswap64(prevKeyHi);
            out.key.lo = __builtin_bswap64(prevKeyLo);
            if (tag & 0x40) {
                prevAddr +=
                    uint64_t(support::unzigzag(support::getVarint(p)));
                out.addr = prevAddr;
                out.size = uint32_t(support::getVarint(p));
            } else {
                out.addr = 0;
                out.size = 0;
            }
            out.count = (tag & 0x80) ? uint32_t(support::getVarint(p)) : 1;
            off = std::size_t(p - s->buf.data());
            return true;
        }

      private:
        const LaneStream *s = nullptr;
        uint64_t remaining = 0;
        std::size_t off = 0; //!< byte offset of the next event
        uint64_t prevKeyHi = 0;
        uint64_t prevKeyLo = 0;
        uint64_t prevAddr = 0;
    };

    /** Visit every event in order (inlined per-event dispatch). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        Cursor c(*this);
        GEvent e;
        while (c.next(e))
            fn(e);
    }

    /** Materialize the lane (tests / small traces only). */
    std::vector<GEvent>
    decodeAll() const
    {
        std::vector<GEvent> out;
        out.reserve(std::size_t(count));
        forEach([&](const GEvent &e) { out.push_back(e); });
        return out;
    }

  private:
    uint64_t count = 0;
    std::vector<uint8_t> buf; //!< delta-encoded events
    uint64_t prevKeyHi = 0;   //!< encoder state: byte-swapped key words
    uint64_t prevKeyLo = 0;
    uint64_t prevAddr = 0;    //!< encoder state: previous mem address
};

/** Kernel launch geometry (1-D grid and block, as Rodinia uses). */
struct LaunchConfig
{
    int gridDim = 1;
    int blockDim = 32;
};

/** Recording of one thread block: one event trace per thread. */
struct BlockRecord
{
    std::vector<LaneStream> lanes;
    uint64_t sharedBytes = 0;
    int blockDim = 0;
};

/** Full recording of one kernel launch. */
struct KernelRecording
{
    LaunchConfig launch;
    std::vector<BlockRecord> blocks;

    /** Total dynamic thread instructions across all blocks. */
    uint64_t threadInstructions() const;
};

} // namespace gpusim
} // namespace rodinia

#endif // RODINIA_GPUSIM_TYPES_HH
