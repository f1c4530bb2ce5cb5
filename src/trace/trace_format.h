/**
 * @file
 * Compact binary trace format for workload record/replay.
 *
 * The paper's CPU-side evaluation is driven by real Pin user-level
 * and Bochs full-system traces (Appendix A); this subsystem makes
 * every workload this repository runs a reproducible artifact of the
 * same shape. A trace is a stream of TraceRecords - operation kind,
 * byte address, absolute tick, origin tag - stored varint-delta
 * encoded (like EnrollmentStore records) behind a versioned magic
 * header, so a million-record trace costs a few bytes per record and
 * a file written by one run can be trusted by a later one: any
 * magic/version mismatch is rejected loudly instead of misparsed.
 *
 * Two trace levels share the format:
 *  - raw CPU-level traces (Load / Store / Flush): what a tracer in
 *    front of the cache hierarchy sees. CacheFilter turns these into
 *    the post-LLC level below, recording hit/miss/writeback stats.
 *  - DRAM-level traces (Read / Write / RowOp): the post-LLC miss
 *    stream a MemoryService actually schedules. TraceRecorder taps
 *    DramSystem::submit and ::serve to capture one from any running
 *    scenario, and TraceReplaySource re-drives a MemoryService from
 *    one with the original inter-arrival timing.
 *
 * File layout (all fixed-width header/index integers little-endian):
 *
 *   offset  size  field
 *   0       8     magic "CODICTRC"
 *   8       4     u32 format version (kTraceFormatVersion)
 *   12      4     u32 header_bytes (file offset of the first record)
 *   16      8     u64 record_count   (patched by TraceWriter::finish)
 *   24      8     u64 index_offset   (patched by finish; 0 = none)
 *   32      8     u64 max_addr       (patched by finish; replay
 *                                     sizes its module to cover it)
 *   40      8     u64 seed           (provenance: generator seed)
 *   48      4     u32 epoch_stride   (records per epoch)
 *   52      4     u32 scenario_len
 *   56      n     scenario name     (provenance: generator scenario)
 *   ...           records
 *   index_offset: u64 epoch_count, then per epoch
 *                 {u64 file_offset, u64 start_record, u64 start_tick}
 *
 * Record encoding: u8 kind, zigzag-varint tick delta, zigzag-varint
 * address delta, varint origin; RowOp records append u8 mechanism
 * and a zigzag-varint reserved row. Delta state (previous tick and
 * address) resets to zero at every epoch boundary, so a reader can
 * jump to any index entry and decode forward without touching the
 * bytes before it - the seekable fast-forward the mmap reader
 * exposes.
 */

#ifndef CODIC_TRACE_TRACE_FORMAT_H
#define CODIC_TRACE_TRACE_FORMAT_H

#include <cstdint>
#include <string>

namespace codic {

/** Current on-disk trace format version. */
constexpr uint32_t kTraceFormatVersion = 1;

/** Magic bytes opening every trace file. */
constexpr char kTraceMagic[8] = {'C', 'O', 'D', 'I',
                                 'C', 'T', 'R', 'C'};

/** Records per epoch (delta-state reset + index granularity). */
constexpr uint32_t kDefaultEpochStride = 4096;

/** Kinds of trace operations (stable on-disk values). */
enum class TraceOpKind : uint8_t
{
    // CPU-level (pre-cache): what a Pin-style tracer records.
    Load = 0,  //!< 64 B line read at addr.
    Store = 1, //!< 64 B line write at addr.
    Flush = 2, //!< CLFLUSH of the line at addr.
    // DRAM-level (post-LLC): what a MemoryService schedules.
    Read = 3,  //!< One burst read transaction.
    Write = 4, //!< One burst write transaction.
    RowOp = 5, //!< Bulk row operation (mech + reserved row).
};

constexpr uint8_t kTraceOpKinds = 6;

/** Display name of a TraceOpKind. */
const char *traceOpKindName(TraceOpKind kind);

/** True for the CPU-level kinds a CacheFilter consumes. */
inline bool
isCpuLevel(TraceOpKind kind)
{
    return kind == TraceOpKind::Load || kind == TraceOpKind::Store ||
           kind == TraceOpKind::Flush;
}

/** One decoded trace operation. */
struct TraceRecord
{
    TraceOpKind kind = TraceOpKind::Read;
    uint64_t addr = 0;        //!< Physical byte address.
    uint64_t tick = 0;        //!< Absolute tick (DRAM cycles).
    uint64_t origin = 0;      //!< Issuer tag (never interpreted).
    uint8_t mech = 0;         //!< RowOp only: RowOpMechanism value.
    int64_t reserved_row = 0; //!< RowOp only: reserved zero row.

    bool operator==(const TraceRecord &) const = default;
};

/** Provenance carried in the trace header. */
struct TraceMeta
{
    std::string scenario; //!< Generator scenario ("" = unknown).
    uint64_t seed = 0;    //!< Generator campaign seed.
    uint32_t epoch_stride = kDefaultEpochStride;
};

} // namespace codic

#endif // CODIC_TRACE_TRACE_FORMAT_H
