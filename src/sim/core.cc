#include "sim/core.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "mem/address_map.h"

namespace codic {

InOrderCore::InOrderCore(MemoryService &mem, const CoreConfig &config,
                         uint64_t addr_base)
    : controller_(mem), config_(config), addr_base_(addr_base),
      l1_(config.l1_bytes, config.l1_ways),
      l2_(config.l2_bytes, config.l2_ways),
      cpu_cycle_ns_(1.0 / config.cpu_ghz),
      dram_tck_ns_(mem.dramConfig().tck_ns)
{
}

void
InOrderCore::bind(const Workload *workload, double start_ns)
{
    workload_ = workload;
    cursor_ = 0;
    now_ns_ = start_ns;
    stats_ = {};
}

bool
InOrderCore::done() const
{
    return !workload_ || cursor_ >= workload_->ops.size();
}

Cycle
InOrderCore::nowCycles() const
{
    return static_cast<Cycle>(std::ceil(now_ns_ / dram_tck_ns_));
}

void
InOrderCore::advanceTo(Cycle dram_cycle)
{
    now_ns_ = std::max(now_ns_,
                       static_cast<double>(dram_cycle) * dram_tck_ns_);
}

void
InOrderCore::cpuCycles(double n)
{
    now_ns_ += n * cpu_cycle_ns_;
}

void
InOrderCore::writeback(uint64_t victim_addr)
{
    // Fire-and-forget: the core neither waits on a writeback's
    // burst nor on its acceptance.
    controller_.serve(MemTransaction::makeWrite(victim_addr, nowCycles(),
                                                addr_base_));
}

void
InOrderCore::writebackThroughL2(uint64_t victim_addr)
{
    const auto wb = l2_.access(victim_addr, true);
    if (wb.writeback)
        writeback(wb.victim_addr);
}

void
InOrderCore::doLoad(uint64_t addr)
{
    stats_.instructions += 1;
    ++stats_.loads;
    cpuCycles(config_.l1_hit_cycles);
    const auto r1 = l1_.access(addr, false);
    if (r1.hit)
        return;
    if (r1.writeback)
        writebackThroughL2(r1.victim_addr);
    cpuCycles(config_.l2_hit_cycles);
    const auto r2 = l2_.access(addr, false);
    if (r2.hit)
        return;
    if (r2.writeback)
        writeback(r2.victim_addr);
    // The load blocks the in-order core until its data arrives.
    advanceTo(controller_.serve(
        MemTransaction::makeRead(addr, nowCycles(), addr_base_)));
}

void
InOrderCore::doStore(uint64_t addr)
{
    stats_.instructions += 8; // 8 B stores over a 64 B line.
    ++stats_.stores;
    cpuCycles(8);
    const auto r1 = l1_.access(addr, true);
    if (r1.hit)
        return;
    if (r1.writeback)
        writebackThroughL2(r1.victim_addr);
    cpuCycles(config_.l2_hit_cycles);
    const auto r2 = l2_.access(addr, true);
    if (r2.hit)
        return;
    if (r2.writeback)
        writeback(r2.victim_addr);
    // Write-allocate: fetch the line (read-for-ownership).
    advanceTo(controller_.serve(
        MemTransaction::makeRead(addr, nowCycles(), addr_base_)));
}

void
InOrderCore::doFlush(uint64_t addr)
{
    stats_.instructions += 1;
    cpuCycles(2);
    bool dirty = l1_.flushLine(addr);
    dirty = l2_.flushLine(addr) || dirty;
    if (dirty) {
        // Write-queue back-pressure stalls the flush when full: the
        // core advances to the acceptance cycle, not the burst end.
        advanceTo(controller_.serve(
            MemTransaction::makeWrite(addr, nowCycles(), addr_base_)));
    }
}

void
InOrderCore::doDealloc(uint64_t addr, uint64_t bytes)
{
    stats_.instructions += 1;
    const int64_t row_bytes = controller_.map().rowBytes();
    if (config_.dealloc == DeallocMode::SoftwareZero) {
        // Inline zeroing loop: one store per line.
        for (uint64_t a = addr; a < addr + bytes; a += 64) {
            doStore(a);
            ++stats_.dealloc_lines_zeroed;
        }
        return;
    }
    RowOpMechanism mech;
    switch (config_.dealloc) {
      case DeallocMode::CodicDet:
        mech = RowOpMechanism::CodicDet;
        break;
      case DeallocMode::RowClone:
        mech = RowOpMechanism::RowClone;
        break;
      case DeallocMode::LisaClone:
        mech = RowOpMechanism::LisaClone;
        break;
      default:
        panic("unreachable dealloc mode");
    }
    // One in-DRAM row operation per row; stale cached copies of the
    // region are invalidated. The operation proceeds in DRAM without
    // blocking the core: the completion cycle is discarded (serving
    // only forces the command onto the channel at its arrival cycle,
    // exactly like the pre-transaction controller).
    for (uint64_t a = addr; a < addr + bytes;
         a += static_cast<uint64_t>(row_bytes)) {
        cpuCycles(config_.dealloc_cmd_cycles);
        l1_.invalidateRange(a, static_cast<uint64_t>(row_bytes));
        l2_.invalidateRange(a, static_cast<uint64_t>(row_bytes));
        controller_.serve(MemTransaction::makeRowOp(
            a, nowCycles(), mech, 0, addr_base_));
        ++stats_.dealloc_rows;
    }
}

void
InOrderCore::step()
{
    CODIC_ASSERT(!done());
    const TraceOp &op = workload_->ops[cursor_++];
    switch (op.type) {
      case OpType::Compute:
        stats_.instructions += op.count;
        cpuCycles(static_cast<double>(op.count));
        break;
      case OpType::Load:
        doLoad(addr_base_ + op.addr);
        break;
      case OpType::Store:
        doStore(addr_base_ + op.addr);
        break;
      case OpType::Flush:
        doFlush(addr_base_ + op.addr);
        break;
      case OpType::DeallocRegion:
        doDealloc(addr_base_ + op.addr, op.count);
        break;
    }
}

double
InOrderCore::run()
{
    while (!done())
        step();
    return now_ns_;
}

} // namespace codic
