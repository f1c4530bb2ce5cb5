/**
 * @file
 * Synthetic workload generators standing in for the paper's Pin/Bochs
 * traces (Appendix A, Tables 8 and 9).
 *
 * Memory-allocation-intensive benchmarks (Table 8): mysql, memcached,
 * compiler, bootup, shell, malloc (stress-ng). Each is modeled as a
 * phased trace: compute, a working-set access mix, allocation of a
 * region that gets written, then deallocation of that region (which
 * the OS must zero - the operation under study).
 *
 * Non-allocation-intensive background benchmarks (for the multicore
 * mixes of Table 9): tpcc, tpch, stream, libquantum, xalancbmk,
 * bzip2, astar, lbm, condmat, pagerank, bfs - load/compute mixes with
 * no deallocation traffic.
 */

#ifndef CODIC_SIM_WORKLOADS_H
#define CODIC_SIM_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace codic {

/** Generator parameters for one phased workload. */
struct WorkloadParams
{
    std::string name;
    uint64_t footprint_bytes = 32ull << 20; //!< Working set.
    size_t phases = 400;
    uint64_t compute_per_phase = 4000;    //!< Instructions.
    int loads_per_phase = 120;
    int stores_per_phase = 40;
    uint64_t alloc_bytes_per_phase = 0;   //!< 0: not alloc-intensive.
    double sequential_fraction = 0.5;     //!< Streaming vs random.
    uint64_t seed = 1;
};

/** Generate a workload trace from parameters. */
Workload generateWorkload(const WorkloadParams &params);

/** Parameters of a named benchmark (Table 8 + background set). */
WorkloadParams benchmarkParams(const std::string &name, uint64_t seed);

/** The six allocation-intensive benchmarks of Table 8. */
std::vector<std::string> allocationIntensiveBenchmarks();

/** The background (non-allocation-intensive) benchmark pool. */
std::vector<std::string> backgroundBenchmarks();

/**
 * A 4-core mix: two allocation-intensive plus two background traces
 * (paper Table 9 methodology).
 */
struct WorkloadMix
{
    std::string name;
    std::vector<Workload> traces; //!< One per core (4 entries).
};

/**
 * The recipe of a 4-core mix. A mix's traces are a pure function of
 * its spec: core `i` runs generateWorkload(benchmarkParams(
 * benches[i], seed * 977 + i)). A sweep can therefore hold specs and
 * generate each mix only while it is simulated.
 */
struct MixSpec
{
    std::string name;
    std::vector<std::string> benches; //!< One per core (4 entries).
    uint64_t seed = 0;
};

/** Generate the traces of one mix from its spec. */
WorkloadMix buildMix(const MixSpec &spec);

/** The five representative mixes of Table 9 (seeds seed + 1..5). */
std::vector<MixSpec> representativeMixSpecs(uint64_t seed);

/**
 * N random mixes (the paper's 50-mix average): two intensive and two
 * background picks per mix, drawn up front from one Rng(seed); mix i
 * is seeded seed + 100 + i.
 */
std::vector<MixSpec> randomMixSpecs(size_t count, uint64_t seed);

/** The five representative mixes of Table 9, generated. */
std::vector<WorkloadMix> representativeMixes(uint64_t seed);

/** N random mixes, generated. */
std::vector<WorkloadMix> randomMixes(size_t count, uint64_t seed);

} // namespace codic

#endif // CODIC_SIM_WORKLOADS_H
