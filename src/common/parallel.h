/**
 * @file
 * Work-stealing campaign engine for embarrassingly parallel
 * simulation sweeps (PUF Jaccard campaigns, Monte-Carlo circuit
 * sweeps, secure-deallocation mechanism comparisons).
 *
 * Determinism contract: the engine never introduces scheduling
 * dependence into results. Callers split a campaign into indexed
 * tasks, derive one Rng stream per index up front (forkStreams), and
 * write each task's result into its own slot. Under that discipline a
 * campaign is bit-identical for a fixed seed at any thread count,
 * which the test suite asserts for every converted campaign.
 */

#ifndef CODIC_COMMON_PARALLEL_H
#define CODIC_COMMON_PARALLEL_H

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"

namespace codic {

/**
 * Thread pool with per-worker chunk deques and work stealing.
 *
 * Workers (and the calling thread, which participates) pop chunks
 * from the back of their own deque and steal from the front of a
 * victim's deque when theirs runs dry, so imbalanced tasks (e.g. a
 * chip whose PUF filter converges slowly) migrate to idle threads.
 *
 * The engine owns its worker threads for its whole lifetime; a
 * `threads() == 1` engine executes inline with no pool, which IS the
 * sequential path (there is no separate sequential implementation to
 * drift from).
 */
class CampaignEngine
{
  public:
    /**
     * @param threads Worker count. 0 picks the hardware concurrency;
     *        1 runs every campaign inline on the calling thread.
     */
    explicit CampaignEngine(int threads = 0);
    ~CampaignEngine();

    CampaignEngine(const CampaignEngine &) = delete;
    CampaignEngine &operator=(const CampaignEngine &) = delete;

    /** Number of threads that execute tasks (including the caller). */
    int threads() const { return threads_; }

    /**
     * Execute fn(i) for every i in [0, n). Blocks until all tasks
     * complete. The first exception thrown by a task is rethrown here
     * after the campaign drains; remaining tasks are skipped.
     */
    void forEach(size_t n, const std::function<void(size_t)> &fn);

  private:
    struct Impl;

    int threads_;
    std::unique_ptr<Impl> impl_; //!< Null when threads_ == 1.
};

/**
 * Derive n independent per-task Rng streams from one campaign seed.
 *
 * The streams are produced by sequential fork() calls on a fresh root
 * generator, so they depend only on (seed, index) - never on which
 * thread later consumes them.
 */
std::vector<Rng> forkStreams(uint64_t seed, size_t n);

} // namespace codic

#endif // CODIC_COMMON_PARALLEL_H
