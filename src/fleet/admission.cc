#include "fleet/admission.h"

#include <algorithm>

#include "common/logging.h"

namespace codic {

AdmissionController::AdmissionController(const AdmissionConfig &config,
                                         int lanes,
                                         double auto_deadline_ns)
    : config_(config)
{
    CODIC_ASSERT(config.enabled());
    CODIC_ASSERT(lanes >= 1);
    CODIC_ASSERT(auto_deadline_ns > 0.0);
    CODIC_ASSERT(config.burst >= 1.0);
    CODIC_ASSERT(config.urgent_reserve >= 0.0 &&
                 config.urgent_reserve < 1.0);
    CODIC_ASSERT(config.lane_queue_depth >= 1);
    deadline_ns_[static_cast<int>(AdmissionClass::Urgent)] =
        config.max_wait_urgent_ns > 0.0 ? config.max_wait_urgent_ns
                                        : auto_deadline_ns;
    deadline_ns_[static_cast<int>(AdmissionClass::BestEffort)] =
        config.max_wait_best_effort_ns > 0.0
            ? config.max_wait_best_effort_ns
            : 0.5 * deadline_ns_[static_cast<int>(
                        AdmissionClass::Urgent)];
    reserve_tokens_ = config.urgent_reserve * config.burst;
    tokens_ = config.burst; // A fresh service starts with full burst.
    lane_free_ns_.assign(static_cast<size_t>(lanes), 0.0);
    lane_done_ns_.resize(static_cast<size_t>(lanes));
}

AdmissionController::Decision
AdmissionController::offer(AdmissionClass cls, uint64_t device_id,
                           double arrival_ns, double est_service_ns)
{
    Decision d;

    // Refill at the capacity rate over the inter-arrival gap.
    if (arrival_ns > last_arrival_ns_) {
        tokens_ = std::min(config_.burst,
                           tokens_ + (arrival_ns - last_arrival_ns_) *
                                         config_.capacity_rps * 1e-9);
        last_arrival_ns_ = arrival_ns;
    }

    const size_t lane = static_cast<size_t>(
        device_id % lane_free_ns_.size());
    const double begin =
        std::max(arrival_ns, lane_free_ns_[lane]);
    const double wait = begin - arrival_ns;

    // Deadline-based drop: the client would time out before service
    // begins, so don't spend capacity on it.
    if (wait > deadline_ns_[static_cast<int>(cls)]) {
        d.admitted = false;
        d.deadline_shed = true;
        return d;
    }

    // Bounded wait queue: drop when the lane already holds its full
    // depth of queued/in-service requests at this arrival.
    auto &done = lane_done_ns_[lane];
    while (!done.empty() && done.front() <= arrival_ns)
        done.pop_front();
    if (done.size() >=
        static_cast<size_t>(config_.lane_queue_depth)) {
        d.admitted = false;
        d.queue_shed = true;
        return d;
    }

    // Token bucket with the urgent reserve: tokens are only spent on
    // requests that will actually be served.
    const double threshold =
        cls == AdmissionClass::Urgent ? 0.0 : reserve_tokens_;
    if (tokens_ < threshold + 1.0) {
        d.admitted = false;
        d.bucket_shed = true;
        return d;
    }
    tokens_ -= 1.0;

    d.wait_ns = wait;
    lane_free_ns_[lane] = begin + est_service_ns;
    done.push_back(begin + est_service_ns);
    return d;
}

} // namespace codic
