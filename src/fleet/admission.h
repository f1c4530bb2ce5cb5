/**
 * @file
 * Admission control and load shedding for the serving frontend.
 *
 * An open-loop arrival process does not slow down when the service
 * saturates: without admission control the wait queues grow without
 * bound and every request's latency diverges. The controller here
 * sheds load at arrival time instead, with the shape every
 * production serving stack converges on:
 *
 *  - a token bucket refilled at the configured service capacity
 *    (requests/s) with a bounded burst, so sustained offered load
 *    past capacity is shed at the excess rate;
 *  - two priority classes with a reserve: urgent requests (fleet
 *    authentication) may drain the bucket to empty, while
 *    best-effort requests (re-enrollment, TRNG draws, bulk
 *    deallocation) need the bucket above an urgent-only reserve -
 *    so an urgent request is never shed while best-effort traffic
 *    is still being admitted;
 *  - a bounded per-lane wait queue with deadline-based drop: a
 *    request whose projected queueing wait exceeds its class
 *    deadline (the client would have timed out) or whose lane
 *    queue is full is dropped at arrival, which is what keeps the
 *    admitted tail latency bounded under any overload.
 *
 * The controller is a sequential model over the arrival-ordered
 * stream (like AuthService's LRU cache plan and lane queueing
 * model): decisions are a pure function of the stream and the
 * config, never of execution scheduling, so reports stay
 * byte-identical at any thread or shard count.
 */

#ifndef CODIC_FLEET_ADMISSION_H
#define CODIC_FLEET_ADMISSION_H

#include <cstdint>
#include <deque>
#include <vector>

namespace codic {

/** Priority classes of the admission controller. */
enum class AdmissionClass : uint8_t
{
    Urgent = 0,     //!< Authentication: never shed first.
    BestEffort = 1, //!< Re-enroll / TRNG / dealloc: shed first.
};

constexpr int kAdmissionClasses = 2;

/** Admission-control tuning (AuthConfig::admission). */
struct AdmissionConfig
{
    /**
     * Modeled service capacity in requests/s: the token-bucket
     * refill rate. <= 0 disables admission control entirely (the
     * serving path is byte-identical to a build without it).
     */
    double capacity_rps = 0.0;

    /** Token-bucket depth: the burst admitted above the rate. */
    double burst = 64.0;

    /**
     * Fraction of the bucket reserved for urgent requests: a
     * best-effort request needs the bucket above reserve * burst
     * tokens, an urgent one only above zero.
     */
    double urgent_reserve = 0.25;

    /**
     * Queueing-wait deadlines (ns) per class; a request projected
     * to wait longer is dropped at arrival. 0 = derive from the
     * cost model (urgent: one full authenticate service time;
     * best-effort: half that).
     */
    double max_wait_urgent_ns = 0.0;
    double max_wait_best_effort_ns = 0.0;

    /** Maximum requests queued or in service per lane. */
    int lane_queue_depth = 64;

    bool enabled() const { return capacity_rps > 0.0; }
};

/**
 * The sequential admission model. Offer requests in arrival order;
 * each decision updates the token bucket and the per-lane queue
 * model, so a decision depends only on the decisions before it.
 */
class AdmissionController
{
  public:
    /** Outcome of one offered request. */
    struct Decision
    {
        bool admitted = true;
        bool deadline_shed = false; //!< Wait past class deadline.
        bool queue_shed = false;    //!< Lane queue full.
        bool bucket_shed = false;   //!< Token bucket empty/reserved.
        double wait_ns = 0.0;       //!< Queueing wait when admitted.
    };

    /**
     * @param lanes Serving lanes (AuthConfig::service_lanes).
     * @param auto_deadline_ns Urgent deadline when the config says
     *        derive (one authenticate service time, cost-model
     *        measured).
     */
    AdmissionController(const AdmissionConfig &config, int lanes,
                        double auto_deadline_ns);

    /**
     * Offer one request (arrival order; stamps non-decreasing).
     * @param est_service_ns The controller's service-time estimate,
     *        used to advance the lane model when admitted.
     */
    Decision offer(AdmissionClass cls, uint64_t device_id,
                   double arrival_ns, double est_service_ns);

    /** Effective per-class deadline (after auto-derivation). */
    double deadlineNs(AdmissionClass cls) const
    {
        return deadline_ns_[static_cast<int>(cls)];
    }

  private:
    AdmissionConfig config_;
    double deadline_ns_[kAdmissionClasses];
    double reserve_tokens_;
    double tokens_;
    double last_arrival_ns_ = 0.0;
    std::vector<double> lane_free_ns_;
    /** Completion stamps of queued/in-service requests per lane. */
    std::vector<std::deque<double>> lane_done_ns_;
};

} // namespace codic

#endif // CODIC_FLEET_ADMISSION_H
