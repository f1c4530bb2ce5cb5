#include "fleet/auth_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "dram/system.h"
#include "puf/response_time.h"

namespace codic {

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
      case RequestKind::Authenticate: return "authenticate";
      case RequestKind::Reenroll: return "reenroll";
      case RequestKind::TrngDraw: return "trng_draw";
      case RequestKind::SecureDealloc: return "secure_dealloc";
    }
    panic("unknown request kind");
}

AdmissionClass
admissionClassOf(RequestKind kind)
{
    return kind == RequestKind::Authenticate
               ? AdmissionClass::Urgent
               : AdmissionClass::BestEffort;
}

// --- ZipfRankSampler ---------------------------------------------------------

namespace {

/** log1p(x)/x with a series fallback near zero. */
double
zipfHelper1(double x)
{
    return std::fabs(x) > 1e-8 ? std::log1p(x) / x
                               : 1.0 - x * (0.5 - x / 3.0);
}

/** expm1(x)/x with a series fallback near zero. */
double
zipfHelper2(double x)
{
    return std::fabs(x) > 1e-8
               ? std::expm1(x) / x
               : 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x));
}

} // namespace

ZipfRankSampler::ZipfRankSampler(double exponent, uint64_t n)
    : exponent_(exponent), n_(n)
{
    CODIC_ASSERT(exponent > 0.0 && std::isfinite(exponent));
    CODIC_ASSERT(n >= 1);
    h_x1_ = hIntegral(1.5) - 1.0;
    h_n_ = hIntegral(static_cast<double>(n) + 0.5);
    s_ = 2.0 - hIntegralInverse(hIntegral(2.5) - h(2.0));
}

double
ZipfRankSampler::hIntegral(double x) const
{
    // Integral of k^-exponent: (x^(1-e) - 1)/(1-e), log-form stable.
    const double log_x = std::log(x);
    return zipfHelper2((1.0 - exponent_) * log_x) * log_x;
}

double
ZipfRankSampler::h(double x) const
{
    return std::exp(-exponent_ * std::log(x));
}

double
ZipfRankSampler::hIntegralInverse(double x) const
{
    double t = x * (1.0 - exponent_);
    if (t < -1.0)
        t = -1.0; // Guard the log-series domain (rounding).
    return std::exp(zipfHelper1(t) * x);
}

uint64_t
ZipfRankSampler::sample(Rng &rng) const
{
    while (true) {
        const double u = h_n_ + rng.uniform() * (h_x1_ - h_n_);
        const double x = hIntegralInverse(u);
        uint64_t k = static_cast<uint64_t>(x + 0.5);
        k = std::clamp<uint64_t>(k, 1, n_);
        const double kd = static_cast<double>(k);
        // Accept k when x lands in its high-probability core, or by
        // the exact rejection test against the envelope.
        if (kd - x <= s_ || u >= hIntegral(kd + 0.5) - h(kd))
            return k - 1;
    }
}

// --- RequestGenerator --------------------------------------------------------

RequestGenerator::RequestGenerator(const TrafficConfig &config,
                                   uint64_t devices)
    : config_(config), devices_(devices)
{
    CODIC_ASSERT(devices_ > 0);
    CODIC_ASSERT(config_.zipf >= 0.0);
    if (config_.zipf > 0.0)
        zipf_ = std::make_unique<ZipfRankSampler>(config_.zipf,
                                                  devices_);
}

RequestGenerator::RequestGenerator(const TrafficConfig &config,
                                   std::vector<uint64_t> device_ids)
    : RequestGenerator(config,
                       static_cast<uint64_t>(device_ids.size()))
{
    ids_ = std::move(device_ids);
}

uint64_t
RequestGenerator::sampleDevice(Rng &rng) const
{
    const uint64_t rank =
        zipf_ ? zipf_->sample(rng) : rng.below(devices_);
    return ids_.empty() ? rank : ids_[static_cast<size_t>(rank)];
}

std::vector<FleetRequest>
RequestGenerator::generate() const
{
    const double weights[kRequestKinds] = {
        std::max(0.0, config_.weight_auth),
        std::max(0.0, config_.weight_reenroll),
        std::max(0.0, config_.weight_trng),
        std::max(0.0, config_.weight_dealloc),
    };
    double total_weight = 0.0;
    for (double w : weights)
        total_weight += w;
    CODIC_ASSERT(total_weight > 0.0, "empty request mix");

    Rng rng(config_.traffic_seed ^ 0xF1EE77AFull);
    std::vector<FleetRequest> stream;
    stream.reserve(config_.requests);
    double arrival_us = 0.0;
    for (uint64_t i = 0; i < config_.requests; ++i) {
        FleetRequest req;
        req.index = i;
        req.device_id = sampleDevice(rng);
        const double pick = rng.uniform() * total_weight;
        double acc = 0.0;
        req.kind = RequestKind::SecureDealloc;
        for (int k = 0; k < kRequestKinds; ++k) {
            acc += weights[k];
            if (pick < acc) {
                req.kind = static_cast<RequestKind>(k);
                break;
            }
        }
        req.nonce = rng.next64();
        if (req.kind == RequestKind::TrngDraw)
            req.payload = static_cast<uint32_t>(
                std::max(1, config_.trng_bits));
        else if (req.kind == RequestKind::SecureDealloc)
            req.payload = static_cast<uint32_t>(
                std::max(1, config_.dealloc_rows));
        if (config_.offered_rps > 0.0) {
            // Open loop: Poisson arrivals at the offered rate.
            const double mean_gap_us = 1e6 / config_.offered_rps;
            double u = rng.uniform();
            while (u <= 1e-300)
                u = rng.uniform();
            arrival_us += -mean_gap_us * std::log(u);
            req.arrival_us = arrival_us;
        }
        stream.push_back(req);
    }
    return stream;
}

// --- Cost model --------------------------------------------------------------

namespace {

/** Device's canonical physical row address inside a shard module. */
uint64_t
deviceRowAddr(const DramConfig &cfg, uint64_t segment_id)
{
    const uint64_t rows = static_cast<uint64_t>(cfg.totalRows());
    return (segment_id % rows) * static_cast<uint64_t>(cfg.row_bytes);
}

/**
 * Resumable replay of one request's DRAM command footprint over the
 * transaction API.
 *
 * A cursor carries the request's local replay clock and keeps ONE
 * request-level transaction in flight (one read burst, one CODIC row
 * op), each stamped with the cursor's local clock and chained on its
 * own completion exactly like the serial replay. The controller
 * services its queue in arrival order (ties: submission order), so a
 * slice of cursors submitting against one DramSystem issues commands
 * in near-global-time order without any scheduler loop here: one
 * device's read chain (a burst every completion latency) leaves the
 * data bus mostly idle, and the arrival-ordered queue fills those
 * gaps with bursts and row commands of the slice's other devices -
 * the bank-level parallelism a 64-entry FR-FCFS front-end extracts
 * from independent requests, and exactly what the serial
 * single-request replay leaves on the floor.
 */
struct ReplayCursor
{
    enum class Kind : uint8_t { None, Eval, Dealloc, Trng };

    Kind kind = Kind::None;
    uint64_t base = 0;     //!< Device's base physical address.
    uint64_t origin = 0;   //!< Device id (transaction origin tag).
    /**
     * Priority stamped on every footprint transaction. Authenticate
     * evaluations are tagged urgent (-1) unconditionally - the tag
     * is inert unless the scheduler runs with priority_sched (the
     * serving preset), so priority-blind presets keep their replay
     * byte-identical.
     */
    int priority = 0;
    size_t slot = 0;       //!< Stream index (replay latency slot).
    int bursts = 0;        //!< Eval: read bursts per pass.
    int passes_left = 0;   //!< Eval: passes still to run.
    int reads_left = 0;    //!< Eval: bursts left in current pass.
    int read_idx = 0;      //!< Eval: next burst within the pass.
    int rows_left = 0;     //!< Dealloc rows / Trng commands left.
    int row_idx = 0;       //!< Dealloc: next row offset.
    Cycle now = 0;         //!< Local replay clock.
    Ticket in_flight = kInvalidTicket; //!< Pending transaction.

    bool done() const
    {
        switch (kind) {
          case Kind::None: return true;
          case Kind::Eval: return passes_left == 0 && reads_left == 0;
          case Kind::Dealloc:
          case Kind::Trng: return rows_left == 0;
        }
        return true;
    }

    /** Submit the next footprint command, stamped with `now`. */
    void submitNext(DramSystem &sys)
    {
        CODIC_ASSERT(!done() && in_flight == kInvalidTicket);
        switch (kind) {
          case Kind::Eval: {
            if (reads_left == 0) {
                // Pass boundary: the CODIC row command that launches
                // the next filtered evaluation pass.
                in_flight = sys.submit(MemTransaction::makeRowOp(
                    base, now, RowOpMechanism::CodicDet, 0, origin,
                    priority));
                --passes_left;
                reads_left = bursts;
                read_idx = 0;
                return;
            }
            const int64_t burst_bytes = sys.config().burst_bytes;
            in_flight = sys.submit(MemTransaction::makeRead(
                base + static_cast<uint64_t>(read_idx) *
                           static_cast<uint64_t>(burst_bytes),
                now, origin, priority));
            ++read_idx;
            --reads_left;
            return;
          }
          case Kind::Dealloc: {
            const int64_t row_bytes = sys.config().row_bytes;
            const uint64_t capacity =
                static_cast<uint64_t>(sys.config().capacityBytes());
            const uint64_t addr =
                (base + static_cast<uint64_t>(row_idx) *
                            static_cast<uint64_t>(row_bytes)) %
                capacity;
            in_flight = sys.submit(MemTransaction::makeRowOp(
                addr, now, RowOpMechanism::CodicDet, 0, origin));
            ++row_idx;
            --rows_left;
            return;
          }
          case Kind::Trng:
            in_flight = sys.submit(MemTransaction::makeRowOp(
                base, now, RowOpMechanism::CodicDet, 0, origin));
            --rows_left;
            return;
          case Kind::None:
            return;
        }
    }

    /** Resolve the in-flight transaction into the local clock. */
    void harvest(DramSystem &sys)
    {
        CODIC_ASSERT(in_flight != kInvalidTicket);
        now = sys.completionOf(in_flight);
        in_flight = kInvalidTicket;
    }
};

/** Replay a cursor's whole footprint alone; returns its end clock. */
Cycle
replayAlone(DramSystem &sys, ReplayCursor cur)
{
    while (!cur.done()) {
        cur.submitNext(sys);
        cur.harvest(sys);
    }
    return cur.now;
}

} // namespace

FleetCostModel
buildFleetCostModel(const DramConfig &config, int filter_challenges,
                    const EnergyParams &energy)
{
    FleetCostModel m;
    m.eval_passes = std::max(1, filter_challenges);
    m.bursts_per_pass = static_cast<int>(
        std::min<int64_t>(config.row_bytes / config.burst_bytes,
                          config.columns));

    ResponseTimeParams rt;
    rt.filter_challenges = m.eval_passes;
    m.sig_eval_ns =
        evaluationTime(PufKind::CodicSig, true, config, rt).native_ns;

    // Steady-state per-row CODIC-det cost and energy, measured on a
    // scratch system (the same accounting the secure-deallocation
    // evaluation uses).
    {
        DramSystem sys(config);
        const int rows = 16;
        ReplayCursor dealloc;
        dealloc.kind = ReplayCursor::Kind::Dealloc;
        dealloc.rows_left = rows;
        const Cycle done = replayAlone(sys, dealloc);
        m.rowop_ns = config.cyclesToNs(done) / rows;
        m.dealloc_row_energy_nj =
            campaignEnergyNj(sys.totalCounts(),
                             config.cyclesToNs(done), energy) /
            rows;
    }

    // Full filtered-evaluation footprint energy.
    {
        DramSystem sys(config);
        ReplayCursor eval;
        eval.kind = ReplayCursor::Kind::Eval;
        eval.bursts = m.bursts_per_pass;
        eval.passes_left = m.eval_passes;
        replayAlone(sys, eval);
        m.auth_energy_nj = campaignEnergyNj(sys.totalCounts(),
                                            m.sig_eval_ns, energy);
    }

    // One harvest command (sigsa-class row command).
    {
        DramSystem sys(config);
        ReplayCursor harvest;
        harvest.kind = ReplayCursor::Kind::Trng;
        harvest.rows_left = 1;
        replayAlone(sys, harvest);
        m.trng_cmd_energy_nj = campaignEnergyNj(sys.totalCounts(),
                                                m.rowop_ns, energy);
    }
    return m;
}

// --- AuthService -------------------------------------------------------------

double
LoadReport::makespanNs() const
{
    double worst = 0.0;
    for (double b : shard_busy_ns)
        worst = std::max(worst, b);
    return worst;
}

AuthService::AuthService(DeviceFleet &fleet, EnrollmentBackend &store,
                         const AuthConfig &config)
    : fleet_(fleet), store_(store), config_(config),
      cost_model_(buildFleetCostModel(
          fleet.config().dram,
          fleet.config().sig_params.filter_challenges, config.energy))
{
}

double
modeledCapacityRps(const FleetCostModel &cost_model,
                   const AuthConfig &config)
{
    const double auth_ns = cost_model.sig_eval_ns + config.store_miss_ns;
    return static_cast<double>(std::max(1, config.service_lanes)) *
           1e9 / auth_ns;
}

void
enrollShard(DeviceFleet &fleet, EnrollmentBackend &store, int shard)
{
    for (uint64_t id : fleet.shardDeviceIds(shard)) {
        const Challenge ch = fleet.goldenChallenge(id);
        store.put(id, ch, fleet.enrollSignature(id, ch));
    }
}

void
enrollFleet(DeviceFleet &fleet, EnrollmentBackend &store, int threads)
{
    CampaignEngine engine(threads);
    engine.forEach(static_cast<size_t>(fleet.shards()),
                   [&](size_t shard) {
                       enrollShard(fleet, store, static_cast<int>(shard));
                   });
}

double
AuthService::trngEstNsPerBit()
{
    if (trng_est_ns_per_bit_ < 0.0) {
        // A reference TRNG of this population (fixed domain tag, not
        // any real device): its whitened throughput stands in for
        // the per-device rate the controller cannot know without
        // materializing the device - which a shed request never
        // does. <= 0 when even the reference scan found no sources.
        TrngConfig cfg;
        cfg.run.seed =
            fleet_.config().population_seed ^ 0x7E57AE5Eull;
        cfg.segment_bits = fleet_.config().trng_segment_bits;
        cfg.harvest_latency_ns =
            fleet_.config().trng_harvest_latency_ns;
        const CodicTrng ref(cfg);
        trng_est_ns_per_bit_ =
            ref.sources().empty()
                ? 0.0
                : 1e9 / ref.whitenedThroughputBitsPerSec();
    }
    return trng_est_ns_per_bit_;
}

double
AuthService::estimateServiceNs(const FleetRequest &req, bool known,
                               bool hit)
{
    switch (req.kind) {
      case RequestKind::Authenticate:
        if (!known)
            return config_.store_miss_ns;
        return (hit ? config_.store_hit_ns : config_.store_miss_ns) +
               cost_model_.sig_eval_ns;
      case RequestKind::Reenroll:
        return cost_model_.sig_eval_ns + config_.store_write_ns;
      case RequestKind::TrngDraw: {
        const double per_bit = trngEstNsPerBit();
        // Sourceless populations fail the draw after one scan pass.
        return per_bit > 0.0
                   ? static_cast<double>(req.payload) * per_bit
                   : cost_model_.sig_eval_ns;
      }
      case RequestKind::SecureDealloc:
        return static_cast<double>(req.payload) *
               cost_model_.rowop_ns;
    }
    panic("unknown request kind");
}

AuthService::Execution
AuthService::prepare(std::vector<FleetRequest> stream)
{
    Execution exec;
    exec.wall_start = std::chrono::steady_clock::now();
    exec.stream = std::move(stream);
    const size_t n = exec.stream.size();
    exec.hit.assign(n, false);
    exec.admitted.assign(n, true);
    exec.wait_ns.assign(n, 0.0);

    for (const FleetRequest &req : exec.stream)
        exec.open_loop = exec.open_loop || req.arrival_us > 0.0;
    exec.admission_on =
        exec.open_loop && config_.admission.enabled();

    /*
     * Unified sequential plan over the stream: the LRU cache plan
     * and the admission decisions advance together, so the cache
     * plan never sees a shed request (it is never served) and the
     * controller's store-latency estimate agrees exactly with the
     * hit the serving path will charge (LruIndex::contains peeks
     * what touch() would return). The plan runs the same LruIndex
     * that backs the store's real decode cache, at the store's real
     * capacity, and mirrors its semantics: failed lookups of
     * unknown devices are never cached (and take no capacity), and
     * a re-enrollment both makes the device known and invalidates
     * any cached decode. Purely order-based, so the modeled store
     * latency is independent of shard/thread scheduling; with
     * admission off the hit plan is exactly the plain LRU pass.
     */
    std::unique_ptr<AdmissionController> ctrl;
    if (exec.admission_on)
        ctrl = std::make_unique<AdmissionController>(
            config_.admission, std::max(1, config_.service_lanes),
            cost_model_.sig_eval_ns + config_.store_miss_ns);

    LruIndex plan(store_.cacheCapacity());
    std::unordered_set<uint64_t> enrolled_in_stream;
    for (size_t i = 0; i < n; ++i) {
        const FleetRequest &req = exec.stream[i];
        const bool known =
            req.kind == RequestKind::Authenticate &&
            (store_.contains(req.device_id) ||
             enrolled_in_stream.count(req.device_id) != 0);
        if (ctrl) {
            const bool hit_if_served =
                known && plan.contains(req.device_id);
            const AdmissionController::Decision d = ctrl->offer(
                admissionClassOf(req.kind), req.device_id,
                req.arrival_us * 1e3,
                estimateServiceNs(req, known, hit_if_served));
            if (!d.admitted) {
                exec.admitted[i] = false;
                const bool urgent = admissionClassOf(req.kind) ==
                                    AdmissionClass::Urgent;
                exec.shed_urgent += urgent;
                exec.shed_best_effort += !urgent;
                exec.shed_deadline += d.deadline_shed;
                exec.shed_queue += d.queue_shed;
                exec.shed_bucket += d.bucket_shed;
                continue; // Never served: no cache/lane effects.
            }
            exec.wait_ns[i] = d.wait_ns;
        }
        if (req.kind == RequestKind::Authenticate) {
            if (known) {
                exec.hit[i] = plan.touch(req.device_id);
                while (plan.evictIfOver()) {
                }
            }
        } else if (req.kind == RequestKind::Reenroll) {
            enrolled_in_stream.insert(req.device_id);
            plan.erase(req.device_id);
        }
    }

    // Batch the admitted requests per shard, preserving stream order
    // inside each batch.
    exec.batches.assign(static_cast<size_t>(fleet_.shards()), {});
    for (size_t i = 0; i < n; ++i)
        if (exec.admitted[i])
            exec.batches[static_cast<size_t>(fleet_.shardOf(
                             exec.stream[i].device_id))]
                .push_back(i);
    exec.results.assign(n, RequestResult{});
    exec.shard_busy_ns.assign(static_cast<size_t>(fleet_.shards()),
                              0.0);
    return exec;
}

void
AuthService::runShard(Execution &exec, size_t shard)
{
    const std::vector<FleetRequest> &stream = exec.stream;
    const std::vector<bool> &planned_hit = exec.hit;
    std::vector<RequestResult> &results = exec.results;
    const FleetConfig &fc = fleet_.config();
    {
        // Fresh replay system per batch: created on the executing
        // worker (single-thread ownership) with pristine timing
        // state, so the replay depends only on the batch content.
        DramSystem sys(fc.dram);

        // One request's outcome evaluation; returns the replay
        // cursor for its DRAM footprint (starting at `start`).
        const auto evalOne = [&](size_t i, Cycle start) {
            const FleetRequest &req = stream[i];
            RequestResult &res = results[i];
            ReplayCursor cur;
            cur.now = start;
            cur.origin = req.device_id;
            cur.slot = i;
            switch (req.kind) {
              case RequestKind::Authenticate: {
                cur.priority = -1; // Urgent class (serving preset).
                const auto golden = store_.lookup(req.device_id);
                if (!golden) {
                    res.unknown = true;
                    res.service_ns = config_.store_miss_ns;
                    return cur;
                }
                const Challenge ch =
                    fleet_.goldenChallenge(req.device_id);
                const Response fresh = fleet_.challengeResponse(
                    req.device_id, ch, req.nonce);
                if (jaccard(*golden, fresh) >=
                    config_.accept_threshold)
                    res.accepted = true;
                else
                    res.rejected = true;
                res.service_ns =
                    (planned_hit[i] ? config_.store_hit_ns
                                    : config_.store_miss_ns) +
                    cost_model_.sig_eval_ns;
                res.energy_nj = cost_model_.auth_energy_nj;
                cur.kind = ReplayCursor::Kind::Eval;
                cur.base = deviceRowAddr(fc.dram, ch.segment_id);
                cur.bursts = cost_model_.bursts_per_pass;
                cur.passes_left = cost_model_.eval_passes;
                return cur;
              }
              case RequestKind::Reenroll: {
                const Challenge ch =
                    fleet_.goldenChallenge(req.device_id);
                const Response sig = fleet_.challengeResponse(
                    req.device_id, ch, req.nonce);
                store_.put(req.device_id, ch, sig);
                res.reenrolled = true;
                res.service_ns = cost_model_.sig_eval_ns +
                                 config_.store_write_ns;
                res.energy_nj = cost_model_.auth_energy_nj;
                cur.kind = ReplayCursor::Kind::Eval;
                cur.base = deviceRowAddr(fc.dram, ch.segment_id);
                cur.bursts = cost_model_.bursts_per_pass;
                cur.passes_left = cost_model_.eval_passes;
                return cur;
              }
              case RequestKind::TrngDraw: {
                CodicTrng &trng = fleet_.trng(req.device_id);
                if (trng.sources().empty()) {
                    // No metastable sources at this scan width: the
                    // draw fails after one enrollment-scan pass.
                    res.trng_failure = true;
                    res.service_ns = cost_model_.sig_eval_ns;
                    return cur;
                }
                Rng noise(req.nonce ^ 0x7A6B5C4Dull);
                TrngHealthTests health;
                const auto bits =
                    trng.harvest(req.payload, noise, &health);
                res.trng_bits = static_cast<uint32_t>(bits.size());
                res.trng_failure = health.failed();
                res.service_ns = static_cast<double>(req.payload) /
                                 trng.whitenedThroughputBitsPerSec() *
                                 1e9;
                // One harvest command yields (Von Neumann) ~ the
                // per-command whitened yield; the command count is
                // the modeled service time over the command latency.
                const int commands = std::clamp(
                    static_cast<int>(std::ceil(
                        res.service_ns /
                        fc.trng_harvest_latency_ns)),
                    1, 512);
                res.energy_nj =
                    commands * cost_model_.trng_cmd_energy_nj;
                cur.kind = ReplayCursor::Kind::Trng;
                cur.base = deviceRowAddr(fc.dram, req.device_id);
                cur.rows_left = commands;
                return cur;
              }
              case RequestKind::SecureDealloc: {
                const int rows = static_cast<int>(req.payload);
                res.dealloc_rows = req.payload;
                res.service_ns = rows * cost_model_.rowop_ns;
                res.energy_nj =
                    rows * cost_model_.dealloc_row_energy_nj;
                cur.kind = ReplayCursor::Kind::Dealloc;
                cur.base = deviceRowAddr(fc.dram, req.device_id);
                cur.rows_left = rows;
                return cur;
              }
            }
            panic("unknown request kind");
        };

        // The slice-independence key of an evaluated request: its
        // device plus the DRAM bank its footprint starts on, read
        // off the cursor evalOne already built (the challenge is
        // derived once per request, and a no-footprint cursor -
        // unknown device, sourceless TRNG - claims no bank at all).
        struct SliceKey
        {
            uint64_t device = 0;
            uint64_t bank = 0;
            bool has_bank = false;
        };
        const auto keyOf = [&](const FleetRequest &req,
                               const ReplayCursor &cur) {
            SliceKey key;
            key.device = req.device_id;
            key.has_bank = cur.kind != ReplayCursor::Kind::None;
            if (key.has_bank) {
                const Address a = sys.map().decode(cur.base);
                key.bank =
                    (static_cast<uint64_t>(a.channel) << 32) |
                    (static_cast<uint64_t>(a.rank) << 16) |
                    static_cast<uint64_t>(a.bank);
            }
            return key;
        };

        // Bank-parallel batched replay: up to replay_batch requests
        // of DISTINCT devices with DISTINCT footprint base banks
        // form one slice (a physical device serves one request at a
        // time, and two read sweeps on one bank would thrash
        // PRE/ACT between their rows where a real FR-FCFS front-end
        // streams row hits - a repeated device or bank defers the
        // request to the next slice). Multi-bank footprints (secure
        // dealloc walks successive banks) are keyed by their base
        // bank only: where their row walk crosses a slice peer's
        // bank, the replay pays the genuine bounded row-conflict
        // cost of that crossing, not the sustained same-bank read
        // thrash the key exists to prevent. Every cursor starts at
        // the slice's start cycle and keeps one transaction in
        // flight, stamped with its local clock; the controller's
        // arrival-ordered read queue (ties: submission order) issues
        // commands of independent devices in near-global-time order,
        // overlapping across banks and channels while the JEDEC
        // checker serializes genuinely shared resources. The next
        // slice starts at the slowest cursor's completion.
        const auto &batch = exec.batches[shard];
        const size_t slice = static_cast<size_t>(
            std::max(1, fc.dram.scheduler.replay_batch));
        Cycle slice_start = 0;
        // Slice membership sets: a slice holds at most replay_batch
        // (<= 16) entries, so flat vectors with a linear scan beat
        // hash sets and stay allocation-free across slices after the
        // first reserve.
        std::vector<ReplayCursor> cursors;
        std::vector<uint64_t> slice_devices;
        std::vector<uint64_t> slice_banks;
        cursors.reserve(slice);
        slice_devices.reserve(slice);
        slice_banks.reserve(slice);
        const auto contains = [](const std::vector<uint64_t> &v,
                                 uint64_t x) {
            return std::find(v.begin(), v.end(), x) != v.end();
        };
        // The request that closed the previous slice (already
        // evaluated; its replay is deferred to the next slice).
        ReplayCursor carry_cur;
        SliceKey carry_key;
        bool have_carry = false;
        const auto admit = [&](const ReplayCursor &cur,
                               const SliceKey &key) {
            cursors.push_back(cur);
            slice_devices.push_back(key.device);
            if (key.has_bank)
                slice_banks.push_back(key.bank);
        };
        size_t k = 0;
        while (k < batch.size() || have_carry) {
            cursors.clear();
            slice_devices.clear();
            slice_banks.clear();
            if (have_carry) {
                carry_cur.now = slice_start;
                admit(carry_cur, carry_key);
                have_carry = false;
            }
            while (k < batch.size() && cursors.size() < slice) {
                const FleetRequest &req = stream[batch[k]];
                const ReplayCursor cur =
                    evalOne(batch[k], slice_start);
                const SliceKey key = keyOf(req, cur);
                ++k;
                if (!cursors.empty() &&
                    (contains(slice_devices, key.device) ||
                     (key.has_bank &&
                      contains(slice_banks, key.bank)))) {
                    carry_cur = cur;
                    carry_key = key;
                    have_carry = true;
                    break;
                }
                admit(cur, key);
            }
            // Multi-ticket poll loop: every active cursor keeps one
            // transaction in flight, and tickets resolve in ascending
            // arrival order (a cursor's clock IS its in-flight
            // arrival). Resolving the earliest ticket first matters:
            // channel horizons only move forward, so issuing a
            // late-arrival command ahead of an earlier one would
            // penalize the earlier one with the later command's bus
            // state. With this order the transaction queue issues the
            // slice's commands in exactly the near-global-time
            // interleave the old discrete-event loop produced.
            for (auto &c : cursors)
                if (!c.done())
                    c.submitNext(sys);
            while (true) {
                ReplayCursor *next = nullptr;
                for (auto &c : cursors)
                    if (c.in_flight != kInvalidTicket &&
                        (!next || c.now < next->now))
                        next = &c;
                if (!next)
                    break;
                next->harvest(sys);
                if (!next->done())
                    next->submitNext(sys);
            }
            Cycle slice_end = slice_start;
            for (const auto &c : cursors) {
                // Replay latency of the request: every cursor of the
                // slice started at slice_start (re-stamped for the
                // carried cursor), so its clock delta is how long its
                // footprint took on the shared channel - the number
                // the QoS ablation's auth percentiles are built from.
                if (c.kind != ReplayCursor::Kind::None)
                    results[c.slot].replay_ns =
                        fc.dram.cyclesToNs(c.now - slice_start);
                slice_end = std::max(slice_end, c.now);
            }
            slice_start = slice_end;
        }
        exec.shard_busy_ns[shard] =
            fc.dram.cyclesToNs(sys.lastIssueCycle());
    }
}

LoadReport
AuthService::finalize(Execution &exec) const
{
    const std::vector<FleetRequest> &stream = exec.stream;
    const std::vector<RequestResult> &results = exec.results;

    // Queueing model over the arrival stamps: device -> logical lane
    // (a fixed modeled deployment, never the execution shard count),
    // each lane serves its requests in arrival (= stream) order, and
    // a request waits while its lane is busy past its arrival. Pure
    // sequential plan over the stream: deterministic at any
    // shard/thread count. Closed-loop streams carry no arrival
    // stamps - their arrivals are service-driven, so no wait. With
    // admission on the waits were already planned (the controller's
    // lane model IS the queueing model, advanced by its service
    // estimates); with it off, backfill them here from the executed
    // service times - the legacy model, bit for bit.
    if (exec.open_loop && !exec.admission_on) {
        const size_t lanes = static_cast<size_t>(
            std::max(1, config_.service_lanes));
        std::vector<double> lane_free_ns(lanes, 0.0);
        for (size_t i = 0; i < stream.size(); ++i) {
            const size_t lane = stream[i].device_id % lanes;
            const double arrival_ns = stream[i].arrival_us * 1e3;
            const double begin =
                std::max(arrival_ns, lane_free_ns[lane]);
            exec.wait_ns[i] = begin - arrival_ns;
            lane_free_ns[lane] = begin + results[i].service_ns;
        }
    }

    // Sequential aggregation in stream order: deterministic. Shed
    // requests count into the arrival mix (by_kind) and the shed
    // telemetry only - they never executed, so every latency, wait,
    // outcome and energy figure covers admitted requests alone.
    LoadReport report;
    report.requests = stream.size();
    report.open_loop = exec.open_loop;
    report.admission_on = exec.admission_on;
    report.shed_urgent = exec.shed_urgent;
    report.shed_best_effort = exec.shed_best_effort;
    report.shed_deadline = exec.shed_deadline;
    report.shed_queue = exec.shed_queue;
    report.shed_bucket = exec.shed_bucket;
    std::vector<double> latencies;
    latencies.reserve(stream.size());
    std::vector<double> waits;
    waits.reserve(stream.size());
    std::vector<double> auth_replays;
    std::vector<double> urgent_latencies;
    double wait_sum = 0.0;
    for (size_t i = 0; i < stream.size(); ++i) {
        ++report.by_kind[static_cast<int>(stream[i].kind)];
        if (!exec.admitted[i])
            continue;
        ++report.admitted;
        const RequestResult &res = results[i];
        if (stream[i].kind == RequestKind::Authenticate &&
            !res.unknown)
            auth_replays.push_back(res.replay_ns);
        report.accepted += res.accepted;
        report.rejected += res.rejected;
        report.unknown_device += res.unknown;
        report.reenrolled += res.reenrolled;
        report.trng_bits_delivered += res.trng_bits;
        report.trng_health_failures += res.trng_failure;
        report.dealloc_rows_cleared += res.dealloc_rows;
        if (stream[i].kind == RequestKind::Authenticate &&
            !res.unknown) {
            report.planned_cache_hits += exec.hit[i];
            report.planned_cache_misses += !exec.hit[i];
        }
        report.total_service_ns += res.service_ns;
        report.total_energy_nj += res.energy_nj;
        wait_sum += exec.wait_ns[i];
        waits.push_back(exec.wait_ns[i]);
        latencies.push_back(exec.wait_ns[i] + res.service_ns);
        if (stream[i].kind == RequestKind::Authenticate)
            urgent_latencies.push_back(exec.wait_ns[i] +
                                       res.service_ns);
    }
    report.shed = report.requests - report.admitted;
    report.shed_rate =
        report.requests > 0
            ? static_cast<double>(report.shed) /
                  static_cast<double>(report.requests)
            : 0.0;
    if (!latencies.empty()) {
        const double n = static_cast<double>(latencies.size());
        report.latency_mean_ns =
            (report.total_service_ns + wait_sum) / n;
        report.latency_p50_ns = percentile(latencies, 50.0);
        report.latency_p95_ns = percentile(latencies, 95.0);
        report.latency_p99_ns = percentile(latencies, 99.0);
        report.latency_max_ns =
            *std::max_element(latencies.begin(), latencies.end());
        report.wait_mean_ns = wait_sum / n;
        report.wait_p95_ns = percentile(waits, 95.0);
        report.wait_max_ns =
            *std::max_element(waits.begin(), waits.end());
    }
    if (!urgent_latencies.empty()) {
        report.admitted_urgent_p50_ns =
            percentile(urgent_latencies, 50.0);
        report.admitted_urgent_p99_ns =
            percentile(urgent_latencies, 99.0);
    }
    if (!auth_replays.empty()) {
        report.auth_replayed = auth_replays.size();
        double sum = 0.0;
        for (double r : auth_replays)
            sum += r;
        report.auth_replay_mean_ns =
            sum / static_cast<double>(auth_replays.size());
        report.auth_replay_p50_ns = percentile(auth_replays, 50.0);
        report.auth_replay_p99_ns = percentile(auth_replays, 99.0);
        report.auth_replay_max_ns = *std::max_element(
            auth_replays.begin(), auth_replays.end());
    }
    report.admitted_latencies_ns = std::move(latencies);
    report.shard_busy_ns = std::move(exec.shard_busy_ns);
    report.wall_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - exec.wall_start)
            .count();
    return report;
}

LoadReport
AuthService::execute(const std::vector<FleetRequest> &stream)
{
    Execution exec = prepare(stream);
    CampaignEngine engine(config_.threads);
    engine.forEach(exec.batches.size(),
                   [&](size_t shard) { runShard(exec, shard); });
    return finalize(exec);
}

} // namespace codic
