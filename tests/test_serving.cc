/**
 * @file
 * Tests of the production-serving layer: LruIndex edge behavior
 * (the shared recency index behind the store's decode cache and the
 * deterministic cache plan), the streaming store writer and the
 * mapped-file store base (enrollment_store.h), admission control / load
 * shedding (admission.h), and the RunOptions contract for the
 * --store-mmap/--regions/--shed CLI surface.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/run_options.h"
#include "fleet/admission.h"
#include "fleet/auth_service.h"
#include "fleet/device_fleet.h"
#include "fleet/enrollment_store.h"

namespace codic {
namespace {

namespace fs = std::filesystem;

/** Small fleet that keeps tests fast. */
FleetConfig
servingFleetConfig(uint64_t devices = 48, int shards = 3)
{
    FleetConfig fc;
    fc.population_seed = 77;
    fc.devices = devices;
    fc.shards = shards;
    fc.dram = DramConfig::ddr3_1600(256, 1);
    fc.dram.scheduler = SchedulerPolicy::preset("batched");
    return fc;
}

std::string
tempPath(const std::string &name)
{
    return (fs::temp_directory_path() / name).string();
}

// --- LruIndex edge cases. ---

TEST(LruIndex, CapacityOneThrashes)
{
    LruIndex idx(1);
    EXPECT_FALSE(idx.touch(7));
    EXPECT_EQ(idx.evictIfOver(), std::nullopt);
    EXPECT_FALSE(idx.touch(8));
    EXPECT_EQ(idx.evictIfOver(), std::optional<uint64_t>(7));
    EXPECT_EQ(idx.evictIfOver(), std::nullopt);
    EXPECT_TRUE(idx.touch(8));
}

TEST(LruIndex, ZeroCapacityClampsToOne)
{
    LruIndex idx(0);
    idx.touch(1);
    idx.touch(2);
    EXPECT_EQ(idx.evictIfOver(), std::optional<uint64_t>(1));
    EXPECT_EQ(idx.evictIfOver(), std::nullopt);
}

TEST(LruIndex, TouchAfterEvictReinsertsAsNew)
{
    LruIndex idx(1);
    idx.touch(5);
    idx.touch(6);
    EXPECT_EQ(idx.evictIfOver(), std::optional<uint64_t>(5));
    // The evicted id must come back as a fresh insert, not a hit.
    EXPECT_FALSE(idx.touch(5));
    EXPECT_EQ(idx.evictIfOver(), std::optional<uint64_t>(6));
}

TEST(LruIndex, EvictIfOverDrainsLeastRecentFirst)
{
    LruIndex idx(2);
    for (uint64_t id : {1, 2, 3, 4})
        idx.touch(id);
    // Deferred draining pops victims oldest-first until at capacity.
    EXPECT_EQ(idx.evictIfOver(), std::optional<uint64_t>(1));
    EXPECT_EQ(idx.evictIfOver(), std::optional<uint64_t>(2));
    EXPECT_EQ(idx.evictIfOver(), std::nullopt);
    EXPECT_TRUE(idx.contains(3));
    EXPECT_TRUE(idx.contains(4));
}

TEST(LruIndex, ContainsIsAPurePeek)
{
    LruIndex idx(2);
    idx.touch(1);
    idx.touch(2);
    // A peek must not refresh recency: 1 stays the LRU victim.
    EXPECT_TRUE(idx.contains(1));
    idx.touch(3);
    EXPECT_EQ(idx.evictIfOver(), std::optional<uint64_t>(1));
}

TEST(LruIndex, EraseDropsOnlyThePresentId)
{
    LruIndex idx(4);
    idx.touch(1);
    EXPECT_TRUE(idx.erase(1));
    EXPECT_FALSE(idx.erase(1));
    EXPECT_FALSE(idx.contains(1));
}

// --- Streaming store writer. ---

Response
cellsResponse(std::initializer_list<uint32_t> cells)
{
    Response r;
    r.cells = cells;
    return r;
}

TEST(EnrollmentStoreWriter, MatchesSaveBinaryByteForByte)
{
    EnrollmentStore store(4242);
    store.put(1, {99, 65536}, cellsResponse({7}));
    store.put(5, {123, 65536}, cellsResponse({1, 2, 500, 65535}));
    store.put(300, {4, 32768}, cellsResponse({}));
    std::ostringstream reference;
    store.saveBinary(reference);

    const std::string path = tempPath("codic_test_writer.bin");
    EnrollmentStoreWriter writer(path, 4242);
    writer.append(1, {99, 65536}, cellsResponse({7}));
    writer.append(5, {123, 65536}, cellsResponse({1, 2, 500, 65535}));
    writer.append(300, {4, 32768}, cellsResponse({}));
    writer.finish();

    std::ifstream in(path, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(bytes.str(), reference.str());
    fs::remove(path);
}

TEST(EnrollmentStoreWriter, RejectsUnsortedAppends)
{
    const std::string path = tempPath("codic_test_writer_bad.bin");
    EnrollmentStoreWriter writer(path, 1);
    writer.append(5, {1, 64}, cellsResponse({1}));
    EXPECT_THROW(writer.append(3, {1, 64}, cellsResponse({2})),
                 FatalError);
    EXPECT_THROW(writer.append(5, {1, 64}, cellsResponse({2})),
                 FatalError);
    fs::remove(path);
}

TEST(EnrollmentStoreWriter, UnfinishedWriterCleansUpPartialFiles)
{
    const std::string path = tempPath("codic_test_writer_part.bin");
    {
        EnrollmentStoreWriter writer(path, 1);
        writer.append(1, {1, 64}, cellsResponse({1}));
        // Destroyed without finish(): a crash mid-campaign must not
        // leave a half-written store that a later run trusts.
    }
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".idx"));

    // A constructor that fails on the index side file must not leave
    // the store file it already created behind.
    fs::create_directory(path + ".idx");
    EXPECT_THROW(EnrollmentStoreWriter(path, 1), FatalError);
    EXPECT_FALSE(fs::exists(path));
    fs::remove(path + ".idx");
}

// --- Mapped-file store base. ---

/** Write a deterministic test store and return its path. */
std::string
writeTestStore(const std::string &name, uint64_t seed = 321,
               uint64_t devices = 50)
{
    const std::string path = tempPath(name);
    EnrollmentStoreWriter writer(path, seed);
    for (uint64_t id = 0; id < devices; ++id) {
        // Odd ids get sparse signatures, evens denser ones.
        Response sig;
        for (uint32_t c = 0; c < 3 + (id % 5) * 4; ++c)
            sig.cells.push_back(
                static_cast<uint32_t>(id * 131 + c * 17));
        writer.append(id * 3, {id % 7, 65536}, sig);
    }
    writer.finish();
    return path;
}

TEST(EnrollmentStore, MappedBaseServesWhatLoadFileReads)
{
    const std::string path =
        writeTestStore("codic_test_mmap_parity.bin");
    const EnrollmentStore heap = EnrollmentStore::loadFile(path);
    const EnrollmentStore mm(path);

    EXPECT_EQ(mm.populationSeed(), heap.populationSeed());
    EXPECT_EQ(mm.size(), heap.size());
    EXPECT_EQ(mm.baseRecords(), heap.size());
    EXPECT_EQ(mm.deviceIds(), heap.deviceIds());
    for (uint64_t id : heap.deviceIds()) {
        EXPECT_TRUE(mm.contains(id));
        ASSERT_NE(mm.lookup(id), nullptr);
        EXPECT_EQ(*mm.lookup(id), *heap.lookup(id));
    }
    EXPECT_FALSE(mm.contains(1));  // Ids are multiples of 3.
    EXPECT_EQ(mm.lookup(1), nullptr);
    EXPECT_GT(mm.cacheHits(), 0u); // Double lookups above hit.
    fs::remove(path);
}

TEST(EnrollmentStore, OverlayShadowsBaseRecords)
{
    const std::string path =
        writeTestStore("codic_test_mmap_overlay.bin");
    EnrollmentStore mm(path);
    const size_t base = mm.size();

    // Re-enroll an existing device: the overlay supersedes its base
    // record; the mapped file is untouched.
    mm.put(3, {2, 65536}, cellsResponse({42, 43}));
    EXPECT_EQ(*mm.lookup(3), cellsResponse({42, 43}));
    EXPECT_EQ(mm.size(), base);
    EXPECT_EQ(mm.overlayRecords(), 1u);

    // Enroll a brand-new device: size grows.
    mm.put(1, {1, 65536}, cellsResponse({9}));
    EXPECT_TRUE(mm.contains(1));
    EXPECT_EQ(*mm.lookup(1), cellsResponse({9}));
    EXPECT_EQ(mm.size(), base + 1);
    EXPECT_EQ(mm.overlayRecords(), 2u);
    fs::remove(path);
}

TEST(EnrollmentStore, CompactFoldsOverlayIntoAFreshFile)
{
    const std::string path =
        writeTestStore("codic_test_mmap_compact.bin");
    const std::string compacted =
        tempPath("codic_test_mmap_compacted.bin");
    EnrollmentStore mm(path);
    mm.put(3, {2, 65536}, cellsResponse({42, 43}));   // Supersede.
    mm.put(1, {1, 65536}, cellsResponse({9}));        // New device.

    const auto stats = mm.compactTo(compacted);
    EXPECT_EQ(stats.base_records, mm.baseRecords());
    EXPECT_EQ(stats.overlay_records, 2u);
    EXPECT_EQ(stats.superseded, 1u);
    EXPECT_EQ(stats.records_written, mm.size());

    EnrollmentStore fresh(compacted);
    EXPECT_EQ(fresh.size(), mm.size());
    EXPECT_EQ(fresh.overlayRecords(), 0u);
    EXPECT_EQ(fresh.deviceIds(), mm.deviceIds());
    for (uint64_t id : mm.deviceIds())
        EXPECT_EQ(*fresh.lookup(id), *mm.lookup(id));
    fs::remove(path);
    fs::remove(compacted);
}

TEST(EnrollmentStore, EverySaveWritesTheSameMergedImage)
{
    const std::string path =
        writeTestStore("codic_test_merge_image.bin");
    const std::string compacted =
        tempPath("codic_test_merge_image_compacted.bin");
    EnrollmentStore mm(path);
    mm.put(3, {2, 65536}, cellsResponse({42, 43})); // Supersede.
    mm.put(1, {1, 65536}, cellsResponse({9}));      // New device.
    mm.put(1000, {1, 65536}, cellsResponse({}));    // Past the base.

    std::ostringstream saved;
    mm.saveBinary(saved);
    EXPECT_EQ(saved.str().size(), mm.binarySizeBytes());
    mm.compactTo(compacted);
    std::ifstream in(compacted, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(bytes.str(), saved.str());

    // A heap-loaded copy of the merged image re-saves identically.
    std::istringstream reload(saved.str());
    std::ostringstream resaved;
    EnrollmentStore::loadBinary(reload).saveBinary(resaved);
    EXPECT_EQ(resaved.str(), saved.str());
    fs::remove(path);
    fs::remove(compacted);
}

TEST(EnrollmentStore, IndexOutOfStepWithRecordsIsRejected)
{
    const std::string path =
        writeTestStore("codic_test_index_step.bin", 321, 4);
    std::string image;
    {
        std::ifstream in(path, std::ios::binary);
        std::stringstream bytes;
        bytes << in.rdbuf();
        image = bytes.str();
    }
    // Point index entry 1 at record 0: ids stay sorted and the
    // offset stays in range, but the entry names the wrong record.
    const size_t index = image.size() - 4 * 16;
    image.replace(index + 16 + 8, 8, image.substr(index + 8, 8));
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << image;
    }
    std::istringstream in(image);
    EXPECT_THROW(EnrollmentStore::loadBinary(in), FatalError);
    // The mapped path opens in O(1) and catches it on access.
    const EnrollmentStore mm(path);
    EXPECT_NE(mm.lookup(0), nullptr);
    EXPECT_THROW(mm.lookup(3), FatalError);
    fs::remove(path);
}

TEST(EnrollmentStore, MappedBaseRejectsMissingTruncatedAndCorruptFiles)
{
    EXPECT_THROW(EnrollmentStore(tempPath("codic_no_such_store.bin")),
                 FatalError);

    const std::string path =
        writeTestStore("codic_test_mmap_corrupt.bin");
    const auto full = fs::file_size(path);

    fs::resize_file(path, full - 4); // Truncated index footer.
    EXPECT_THROW(EnrollmentStore{path}, FatalError);

    fs::resize_file(path, 16); // Header alone.
    EXPECT_THROW(EnrollmentStore{path}, FatalError);

    // Bad magic.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.put('X');
    }
    EXPECT_THROW(EnrollmentStore{path}, FatalError);
    fs::remove(path);
}

TEST(EnrollmentStore, SyntheticStoreIsDeterministic)
{
    const std::string a = tempPath("codic_test_synth_a.bin");
    const std::string b = tempPath("codic_test_synth_b.bin");
    writeSyntheticStore(a, 9, 100, 65536, 12);
    writeSyntheticStore(b, 9, 100, 65536, 12);

    std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
    std::stringstream ba, bb;
    ba << fa.rdbuf();
    bb << fb.rdbuf();
    EXPECT_EQ(ba.str(), bb.str());

    const EnrollmentStore mm(a);
    EXPECT_EQ(mm.baseRecords(), 100u);
    EXPECT_EQ(mm.populationSeed(), 9u);
    for (uint64_t id : {0ull, 57ull, 99ull}) {
        ASSERT_NE(mm.lookup(id), nullptr);
        EXPECT_FALSE(mm.lookup(id)->cells.empty());
    }
    fs::remove(a);
    fs::remove(b);
}

// --- Admission controller. ---

AdmissionConfig
admissionConfig(double capacity_rps, double burst = 64.0)
{
    AdmissionConfig cfg;
    cfg.capacity_rps = capacity_rps;
    cfg.burst = burst;
    return cfg;
}

TEST(AdmissionController, BucketShedsBestEffortBeforeUrgent)
{
    // Negligible refill, 4-token burst, half reserved for urgent:
    // best-effort admits while tokens > 2, urgent drains to zero.
    AdmissionConfig cfg = admissionConfig(1.0, 4.0);
    cfg.urgent_reserve = 0.5;
    cfg.max_wait_urgent_ns = 1e12;      // Isolate the bucket.
    cfg.max_wait_best_effort_ns = 1e12;
    cfg.lane_queue_depth = 1 << 20;
    AdmissionController ctrl(cfg, 4, 1000.0);

    int best_effort_admitted = 0, urgent_admitted = 0;
    for (uint64_t i = 0; i < 4; ++i)
        best_effort_admitted +=
            ctrl.offer(AdmissionClass::BestEffort, i, 0.0, 10.0)
                .admitted;
    for (uint64_t i = 0; i < 4; ++i)
        urgent_admitted +=
            ctrl.offer(AdmissionClass::Urgent, 10 + i, 0.0, 10.0)
                .admitted;
    EXPECT_EQ(best_effort_admitted, 2);
    EXPECT_EQ(urgent_admitted, 2); // Drains the reserve to zero.

    const auto d = ctrl.offer(AdmissionClass::Urgent, 99, 0.0, 10.0);
    EXPECT_FALSE(d.admitted);
    EXPECT_TRUE(d.bucket_shed);
}

TEST(AdmissionController, DeadlineDropsProjectedLateArrivals)
{
    AdmissionConfig cfg = admissionConfig(1e12, 1e6);
    cfg.max_wait_urgent_ns = 1000.0;
    cfg.max_wait_best_effort_ns = 1000.0;
    cfg.lane_queue_depth = 1 << 20;
    AdmissionController ctrl(cfg, /*lanes=*/1, 1000.0);

    // Same-lane arrivals at t=0 with 600 ns service: waits project
    // to 0, 600, 1200 - the third breaches the 1000 ns deadline.
    const auto a = ctrl.offer(AdmissionClass::Urgent, 0, 0.0, 600.0);
    EXPECT_TRUE(a.admitted);
    EXPECT_EQ(a.wait_ns, 0.0);
    const auto b = ctrl.offer(AdmissionClass::Urgent, 0, 0.0, 600.0);
    EXPECT_TRUE(b.admitted);
    EXPECT_EQ(b.wait_ns, 600.0);
    const auto c = ctrl.offer(AdmissionClass::Urgent, 0, 0.0, 600.0);
    EXPECT_FALSE(c.admitted);
    EXPECT_TRUE(c.deadline_shed);
}

TEST(AdmissionController, FullLaneQueueSheds)
{
    AdmissionConfig cfg = admissionConfig(1e12, 1e6);
    cfg.max_wait_urgent_ns = 1e12;
    cfg.max_wait_best_effort_ns = 1e12;
    cfg.lane_queue_depth = 2;
    AdmissionController ctrl(cfg, /*lanes=*/1, 1000.0);

    EXPECT_TRUE(
        ctrl.offer(AdmissionClass::Urgent, 0, 0.0, 500.0).admitted);
    EXPECT_TRUE(
        ctrl.offer(AdmissionClass::Urgent, 0, 0.0, 500.0).admitted);
    const auto d = ctrl.offer(AdmissionClass::Urgent, 0, 0.0, 500.0);
    EXPECT_FALSE(d.admitted);
    EXPECT_TRUE(d.queue_shed);

    // Once the first two complete, the lane admits again.
    const auto later =
        ctrl.offer(AdmissionClass::Urgent, 0, 2000.0, 500.0);
    EXPECT_TRUE(later.admitted);
    EXPECT_EQ(later.wait_ns, 0.0);
}

TEST(AdmissionController, AutoDeadlineDerivesFromTheCostModel)
{
    AdmissionConfig cfg = admissionConfig(1e6);
    AdmissionController ctrl(cfg, 4, /*auto_deadline_ns=*/8000.0);
    EXPECT_EQ(ctrl.deadlineNs(AdmissionClass::Urgent), 8000.0);
    EXPECT_EQ(ctrl.deadlineNs(AdmissionClass::BestEffort), 4000.0);
}

TEST(Admission, RequestKindsMapToTheDocumentedClasses)
{
    EXPECT_EQ(admissionClassOf(RequestKind::Authenticate),
              AdmissionClass::Urgent);
    EXPECT_EQ(admissionClassOf(RequestKind::Reenroll),
              AdmissionClass::BestEffort);
    EXPECT_EQ(admissionClassOf(RequestKind::TrngDraw),
              AdmissionClass::BestEffort);
    EXPECT_EQ(admissionClassOf(RequestKind::SecureDealloc),
              AdmissionClass::BestEffort);
}

// --- AuthService under admission control. ---

void
expectReportsEqual(const LoadReport &a, const LoadReport &b)
{
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.shed_urgent, b.shed_urgent);
    EXPECT_EQ(a.shed_best_effort, b.shed_best_effort);
    EXPECT_EQ(a.shed_deadline, b.shed_deadline);
    EXPECT_EQ(a.shed_queue, b.shed_queue);
    EXPECT_EQ(a.shed_bucket, b.shed_bucket);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.unknown_device, b.unknown_device);
    EXPECT_EQ(a.planned_cache_hits, b.planned_cache_hits);
    EXPECT_EQ(a.latency_p50_ns, b.latency_p50_ns);
    EXPECT_EQ(a.latency_p99_ns, b.latency_p99_ns);
    EXPECT_EQ(a.admitted_urgent_p50_ns, b.admitted_urgent_p50_ns);
    EXPECT_EQ(a.admitted_urgent_p99_ns, b.admitted_urgent_p99_ns);
    EXPECT_EQ(a.total_service_ns, b.total_service_ns);
    EXPECT_EQ(a.total_energy_nj, b.total_energy_nj);
}

std::vector<FleetRequest>
overloadStream(uint64_t devices, double offered_rps)
{
    TrafficConfig tc;
    tc.traffic_seed = 29;
    tc.requests = 500;
    tc.zipf = 0.9;
    tc.weight_auth = 0.7;
    tc.weight_trng = 0.2;
    tc.weight_dealloc = 0.1;
    tc.offered_rps = offered_rps;
    return RequestGenerator(tc, devices).generate();
}

/** The modeled capacity of an AuthService over `fleet`. */
double
capacityOf(const DeviceFleet &fleet, const AuthConfig &ac)
{
    const FleetConfig &fc = fleet.config();
    return modeledCapacityRps(
        buildFleetCostModel(fc.dram, fc.sig_params.filter_challenges,
                            ac.energy),
        ac);
}

TEST(AuthServiceAdmission, OverloadShedsAndProtectsUrgent)
{
    DeviceFleet fleet(servingFleetConfig());
    EnrollmentStore store(fleet.config().population_seed);
    enrollFleet(fleet, store, 0);
    const double capacity = capacityOf(fleet, {});
    ASSERT_GT(capacity, 0.0);

    AuthConfig ac;
    ac.admission.capacity_rps = capacity;
    AuthService service(fleet, store, ac);
    const LoadReport r = service.execute(
        overloadStream(fleet.devices(), 3.0 * capacity));

    EXPECT_TRUE(r.admission_on);
    EXPECT_GT(r.shed, 0u);
    EXPECT_EQ(r.admitted + r.shed, r.requests);
    EXPECT_EQ(r.shed, r.shed_urgent + r.shed_best_effort);
    EXPECT_EQ(r.shed,
              r.shed_deadline + r.shed_queue + r.shed_bucket);

    // Urgent protection: the urgent shed fraction never exceeds the
    // best-effort shed fraction.
    const uint64_t urgent = r.by_kind[0];
    const uint64_t best_effort = r.requests - urgent;
    ASSERT_GT(urgent, 0u);
    ASSERT_GT(best_effort, 0u);
    const double urgent_frac = static_cast<double>(r.shed_urgent) /
                               static_cast<double>(urgent);
    const double best_frac =
        static_cast<double>(r.shed_best_effort) /
        static_cast<double>(best_effort);
    EXPECT_LE(urgent_frac, best_frac + 1e-9);

    // The admitted urgent tail stays within the class deadline's
    // reach: wait <= deadline, so p99 <= deadline + max service.
    EXPECT_GT(r.admitted_urgent_p99_ns, 0.0);
}

TEST(AuthServiceAdmission, DisabledAdmissionAdmitsEverything)
{
    DeviceFleet fleet(servingFleetConfig());
    EnrollmentStore store(fleet.config().population_seed);
    AuthService service(fleet, store, {});
    enrollFleet(fleet, store, 0);
    const LoadReport r =
        service.execute(overloadStream(fleet.devices(), 5e6));
    EXPECT_FALSE(r.admission_on);
    EXPECT_EQ(r.admitted, r.requests);
    EXPECT_EQ(r.shed, 0u);
    EXPECT_EQ(r.shed_rate, 0.0);
    // The urgent percentile mirrors the plain authenticate latency.
    EXPECT_GT(r.admitted_urgent_p99_ns, 0.0);
    EXPECT_LE(r.admitted_urgent_p50_ns, r.admitted_urgent_p99_ns);
}

TEST(AuthServiceAdmission, ReportIndependentOfShardsAndThreads)
{
    const auto runWith = [](int shards, int threads) {
        DeviceFleet fleet(servingFleetConfig(48, shards));
        EnrollmentStore store(fleet.config().population_seed);
        AuthConfig ac;
        ac.threads = threads;
        enrollFleet(fleet, store, threads);
        ac.admission.capacity_rps = capacityOf(fleet, ac);
        AuthService service(fleet, store, ac);
        return service.execute(overloadStream(
            fleet.devices(), 3.0 * ac.admission.capacity_rps));
    };
    const LoadReport reference = runWith(1, 1);
    EXPECT_TRUE(reference.admission_on);
    EXPECT_GT(reference.shed, 0u);
    expectReportsEqual(reference, runWith(5, 8));
    expectReportsEqual(reference, runWith(3, 2));
}

// --- RunOptions contract for the serving CLI surface. ---

TEST(RunOptions, RejectsOutOfContractServingOptions)
{
    const auto rejects = [](auto mutate) {
        RunOptions o;
        mutate(o);
        EXPECT_THROW(o.validate(), FatalError);
    };
    rejects([](RunOptions &o) { o.regions = -1; });
    rejects([](RunOptions &o) { o.shed = -0.5; });
    rejects([](RunOptions &o) { o.shed = std::nan(""); });
    rejects([](RunOptions &o) {
        o.shed = std::numeric_limits<double>::infinity();
    });
    rejects([](RunOptions &o) { o.store_mmap = true; });
}

TEST(RunOptions, AcceptsTheServingDefaultsAndOverrides)
{
    RunOptions o;
    o.validate(); // Defaults are always in contract.
    o.regions = 4;
    o.shed = 0.0;
    o.store_mmap = true;
    o.store_path = "fleet.bin";
    o.validate();
    EXPECT_EQ(o.regionsOr(3), 4);
    EXPECT_EQ(o.shedOr(125.0), 0.0);
    o.shed = -1.0;
    EXPECT_EQ(o.shedOr(125.0), 125.0);
    o.regions = 0;
    EXPECT_EQ(o.regionsOr(3), 3);
}

} // namespace
} // namespace codic
