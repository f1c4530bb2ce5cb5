/**
 * @file
 * Golden-signature database for fleet authentication.
 *
 * The store maps device ids to enrolled PUF signatures. Records are
 * held compactly (varint delta-encoded cell positions) and decoded
 * on demand through a bounded LRU cache, so a million-device store
 * costs a few bytes per signature cell and a lookup of a hot device
 * never re-decodes.
 *
 * One store, one format. An EnrollmentStore is a read-only *base*
 * image in the binary format below plus an in-memory *overlay* of
 * writes (enrollments and re-enrollments) that supersedes base
 * records. The base is one of:
 *  - a mapped file (EnrollmentStore(path)): O(1) header and footer
 *    checks on open, per-record bounds checks on access, so a
 *    10^7-device store serves with flat memory - only the touched
 *    index and record pages become resident;
 *  - an owned byte buffer (loadBinary/loadFile): the same image,
 *    validated in full once on load;
 *  - empty (EnrollmentStore(seed)): every record lives in the
 *    overlay, as during an enrollment campaign.
 * Lookups binary-search the base's sorted on-disk index and decode
 * the record straight from its bytes. Saving (saveBinary, saveFile,
 * compactTo) is one sorted merge of base and overlay, so a store
 * serializes byte-identically at any shard/thread count.
 *
 * Binary format v2 (little-endian):
 *   char[8]  magic "CODICENR"
 *   u32      format version (2)
 *   u32      reserved flags (0)
 *   u64      population seed
 *   u64      record count
 *   u64      index offset
 *   records, sorted by device id:
 *     u64 device_id, u64 segment_id, u32 segment_bits,
 *     u32 cell_count, u32 blob_len, u8[blob_len] blob
 *   index, at the index offset, sorted by device id, ending the file:
 *     record count x (u64 device_id, u64 record offset)
 * Readers reject a bad magic, another version, or a truncated or
 * corrupt image with a FatalError instead of misparsing.
 */

#ifndef CODIC_FLEET_ENROLLMENT_STORE_H
#define CODIC_FLEET_ENROLLMENT_STORE_H

#include <cstdint>
#include <fstream>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mapped_file.h"
#include "puf/puf.h"

namespace codic {

/**
 * Recency index of a bounded LRU set (list + map bookkeeping). One
 * implementation backs both the store's decode cache and
 * AuthService's deterministic cache plan, so the planned store
 * latencies can never drift from the eviction policy actually
 * served. Not thread-safe; callers synchronize.
 */
class LruIndex
{
  public:
    explicit LruIndex(size_t capacity)
        : capacity_(std::max<size_t>(1, capacity))
    {
    }

    /**
     * Record an access: true when the id was already indexed (moved
     * to the front); otherwise inserts it at the front. Callers
     * drain evictIfOver() after inserting.
     */
    bool
    touch(uint64_t id)
    {
        auto it = pos_.find(id);
        if (it != pos_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return true;
        }
        lru_.push_front(id);
        pos_[id] = lru_.begin();
        return false;
    }

    /** Evict and return the least-recent id while over capacity. */
    std::optional<uint64_t>
    evictIfOver()
    {
        if (pos_.size() <= capacity_)
            return std::nullopt;
        const uint64_t victim = lru_.back();
        pos_.erase(victim);
        lru_.pop_back();
        return victim;
    }

    /** Is the id indexed? Pure peek: recency is not updated. */
    bool
    contains(uint64_t id) const
    {
        return pos_.count(id) != 0;
    }

    /** Drop an id (invalidation); true when it was present. */
    bool
    erase(uint64_t id)
    {
        auto it = pos_.find(id);
        if (it == pos_.end())
            return false;
        lru_.erase(it->second);
        pos_.erase(it);
        return true;
    }

  private:
    size_t capacity_;
    std::list<uint64_t> lru_;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> pos_;
};

/**
 * What AuthService needs from a golden-signature database.
 * EnrollmentStore implements it; decorators (a tracing wrapper, for
 * one) implement it around a store. Every method is thread-safe and
 * deterministic: outcomes depend only on store content and call
 * order per device, never on scheduling.
 */
class EnrollmentBackend
{
  public:
    virtual ~EnrollmentBackend() = default;

    /** Population the signatures were enrolled from. */
    virtual uint64_t populationSeed() const = 0;

    /** Enrolled devices. */
    virtual size_t size() const = 0;

    /** Insert or replace a device's golden signature. */
    virtual void put(uint64_t device_id, const Challenge &challenge,
                     const Response &signature) = 0;

    /** Is the device enrolled? */
    virtual bool contains(uint64_t device_id) const = 0;

    /**
     * Decoded golden signature through the LRU decode cache, or
     * nullptr when the device is unknown. The shared_ptr stays
     * valid after eviction.
     */
    virtual std::shared_ptr<const Response>
    lookup(uint64_t device_id) const = 0;

    /** Decode-cache capacity (what AuthService's LRU plan models). */
    virtual size_t cacheCapacity() const = 0;

    /** Decode-cache telemetry (scheduling-dependent; timings only). */
    virtual uint64_t cacheHits() const = 0;
    virtual uint64_t cacheMisses() const = 0;
};

/**
 * Golden-signature database: a base image plus a write overlay,
 * behind an LRU decode cache. Thread-safe; the base image is never
 * modified.
 */
class EnrollmentStore : public EnrollmentBackend
{
  public:
    /** The on-disk format version this build reads and writes. */
    static constexpr uint32_t kFormatVersion = 2;

    /**
     * An empty store (all records land in the overlay).
     * @param cache_capacity Decoded signatures kept hot (>= 1).
     */
    explicit EnrollmentStore(uint64_t population_seed = 0,
                             size_t cache_capacity = 4096);

    /**
     * Serve a store file through a read-only mapping. Opening checks
     * only the header and the index footer (O(1) in the record
     * count); each record is bounds-checked when first read.
     * @throws FatalError when the file is missing, another format
     *         version, truncated, or corrupt.
     */
    explicit EnrollmentStore(const std::string &path,
                             size_t cache_capacity = 4096);

    /**
     * Moves transfer the base and the overlay and leave the decode
     * cache cold (the mutex is not movable). Never move a store that
     * another thread is using.
     */
    EnrollmentStore(EnrollmentStore &&other) noexcept;
    EnrollmentStore &operator=(EnrollmentStore &&other) noexcept;
    EnrollmentStore(const EnrollmentStore &) = delete;
    EnrollmentStore &operator=(const EnrollmentStore &) = delete;

    // --- EnrollmentBackend ---

    uint64_t populationSeed() const override
    {
        return population_seed_;
    }

    /** Base records plus overlay entries for new devices. */
    size_t size() const override;

    /**
     * Insert or replace a device's golden signature (in the
     * overlay). The final store content depends only on the
     * per-device last write, never on cross-device interleaving.
     */
    void put(uint64_t device_id, const Challenge &challenge,
             const Response &signature) override;

    /** Overlay hash probe, then O(log n) base index search. */
    bool contains(uint64_t device_id) const override;

    std::shared_ptr<const Response>
    lookup(uint64_t device_id) const override;

    size_t cacheCapacity() const override { return cache_capacity_; }
    uint64_t cacheHits() const override { return hits_; }
    uint64_t cacheMisses() const override { return misses_; }

    // --- Inspection ---

    /**
     * Enrolled device ids, ascending. O(n): materializes the full id
     * list, so the serving path never calls it on a large store.
     */
    std::vector<uint64_t> deviceIds() const;

    /** Records in the base image. */
    uint64_t baseRecords() const { return count_; }

    /** Highest base id, O(1) off the sorted index (records > 0). */
    uint64_t baseLastId() const;

    /** Base image size in bytes (the mapped file's size). */
    uint64_t baseBytes() const { return size_; }

    /** Overlay entries (new devices + re-enrollments). */
    size_t overlayRecords() const;

    // --- Serialization ---

    /** Write the merged store in the binary format. */
    void saveBinary(std::ostream &out) const;

    /** saveBinary's output size, without writing. */
    size_t binarySizeBytes() const;

    /** Write the merged store to a file (compactTo, stats dropped). */
    void saveFile(const std::string &path) const;

    struct CompactStats
    {
        uint64_t base_records = 0;    //!< Records in the old base.
        uint64_t overlay_records = 0; //!< Overlay entries merged in.
        uint64_t superseded = 0;      //!< Base records dropped.
        uint64_t records_written = 0; //!< Records in the new file.
    };

    /**
     * Stream base + overlay into a fresh file at `path` (sorted
     * merge; the overlay supersedes the base). Flat memory at any
     * base size. This store is unchanged - open the new file to
     * serve from it.
     */
    CompactStats compactTo(const std::string &path) const;

    /**
     * Read a whole image into memory and validate every record: the
     * index sorted and pointing at each record in turn, every record
     * in bounds, the records ending exactly at the index, no
     * trailing bytes. The decode-cache capacity is a runtime tuning
     * knob, not part of the stored data. @throws FatalError on any
     * violation, or when the file cannot be opened.
     */
    static EnrollmentStore loadBinary(std::istream &in,
                                      size_t cache_capacity = 4096);
    static EnrollmentStore loadFile(const std::string &path,
                                    size_t cache_capacity = 4096);

  private:
    /** Parsed view of one record's bytes (base image or overlay). */
    struct Record;

    /** Adopt [data, data + size) as the base: O(1) header checks. */
    void openBase(const uint8_t *data, uint64_t size);

    /** The full per-record validation pass of loadBinary. */
    void validateBase() const;

    uint64_t indexId(uint64_t slot) const;

    /** Index slot of a device id, or count_ when absent. */
    uint64_t findSlot(uint64_t device_id) const;

    /** Bounds-checked view of the base record at an index slot. */
    Record baseRecord(uint64_t slot) const;

    /** Overlay record, else base record, of a device. Lock held. */
    std::optional<Record> findLocked(uint64_t device_id) const;

    /** Visit the merged records in ascending id order. Lock held. */
    void forEachLocked(
        const std::function<void(const Record &)> &visit) const;

    std::string path_; //!< Base file, or "" for an in-memory base.
    MappedFile file_;
    std::vector<uint8_t> owned_;
    const uint8_t *data_ = nullptr; //!< Base image (file_ or owned_).
    uint64_t size_ = 0;
    uint64_t population_seed_ = 0;
    uint64_t count_ = 0;        //!< Base records.
    uint64_t index_offset_ = 0; //!< Index footer position.
    size_t cache_capacity_ = 1;

    mutable std::mutex mutex_;
    /** Written records, each in the on-disk record encoding. */
    std::unordered_map<uint64_t, std::vector<uint8_t>> overlay_;
    uint64_t overlay_new_ = 0; //!< Overlay ids absent from the base.
    mutable LruIndex index_;
    mutable std::unordered_map<uint64_t,
                               std::shared_ptr<const Response>>
        cache_;
    mutable uint64_t hits_ = 0;
    mutable uint64_t misses_ = 0;
};

/**
 * Streaming writer of the binary format. Append records in strictly
 * ascending device-id order, then finish(); the index footer is
 * staged in a `<path>.idx` side file and spliced on, so writer memory
 * stays flat at any record count. A writer destroyed before finish()
 * (or whose constructor fails) removes its partial files.
 * @throws FatalError on unsorted appends or I/O failure.
 */
class EnrollmentStoreWriter
{
  public:
    EnrollmentStoreWriter(const std::string &path,
                          uint64_t population_seed);
    ~EnrollmentStoreWriter();

    EnrollmentStoreWriter(const EnrollmentStoreWriter &) = delete;
    EnrollmentStoreWriter &
    operator=(const EnrollmentStoreWriter &) = delete;

    /**
     * Append one record already in the on-disk encoding (28-byte
     * prefix + blob; ids strictly ascending).
     */
    void append(const uint8_t *record, uint64_t bytes);

    /** Encode and append one signature (ids strictly ascending). */
    void append(uint64_t device_id, const Challenge &challenge,
                const Response &signature);

    /** Records appended so far. */
    uint64_t records() const { return count_; }

    /** Splice the index, patch the header, close. Call once. */
    void finish();

  private:
    std::string path_;
    std::string index_path_;
    std::ofstream out_;
    std::ofstream index_out_;
    uint64_t count_ = 0;
    uint64_t offset_ = 0;   //!< Next record's file offset.
    uint64_t last_id_ = 0;  //!< Highest id appended (count_ > 0).
    bool finished_ = false;
};

/**
 * Stream a deterministic stand-in population of `devices` synthetic
 * enrollment records to `path` (sorted, flat memory). Scale studies
 * use it to exercise the 10^7-device serving path: building that
 * store from real PUF enrollments takes hours of simulated silicon,
 * and the store/serving data path under test never depends on
 * signature content. Each record is a pure function of
 * (population_seed, device_id).
 */
uint64_t writeSyntheticStore(const std::string &path,
                             uint64_t population_seed,
                             uint64_t devices, int segment_bits,
                             int cells_per_record);

} // namespace codic

#endif // CODIC_FLEET_ENROLLMENT_STORE_H
