#include "fleet/enrollment_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace codic {

namespace {

// Binary layout (see the header): 40-byte header, 28-byte fixed
// record prefix, 16-byte index entries.
constexpr char kMagic[8] = {'C', 'O', 'D', 'I', 'C', 'E', 'N', 'R'};
constexpr uint64_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8;
constexpr uint64_t kRecordFixedBytes = 8 + 8 + 4 + 4 + 4;
constexpr uint64_t kIndexEntryBytes = 16;

/** fatal() naming the store file, when there is one. */
template <typename... Args>
[[noreturn]] void
storeFatal(const std::string &path, const Args &...args)
{
    if (path.empty())
        fatal("enrollment store: ", args...);
    fatal("enrollment store '", path, "': ", args...);
}

template <typename T>
void
storeLe(uint8_t *p, T v)
{
    for (size_t i = 0; i < sizeof(T); ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

template <typename T>
void
putLe(std::ostream &out, T v)
{
    uint8_t bytes[sizeof(T)];
    storeLe(bytes, v);
    out.write(reinterpret_cast<const char *>(bytes), sizeof(T));
}

template <typename T>
T
loadLe(const uint8_t *p)
{
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(p[i]) << (8 * i);
    return v;
}

void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

uint64_t
getVarint(const uint8_t *blob, uint32_t blob_len, uint32_t &pos)
{
    uint64_t v = 0;
    int shift = 0;
    while (true) {
        if (pos >= blob_len)
            fatal("enrollment store: corrupt varint in record blob");
        const uint8_t byte = blob[pos++];
        // The 10th byte holds only bit 63: anything wider (or an
        // 11th byte) would silently drop bits, so reject it.
        if (shift > 63 || (shift == 63 && (byte & 0x7f) > 1))
            fatal("enrollment store: overlong varint in record "
                  "blob");
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
        shift += 7;
    }
}

/** One signature in the on-disk record encoding. */
std::vector<uint8_t>
encodeRecord(uint64_t device_id, const Challenge &challenge,
             const Response &signature)
{
    std::vector<uint8_t> rec(kRecordFixedBytes);
    rec.reserve(kRecordFixedBytes + signature.cells.size() * 2);
    storeLe<uint64_t>(rec.data(), device_id);
    storeLe<uint64_t>(rec.data() + 8, challenge.segment_id);
    storeLe<uint32_t>(rec.data() + 16,
                      static_cast<uint32_t>(challenge.segment_bits));
    storeLe<uint32_t>(rec.data() + 20,
                      static_cast<uint32_t>(signature.cells.size()));
    uint32_t prev = 0;
    for (uint32_t c : signature.cells) {
        // Responses are sorted and deduplicated, so deltas fit in
        // one or two varint bytes for typical signature densities.
        putVarint(rec, c - prev);
        prev = c;
    }
    storeLe<uint32_t>(rec.data() + 24, static_cast<uint32_t>(
                                           rec.size() - kRecordFixedBytes));
    return rec;
}

void
writeHeader(std::ostream &out, uint64_t population_seed,
            uint64_t count, uint64_t index_offset)
{
    out.write(kMagic, sizeof(kMagic));
    putLe<uint32_t>(out, EnrollmentStore::kFormatVersion);
    putLe<uint32_t>(out, 0);
    putLe<uint64_t>(out, population_seed);
    putLe<uint64_t>(out, count);
    putLe<uint64_t>(out, index_offset);
}

void
writeBytes(std::ostream &out, const uint8_t *bytes, uint64_t size)
{
    out.write(reinterpret_cast<const char *>(bytes),
              static_cast<std::streamsize>(size));
}

} // namespace

/**
 * One record's fields, read from its bytes. parse() is the only
 * record parser: base records in the image and overlay records
 * (kept in the same encoding) both go through it.
 */
struct EnrollmentStore::Record
{
    const uint8_t *bytes; //!< Record start; the blob follows the prefix.
    uint64_t device_id;
    uint32_t cell_count;
    uint32_t blob_len;

    uint64_t size() const { return kRecordFixedBytes + blob_len; }

    /** The record at p, or nullopt when it overruns `avail` bytes. */
    static std::optional<Record>
    parse(const uint8_t *p, uint64_t avail)
    {
        if (avail < kRecordFixedBytes)
            return std::nullopt;
        const Record r{p, loadLe<uint64_t>(p), loadLe<uint32_t>(p + 20),
                       loadLe<uint32_t>(p + 24)};
        // Every cell costs at least one blob byte.
        if (r.cell_count > r.blob_len ||
            r.blob_len > avail - kRecordFixedBytes)
            return std::nullopt;
        return r;
    }

    Response
    decode() const
    {
        const uint8_t *blob = bytes + kRecordFixedBytes;
        Response out;
        out.cells.reserve(cell_count);
        uint32_t pos = 0;
        uint32_t value = 0;
        for (uint32_t i = 0; i < cell_count; ++i) {
            value += static_cast<uint32_t>(getVarint(blob, blob_len, pos));
            out.cells.push_back(value);
        }
        if (pos != blob_len)
            fatal("enrollment store: trailing bytes in record blob for "
                  "device ", device_id);
        return out;
    }
};

// --- Construction ------------------------------------------------------------

EnrollmentStore::EnrollmentStore(uint64_t population_seed,
                                 size_t cache_capacity)
    : population_seed_(population_seed),
      cache_capacity_(std::max<size_t>(1, cache_capacity)),
      index_(cache_capacity_)
{
}

EnrollmentStore::EnrollmentStore(const std::string &path,
                                 size_t cache_capacity)
    : path_(path), file_(path, MappedFile::Access::Random),
      cache_capacity_(std::max<size_t>(1, cache_capacity)),
      index_(cache_capacity_)
{
    openBase(file_.data(), file_.size());
}

EnrollmentStore::EnrollmentStore(EnrollmentStore &&other) noexcept
    : index_(other.cache_capacity_)
{
    *this = std::move(other);
}

EnrollmentStore &
EnrollmentStore::operator=(EnrollmentStore &&other) noexcept
{
    // A moved std::vector keeps its buffer and a moved MappedFile its
    // mapping, so data_ stays valid in the new owner.
    path_ = std::move(other.path_);
    file_ = std::move(other.file_);
    owned_ = std::move(other.owned_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    population_seed_ = other.population_seed_;
    count_ = std::exchange(other.count_, 0);
    index_offset_ = std::exchange(other.index_offset_, 0);
    cache_capacity_ = other.cache_capacity_;
    overlay_ = std::move(other.overlay_);
    overlay_new_ = std::exchange(other.overlay_new_, 0);
    index_ = LruIndex(cache_capacity_);
    cache_.clear();
    hits_ = 0;
    misses_ = 0;
    return *this;
}

EnrollmentStore
EnrollmentStore::loadBinary(std::istream &in, size_t cache_capacity)
{
    EnrollmentStore store(0, cache_capacity);
    store.owned_.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    store.openBase(store.owned_.data(), store.owned_.size());
    store.validateBase();
    return store;
}

EnrollmentStore
EnrollmentStore::loadFile(const std::string &path, size_t cache_capacity)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        storeFatal(path, "cannot open for reading");
    return loadBinary(in, cache_capacity);
}

void
EnrollmentStore::openBase(const uint8_t *data, uint64_t size)
{
    if (size < kHeaderBytes)
        storeFatal(path_, "truncated (", size,
                   " bytes, smaller than the ", kHeaderBytes,
                   "-byte header)");
    if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
        storeFatal(path_, "bad magic (not a CODIC enrollment store)");
    const uint32_t version = loadLe<uint32_t>(data + 8);
    if (version != kFormatVersion)
        storeFatal(path_, "format version mismatch (file v", version,
                   ", this build reads v", kFormatVersion, ")");
    data_ = data;
    size_ = size;
    population_seed_ = loadLe<uint64_t>(data + 16);
    count_ = loadLe<uint64_t>(data + 24);
    index_offset_ = loadLe<uint64_t>(data + 32);
    // The index must end the file exactly: a short file fails here
    // with the byte counts, and so do trailing bytes.
    if (index_offset_ < kHeaderBytes || index_offset_ > size_ ||
        count_ > (size_ - index_offset_) / kIndexEntryBytes ||
        index_offset_ + count_ * kIndexEntryBytes != size_)
        storeFatal(path_, "truncated or corrupt index (", count_,
                   " records, index at ", index_offset_, ", image is ",
                   size_, " bytes)");
    if (count_ > (index_offset_ - kHeaderBytes) / kRecordFixedBytes)
        storeFatal(path_, "declares ", count_, " records but has only ",
                   index_offset_ - kHeaderBytes, " record bytes");
}

void
EnrollmentStore::validateBase() const
{
    uint64_t offset = kHeaderBytes;
    for (uint64_t slot = 0; slot < count_; ++slot) {
        if (slot > 0 && indexId(slot) <= indexId(slot - 1))
            storeFatal(path_, "index entry ", slot,
                       " is not sorted by device id");
        const uint64_t at = loadLe<uint64_t>(
            data_ + index_offset_ + slot * kIndexEntryBytes + 8);
        if (at != offset)
            storeFatal(path_, "index entry ", slot,
                       " points at offset ", at, ", but record ", slot,
                       " starts at ", offset);
        offset += baseRecord(slot).size();
    }
    if (offset != index_offset_)
        storeFatal(path_, "records end at ", offset,
                   ", but the index starts at ", index_offset_);
}

// --- Base image access -------------------------------------------------------

uint64_t
EnrollmentStore::indexId(uint64_t slot) const
{
    return loadLe<uint64_t>(data_ + index_offset_ +
                            slot * kIndexEntryBytes);
}

uint64_t
EnrollmentStore::baseLastId() const
{
    CODIC_ASSERT(count_ > 0, "an empty base image has no last id");
    return indexId(count_ - 1);
}

uint64_t
EnrollmentStore::findSlot(uint64_t device_id) const
{
    uint64_t lo = 0;
    uint64_t hi = count_;
    while (lo < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (indexId(mid) < device_id)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < count_ && indexId(lo) == device_id ? lo : count_;
}

EnrollmentStore::Record
EnrollmentStore::baseRecord(uint64_t slot) const
{
    const uint64_t offset = loadLe<uint64_t>(
        data_ + index_offset_ + slot * kIndexEntryBytes + 8);
    std::optional<Record> r;
    if (offset >= kHeaderBytes && offset <= index_offset_)
        r = Record::parse(data_ + offset, index_offset_ - offset);
    if (!r || r->device_id != indexId(slot))
        storeFatal(path_, "index entry ", slot,
                   " points at a corrupt or out-of-range record (offset ",
                   offset, ")");
    return *r;
}

std::optional<EnrollmentStore::Record>
EnrollmentStore::findLocked(uint64_t device_id) const
{
    auto ov = overlay_.find(device_id);
    if (ov != overlay_.end())
        return Record::parse(ov->second.data(), ov->second.size());
    const uint64_t slot = findSlot(device_id);
    if (slot == count_)
        return std::nullopt;
    return baseRecord(slot);
}

void
EnrollmentStore::forEachLocked(
    const std::function<void(const Record &)> &visit) const
{
    std::vector<Record> overlay;
    overlay.reserve(overlay_.size());
    for (const auto &[id, bytes] : overlay_)
        overlay.push_back(*Record::parse(bytes.data(), bytes.size()));
    std::sort(overlay.begin(), overlay.end(),
              [](const Record &a, const Record &b) {
                  return a.device_id < b.device_id;
              });
    // Sorted two-pointer merge; an overlay record supersedes the
    // base record of the same device.
    size_t ov = 0;
    for (uint64_t slot = 0; slot < count_; ++slot) {
        const uint64_t base_id = indexId(slot);
        for (; ov < overlay.size() && overlay[ov].device_id < base_id;
             ++ov)
            visit(overlay[ov]);
        if (ov < overlay.size() && overlay[ov].device_id == base_id)
            visit(overlay[ov++]);
        else
            visit(baseRecord(slot));
    }
    for (; ov < overlay.size(); ++ov)
        visit(overlay[ov]);
}

// --- Serving -----------------------------------------------------------------

size_t
EnrollmentStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<size_t>(count_ + overlay_new_);
}

size_t
EnrollmentStore::overlayRecords() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return overlay_.size();
}

void
EnrollmentStore::put(uint64_t device_id, const Challenge &challenge,
                     const Response &signature)
{
    std::vector<uint8_t> rec =
        encodeRecord(device_id, challenge, signature);
    std::lock_guard<std::mutex> lock(mutex_);
    if (overlay_.count(device_id) == 0 &&
        findSlot(device_id) == count_)
        ++overlay_new_;
    overlay_[device_id] = std::move(rec);
    // A re-enrollment invalidates any cached decode of the old
    // signature.
    if (index_.erase(device_id))
        cache_.erase(device_id);
}

bool
EnrollmentStore::contains(uint64_t device_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return overlay_.count(device_id) != 0 ||
           findSlot(device_id) != count_;
}

std::shared_ptr<const Response>
EnrollmentStore::lookup(uint64_t device_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto hit = cache_.find(device_id);
    if (hit != cache_.end()) {
        ++hits_;
        index_.touch(device_id);
        return hit->second;
    }
    const std::optional<Record> rec = findLocked(device_id);
    if (!rec)
        return nullptr;
    ++misses_;
    auto decoded = std::make_shared<const Response>(rec->decode());
    index_.touch(device_id);
    cache_[device_id] = decoded;
    while (const auto victim = index_.evictIfOver())
        cache_.erase(*victim);
    return decoded;
}

std::vector<uint64_t>
EnrollmentStore::deviceIds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<uint64_t> ids;
    ids.reserve(static_cast<size_t>(count_ + overlay_new_));
    for (uint64_t slot = 0; slot < count_; ++slot)
        ids.push_back(indexId(slot));
    for (const auto &[id, bytes] : overlay_)
        if (findSlot(id) == count_)
            ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

// --- Serialization -----------------------------------------------------------

size_t
EnrollmentStore::binarySizeBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t bytes = kHeaderBytes;
    forEachLocked([&](const Record &r) {
        bytes += r.size() + kIndexEntryBytes;
    });
    return static_cast<size_t>(bytes);
}

void
EnrollmentStore::saveBinary(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t count = 0;
    uint64_t index_offset = kHeaderBytes;
    forEachLocked([&](const Record &r) {
        ++count;
        index_offset += r.size();
    });
    writeHeader(out, population_seed_, count, index_offset);
    forEachLocked(
        [&](const Record &r) { writeBytes(out, r.bytes, r.size()); });
    uint64_t offset = kHeaderBytes;
    forEachLocked([&](const Record &r) {
        putLe<uint64_t>(out, r.device_id);
        putLe<uint64_t>(out, offset);
        offset += r.size();
    });
    if (!out)
        fatal("enrollment store: write failed");
}

void
EnrollmentStore::saveFile(const std::string &path) const
{
    compactTo(path);
}

EnrollmentStore::CompactStats
EnrollmentStore::compactTo(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CompactStats stats;
    stats.base_records = count_;
    stats.overlay_records = overlay_.size();
    stats.superseded = overlay_.size() - overlay_new_;
    EnrollmentStoreWriter writer(path, population_seed_);
    forEachLocked(
        [&](const Record &r) { writer.append(r.bytes, r.size()); });
    stats.records_written = writer.records();
    writer.finish();
    return stats;
}

// --- EnrollmentStoreWriter ---------------------------------------------------

EnrollmentStoreWriter::EnrollmentStoreWriter(const std::string &path,
                                             uint64_t population_seed)
    : path_(path), index_path_(path + ".idx"),
      out_(path, std::ios::binary),
      index_out_(index_path_, std::ios::binary)
{
    if (!out_)
        fatal("enrollment store writer: cannot open '", path_,
              "' for writing");
    if (!index_out_) {
        // The destructor never runs for a throwing constructor:
        // remove the already-created store file here.
        out_.close();
        std::remove(path_.c_str());
        fatal("enrollment store writer: cannot open '", index_path_,
              "' for writing");
    }
    // Record count and index offset are patched by finish().
    writeHeader(out_, population_seed, 0, 0);
    offset_ = kHeaderBytes;
}

EnrollmentStoreWriter::~EnrollmentStoreWriter()
{
    if (finished_)
        return;
    // An unfinished file has no index and a zero record count: it
    // would never load. Remove the partial outputs.
    out_.close();
    index_out_.close();
    std::remove(path_.c_str());
    std::remove(index_path_.c_str());
}

void
EnrollmentStoreWriter::append(const uint8_t *record, uint64_t bytes)
{
    CODIC_ASSERT(!finished_ && bytes >= kRecordFixedBytes);
    const uint64_t device_id = loadLe<uint64_t>(record);
    if (count_ > 0 && device_id <= last_id_)
        fatal("enrollment store writer: device ", device_id,
              " appended after ", last_id_,
              " (records must be sorted by device id)");
    writeBytes(out_, record, bytes);
    putLe<uint64_t>(index_out_, device_id);
    putLe<uint64_t>(index_out_, offset_);
    offset_ += bytes;
    last_id_ = device_id;
    ++count_;
}

void
EnrollmentStoreWriter::append(uint64_t device_id,
                              const Challenge &challenge,
                              const Response &signature)
{
    const std::vector<uint8_t> rec =
        encodeRecord(device_id, challenge, signature);
    append(rec.data(), rec.size());
}

void
EnrollmentStoreWriter::finish()
{
    CODIC_ASSERT(!finished_);
    index_out_.flush();
    index_out_.close();
    if (!index_out_)
        fatal("enrollment store writer: write to '", index_path_,
              "' failed");

    // Splice the staged index onto the record stream in bounded
    // chunks, then patch the header fields left blank.
    {
        std::ifstream index_in(index_path_, std::ios::binary);
        if (!index_in)
            fatal("enrollment store writer: cannot reopen '",
                  index_path_, "'");
        std::vector<char> chunk(1u << 20);
        while (index_in) {
            index_in.read(chunk.data(),
                          static_cast<std::streamsize>(chunk.size()));
            out_.write(chunk.data(), index_in.gcount());
        }
    }
    out_.seekp(24);
    putLe<uint64_t>(out_, count_);
    putLe<uint64_t>(out_, offset_);
    out_.flush();
    if (!out_)
        fatal("enrollment store writer: write to '", path_,
              "' failed");
    out_.close();
    std::remove(index_path_.c_str());
    finished_ = true;
}

// --- Synthetic population ----------------------------------------------------

uint64_t
writeSyntheticStore(const std::string &path, uint64_t population_seed,
                    uint64_t devices, int segment_bits,
                    int cells_per_record)
{
    CODIC_ASSERT(devices > 0);
    CODIC_ASSERT(segment_bits > 0);
    CODIC_ASSERT(cells_per_record > 0);
    EnrollmentStoreWriter writer(path, population_seed);
    std::vector<uint32_t> cells;
    for (uint64_t id = 0; id < devices; ++id) {
        // A fresh root per device keeps every record a pure function
        // of (population_seed, device_id), like DeviceFleet's own
        // seed derivation.
        Rng root(population_seed ^ 0x53594E54ull); // "SYNT"
        Rng rng = root.fork(id);
        cells.clear();
        for (int c = 0; c < cells_per_record; ++c)
            cells.push_back(static_cast<uint32_t>(
                rng.below(static_cast<uint64_t>(segment_bits))));
        std::sort(cells.begin(), cells.end());
        cells.erase(std::unique(cells.begin(), cells.end()),
                    cells.end());
        Response sig;
        sig.cells = cells;
        const Challenge ch{rng.next64() % (1u << 20),
                           segment_bits};
        writer.append(id, ch, sig);
    }
    const uint64_t written = writer.records();
    writer.finish();
    return written;
}

} // namespace codic
