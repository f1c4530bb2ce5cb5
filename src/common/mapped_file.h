/**
 * @file
 * Read-only memory mapping of a whole file (RAII).
 *
 * The trace reader and the enrollment store both serve their files
 * straight from a shared read-only mapping. MappedFile owns the
 * descriptor and the mapping together, so every exit path - including
 * a reader's constructor rejecting the file it just mapped - closes
 * both: a member's destructor runs even when the enclosing
 * constructor throws.
 */

#ifndef CODIC_COMMON_MAPPED_FILE_H
#define CODIC_COMMON_MAPPED_FILE_H

#include <cstdint>
#include <string>

namespace codic {

class MappedFile
{
  public:
    /** Readahead hint for the pager, by expected access pattern. */
    enum class Access
    {
        Random,     //!< Point reads (index search, record fetches).
        Sequential, //!< Front-to-back streaming.
    };

    /** An empty mapping (no file, size 0). */
    MappedFile() = default;

    /**
     * Map `path` read-only. An empty file maps to data() == nullptr,
     * size() == 0. @throws FatalError when the file cannot be
     * opened, stat'ed or mapped, or mmap is unavailable.
     */
    MappedFile(const std::string &path, Access access);
    ~MappedFile();

    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const uint8_t *data() const { return data_; }
    uint64_t size() const { return size_; }

    /**
     * Drop the resident pages of [offset, offset + bytes) (page
     * aligned by the caller). They re-fault from the file on the
     * next touch, so this only trims resident memory.
     */
    void release(uint64_t offset, uint64_t bytes) const;

  private:
    void reset();

    const uint8_t *data_ = nullptr;
    uint64_t size_ = 0;
    int fd_ = -1;
};

} // namespace codic

#endif // CODIC_COMMON_MAPPED_FILE_H
