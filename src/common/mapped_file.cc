#include "common/mapped_file.h"

#include <utility>

#include "common/logging.h"

#if defined(__unix__) || defined(__APPLE__)
#define CODIC_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace codic {

MappedFile::MappedFile(const std::string &path, Access access)
{
#ifdef CODIC_HAVE_MMAP
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0)
        fatal("cannot open '", path, "' for reading");
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
        reset();
        fatal("cannot stat '", path, "'");
    }
    const uint64_t size = static_cast<uint64_t>(st.st_size);
    if (size > 0) {
        void *map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd_, 0);
        if (map == MAP_FAILED) {
            reset();
            fatal("mmap of '", path, "' failed");
        }
        data_ = static_cast<const uint8_t *>(map);
        size_ = size;
        ::madvise(map, size_,
                  access == Access::Random ? MADV_RANDOM
                                           : MADV_SEQUENTIAL);
    }
#else
    (void)access;
    fatal("cannot map '", path,
          "': mmap is not available on this platform");
#endif
}

MappedFile::~MappedFile()
{
    reset();
}

MappedFile::MappedFile(MappedFile &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      fd_(std::exchange(other.fd_, -1))
{
}

MappedFile &
MappedFile::operator=(MappedFile &&other) noexcept
{
    if (this != &other) {
        reset();
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
        fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
}

void
MappedFile::release(uint64_t offset, uint64_t bytes) const
{
#ifdef CODIC_HAVE_MMAP
    if (data_ && bytes > 0)
        ::madvise(const_cast<uint8_t *>(data_ + offset), bytes,
                  MADV_DONTNEED);
#else
    (void)offset;
    (void)bytes;
#endif
}

void
MappedFile::reset()
{
#ifdef CODIC_HAVE_MMAP
    if (data_)
        ::munmap(const_cast<uint8_t *>(data_), size_);
    if (fd_ >= 0)
        ::close(fd_);
#endif
    data_ = nullptr;
    size_ = 0;
    fd_ = -1;
}

} // namespace codic
