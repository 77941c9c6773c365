#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "storage/page.h"

namespace sgl {
namespace storage {

namespace {
constexpr char kWalMagic[6] = {'S', 'G', 'L', 'W', 'A', 'L'};
constexpr uint16_t kWalVersion = 2;
constexpr size_t kWalHeaderBytes = 16;
constexpr size_t kWalFrameBytes = 13;  // u32 len + u8 type + u64 checksum
}  // namespace

void WalAppendLE(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

WalFile::~WalFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalFile::WriteHeader(int64_t checkpoint_tick) {
  std::string header;
  header.append(kWalMagic, sizeof(kWalMagic));
  WalAppendLE(&header, kWalVersion, 2);
  WalAppendLE(&header, static_cast<uint64_t>(checkpoint_tick), 8);
  if (::pwrite(fd_, header.data(), header.size(), 0) !=
      static_cast<ssize_t>(header.size())) {
    return Status::Internal("storage: cannot write WAL header to ", path_,
                            ": ", std::strerror(errno));
  }
  checkpoint_tick_ = checkpoint_tick;
  return Status::OK();
}

Status WalFile::Open(const std::string& path) {
  path_ = path;
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::Internal("storage: cannot open WAL ", path, ": ",
                            std::strerror(errno));
  }
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size == 0) return WriteHeader(0);
  uint8_t header[kWalHeaderBytes];
  if (size < static_cast<off_t>(kWalHeaderBytes) ||
      ::pread(fd_, header, kWalHeaderBytes, 0) !=
          static_cast<ssize_t>(kWalHeaderBytes) ||
      std::memcmp(header, kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::Invalid("storage: ", path, " is not a WAL (bad header)");
  }
  const uint64_t version = LoadLE(header + 6, 2);
  if (version != kWalVersion) {
    return Status::Invalid("storage: WAL ", path, " has unsupported version ",
                           version);
  }
  checkpoint_tick_ = static_cast<int64_t>(LoadLE(header + 8, 8));
  return Status::OK();
}

Status WalFile::Reset(int64_t checkpoint_tick) {
  image_ = std::string();
  if (::ftruncate(fd_, 0) != 0) {
    return Status::Internal("storage: cannot truncate WAL ", path_, ": ",
                            std::strerror(errno));
  }
  return WriteHeader(checkpoint_tick);
}

Status WalFile::Append(WalRecordType type, const std::string& body,
                       int64_t* bytes) {
  uint8_t frame[kWalFrameBytes];
  StoreLE(frame, body.size(), 4);
  frame[4] = static_cast<uint8_t>(type);
  StoreLE(frame + 5,
          Fnv1a(reinterpret_cast<const uint8_t*>(body.data()), body.size()),
          8);
  // One write per record (frame and body gathered, not copied together):
  // the append either lands whole or becomes a short tail the reader
  // drops — never an interleaved half-frame.
  iovec parts[2] = {{frame, kWalFrameBytes},
                    {const_cast<char*>(body.data()), body.size()}};
  const size_t total = kWalFrameBytes + body.size();
  if (::pwritev(fd_, parts, 2, ::lseek(fd_, 0, SEEK_END)) !=
      static_cast<ssize_t>(total)) {
    return Status::Internal("storage: WAL append failed on ", path_, ": ",
                            std::strerror(errno));
  }
  if (bytes != nullptr) *bytes += static_cast<int64_t>(total);
  return Status::OK();
}

Status WalFile::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::Internal("storage: fsync failed on WAL ", path_, ": ",
                            std::strerror(errno));
  }
  return Status::OK();
}

Status WalFile::ReadAll(std::vector<WalRecord>* out, bool* torn) {
  *torn = false;
  out->clear();
  struct stat sb;
  if (::fstat(fd_, &sb) != 0) {
    return Status::Internal("storage: cannot stat WAL ", path_, ": ",
                            std::strerror(errno));
  }
  image_.resize(static_cast<size_t>(sb.st_size));
  size_t got = 0;
  while (got < image_.size()) {
    const ssize_t n = ::pread(fd_, &image_[got], image_.size() - got,
                              static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::Internal("storage: cannot read WAL ", path_, ": ",
                              n < 0 ? std::strerror(errno) : "short read");
    }
    got += static_cast<size_t>(n);
  }
  const std::string_view bytes(image_);
  if (bytes.size() < kWalHeaderBytes) {
    return Status::Invalid("storage: WAL ", path_, " lost its header");
  }
  size_t pos = kWalHeaderBytes;
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  while (pos < bytes.size()) {
    if (pos + kWalFrameBytes > bytes.size()) {
      *torn = true;  // frame header cut off mid-append
      return Status::OK();
    }
    const uint64_t len = LoadLE(data + pos, 4);
    const auto type = static_cast<WalRecordType>(data[pos + 4]);
    const uint64_t checksum = LoadLE(data + pos + 5, 8);
    if (pos + kWalFrameBytes + len > bytes.size()) {
      *torn = true;  // body cut off mid-append
      return Status::OK();
    }
    if (Fnv1a(data + pos + kWalFrameBytes, len) != checksum) {
      return Status::Invalid("storage: WAL ", path_,
                             " record at byte ", pos,
                             " failed its checksum (corrupt log)");
    }
    out->push_back(
        WalRecord{type, bytes.substr(pos + kWalFrameBytes, len)});
    pos += kWalFrameBytes + len;
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace sgl
