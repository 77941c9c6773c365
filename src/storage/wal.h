// Write-ahead log of per-tick world deltas (src/storage/).
//
// The WAL is an append-only file of framed records; together with the
// page file's latest checkpoint it re-materializes any tick since that
// checkpoint (crash recovery and time-travel are the same replay loop).
// Layout, all little-endian:
//
//   header: "SGLWAL" u16:version u64:checkpoint_tick        (16 bytes)
//   record: u32:body_len u8:type u64:fnv1a(body) body       (13 + len)
//
// The version is 2. A log of any other version is refused at Open (the
// v1 CellDeltas body held per-cell (key, attr, value) entries and would
// be misread as v2 runs).
//
// One simulation tick t appends, in order: TickBegin(t); the tick's
// structural ops exactly as they happened (AddRow with the assigned key
// and initial values, RemoveRows with the removed keys); one CellDeltas
// record holding the final values of the cells the tick dirtied;
// TickCommit(t) carrying the table's next auto-key and row count.
//
// CellDeltas is column-major, one entry per run of consecutive dirty
// rows:
//
//   u32:num_runs, then per run:
//     u32:first_row u32:row_count u64:attr_mask
//     for each attribute in attr_mask, ascending: row_count x u64 bits
//
// Rows are end-of-tick row indices. Replay re-applies the tick's
// structural ops in order first, which reproduces the same row layout
// (AddRow appends, RemoveRows compacts stably), and TickCommit's row
// count checks it. attr_mask uses TableChanges bits (attribute a is bit
// min(a, 63); bit 63 stands for every attribute >= 63). It is the union
// of the run's row masks, so a run may re-log values that did not
// change; that is harmless because the record holds final values.
//
// Replay applies the records of each committed tick in order — a tick
// whose records stop before TickCommit at the file's end is a torn tail
// (the crash interrupted the append) and is dropped; a checksum failure
// anywhere is corruption and rejects the whole log.
//
// Records are written with plain pwritev() syscalls, so a process that
// dies without flushing anything (the kill-recover tests _exit mid-run)
// still leaves every appended record readable. fsync is reserved for
// checkpoints; see StorageConfig.
#ifndef SGL_STORAGE_WAL_H_
#define SGL_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace sgl {
namespace storage {

enum class WalRecordType : uint8_t {
  kTickBegin = 1,
  kAddRow = 2,
  kRemoveRows = 3,
  kCellDeltas = 4,
  kTickCommit = 5,
};

/// One parsed record: the type tag plus a view of its raw body bytes in
/// the file image ReadAll loaded (the world store decodes bodies with the
/// same LE helpers that built them).
struct WalRecord {
  WalRecordType type;
  std::string_view body;
};

/// Append `v`'s low `bytes` bytes little-endian (record-body builder).
void WalAppendLE(std::string* out, uint64_t v, int bytes);

class WalFile {
 public:
  WalFile() = default;
  ~WalFile();

  WalFile(const WalFile&) = delete;
  WalFile& operator=(const WalFile&) = delete;

  /// Open `path`, creating an empty log (header with checkpoint_tick 0)
  /// when absent. An existing file must start with a valid header of
  /// this version; otherwise Open fails but keeps the file open, so that
  /// Reset can still replace it (a checkpoint over an older world).
  Status Open(const std::string& path);

  bool is_open() const { return fd_ >= 0; }
  int64_t checkpoint_tick() const { return checkpoint_tick_; }

  /// Truncate to a fresh header stamped with `checkpoint_tick` — the
  /// checkpoint just published covers everything the log held. Also
  /// releases the file image of the last ReadAll.
  Status Reset(int64_t checkpoint_tick);

  /// Frame and append one record. Returns bytes appended via `*bytes`.
  Status Append(WalRecordType type, const std::string& body, int64_t* bytes);

  Status Sync();

  /// Read the file once into an image this WalFile keeps and parse every
  /// complete record; the records' bodies are views into that image,
  /// valid until the next ReadAll or Reset. A torn tail (a frame or
  /// header cut off by the file's end) stops the parse and sets `*torn`;
  /// a checksum mismatch on a complete record is an InvalidArgument
  /// (corruption, not a torn append).
  Status ReadAll(std::vector<WalRecord>* out, bool* torn);

 private:
  Status WriteHeader(int64_t checkpoint_tick);

  int fd_ = -1;
  std::string path_;
  int64_t checkpoint_tick_ = 0;
  std::string image_;  // the file as of the last ReadAll
};

}  // namespace storage
}  // namespace sgl

#endif  // SGL_STORAGE_WAL_H_
