// WorldStore — the durable world behind EnvironmentTable: checksummed
// pages + write-ahead delta log + manifest, one directory per world.
//
// Files under StorageConfig::path:
//   pages.sgl     the table's column chunks, two physical slots per
//                 logical page (shadow paging; see page_file.h)
//   wal.sgl       per-tick delta records since the last checkpoint
//   MANIFEST.sgl  the durable root: checkpoint tick, schema, row count,
//                 next auto-key, and the committed-slot bit per page —
//                 published by atomic rename, so it either names the old
//                 checkpoint or the new one, never a half state
//
// Page mapping: rows are split into chunks of rows_per_page; page id =
// chunk * num_slots + slot, where slot 0 holds the keys column and slot
// a holds attribute a. Cells are 8 bytes (raw IEEE-754 bits for attrs),
// so every table value round-trips exactly; a page's tail past the
// table's last row is zero.
//
// The table is the page cache: it holds every column in memory, so the
// store keeps no page bytes of its own, only two bits per page — the
// slot the manifest commits and whether the page changed since the last
// checkpoint. It reads the live table's storage change window
// (EnvironmentTable::storage_changes(): one attribute mask per row plus
// the dirty rows, open while the store is the table's delta listener)
// and itself keeps the structural ops (TableDeltaListener) in occurrence
// order plus the lowest structurally rewritten row. CommitTick groups
// the window's dirty rows into runs of consecutive rows and appends one
// tick record to the WAL: the structural ops, then one column-major
// CellDeltas record holding each run's final end-of-tick values (layout
// in wal.h). It then marks dirty each (chunk, attribute) page a run
// touches, and every page from the lowest structurally rewritten row's
// chunk up. Checkpoint marks the same pages without logging: the
// checkpoint image already holds those writes, so writes made between
// ticks never reach the next tick's WAL record. After either call the
// table's owner clears the window (ClearStorageChanges); the engine's
// tick never does. Ticks never read or write pages.sgl.
//
// Checkpoint = encode each dirty page from the table into its scratch
// slot, fsync, flip those pages' committed bits, publish the manifest
// (WriteFileAtomically), truncate the WAL. Cost is O(pages touched since
// the last checkpoint), not O(table); the first checkpoint of a store
// writes the full image, into the slots an existing manifest does not
// commit. Recover/Materialize = load the manifest's committed image a
// page at a time and replay committed WAL ticks; a torn trailing tick
// (crash mid-append) is dropped, a checksum failure anywhere is
// corruption.
#ifndef SGL_STORAGE_WORLD_STORE_H_
#define SGL_STORAGE_WORLD_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "env/table.h"
#include "obs/metrics.h"
#include "storage/config.h"
#include "storage/page_file.h"
#include "storage/wal.h"
#include "util/status.h"

namespace sgl {
namespace storage {

/// mkdir -p: create every missing component of `path`.
Status MakeDirs(const std::string& path);

/// Replace the file at `path` with `bytes` so that a crash leaves either
/// the old file or the new one, never a torn mix: write `path`.tmp,
/// fsync it, rename it over `path`, fsync the directory. Each of the two
/// fsyncs is added to `fsyncs` when it is not null.
Status WriteFileAtomically(const std::string& path, const std::string& bytes,
                           obs::Counter* fsyncs);

/// A world state rebuilt from disk: the table plus the tick it is at.
struct RecoveredWorld {
  EnvironmentTable table{Schema()};
  int64_t tick = 0;
};

class WorldStore : public TableDeltaListener {
 public:
  /// Open (creating if needed) the world directory. `metrics` may be
  /// null; otherwise storage.* counters are registered on it.
  static Result<std::unique_ptr<WorldStore>> Open(
      const StorageConfig& config, obs::MetricsRegistry* metrics);

  ~WorldStore() override = default;

  /// True when `dir` holds a published world (its manifest). Unlike
  /// Open, this creates nothing.
  static bool HasWorld(const std::string& dir);

  /// The page size `dir`'s manifest records: the storage.page_size a
  /// store must be opened with to read the world there.
  static Result<int32_t> StoredPageSize(const std::string& dir);

  const StorageConfig& config() const { return config_; }

  /// True when the directory held a manifest at Open — a recoverable
  /// world exists and CommitTick refuses to run until the simulation
  /// either restores from it or explicitly checkpoints over it.
  bool has_world() const { return has_world_; }

  /// Publish `table` at state `tick` as the new durable checkpoint and
  /// truncate the WAL. On the first checkpoint into a directory (or
  /// over an unrestored world) every page is written; afterwards only
  /// pages touched since the previous checkpoint are.
  Status Checkpoint(const EnvironmentTable& table, int64_t tick);

  /// End-of-tick hook: append tick `tick`'s delta records to the WAL,
  /// mark the pages they touch dirty, and auto-checkpoint when
  /// checkpoint_every divides the new state tick. The caller then clears
  /// the table's storage window, as after a Checkpoint of its live table.
  Status CommitTick(const EnvironmentTable& table, int64_t tick);

  /// Rebuild the latest durable state: checkpoint image + full WAL
  /// replay (dropping a torn trailing tick).
  Result<RecoveredWorld> Recover();

  /// Rebuild the exact state at `tick` (checkpoint_tick <= tick <=
  /// latest committed tick) — time travel through the same replay path.
  Result<RecoveredWorld> Materialize(int64_t tick);

  /// The simulation installed a table that matches the durable world
  /// (RestoreFrom) — ticking may proceed, and every page is dirty
  /// because the durable image predates the install.
  void MarkWorldInstalled();

  // TableDeltaListener — fed by the live table; driver thread only.
  void OnAddRow(int64_t key, RowId row,
                const std::vector<double>& values) override;
  void OnRemoveRows(RowId first_row, const std::vector<int64_t>& keys) override;

 private:
  /// One structural table op, replayed in occurrence order.
  struct StructOp {
    bool add = false;
    int64_t key = 0;              // add
    std::vector<double> values;   // add
    std::vector<int64_t> keys;    // remove
  };

  /// Consecutive dirty rows [begin, end) of the storage window and the
  /// union of their attribute masks.
  struct CellRun {
    RowId begin = 0;
    RowId end = 0;
    uint64_t mask = 0;
  };

  explicit WorldStore(StorageConfig config) : config_(std::move(config)) {}

  /// The storage window's dirty rows as ascending runs.
  static std::vector<CellRun> DirtyRuns(const TableChanges& window);

  void SetLayout(const Schema& schema);
  PageId PageOf(RowId row, int32_t slot) const {
    return static_cast<PageId>(row / rows_per_page_) * num_slots_ + slot;
  }
  int32_t CellOffset(RowId row) const { return (row % rows_per_page_) * 8; }
  /// Pages covering `rows` rows: every slot of each chunk they start.
  PageId NumPages(RowId rows) const {
    return static_cast<PageId>((rows + rows_per_page_ - 1) / rows_per_page_) *
           num_slots_;
  }

  /// Append attr ids 1..k selected by a TableChanges-style bit mask
  /// (bit min(a, 63); bit 63 is coarse and expands to all attrs >= 63).
  void ExpandMask(uint64_t mask, std::vector<AttrId>* out) const;

  /// Mark dirty every page from the lowest structurally touched row's
  /// chunk up and each (chunk, attribute) page of `runs`, and forget the
  /// structural ops.
  void MarkDirty(const EnvironmentTable& table,
                 const std::vector<CellRun>& runs);

  /// The slot the latest manifest commits for `id` (0 for pages it does
  /// not name).
  int32_t CommittedSlot(PageId id) const {
    return id < static_cast<PageId>(committed_.size()) ? committed_[id] : 0;
  }

  /// Encode page `id` from `table` into page_buf_'s payload.
  void EncodePage(const EnvironmentTable& table, PageId id);

  /// Checkpoint's tail, once the dirty bits cover `table`'s changes:
  /// write the dirty pages' scratch slots, fsync, publish the manifest
  /// with their committed bits flipped, truncate the WAL.
  Status Publish(const EnvironmentTable& table, int64_t tick);

  /// Publish `table`'s manifest at `tick` with the committed-slot bits
  /// `committed`.
  Status WriteManifest(const EnvironmentTable& table, int64_t tick,
                       const std::vector<uint8_t>& committed);
  struct Manifest {
    int64_t tick = 0;
    int64_t next_key = 0;
    int32_t num_rows = 0;
    int32_t page_size = 0;
    Schema schema;
    std::vector<uint8_t> committed;
  };
  /// Read and verify the manifest file at `path`.
  static Result<Manifest> ParseManifest(const std::string& path);
  /// This store's manifest; refused unless it records config_.page_size.
  Result<Manifest> ReadManifest() const;

  /// Shared Recover/Materialize body; `target` < 0 means latest.
  Result<RecoveredWorld> Replay(int64_t target);

  StorageConfig config_;
  std::string manifest_path_;
  PageFile file_;
  WalFile wal_;
  std::vector<uint8_t> committed_;  // per page: committed slot (0/1)
  std::vector<uint8_t> dirty_;      // per page: changed since the checkpoint
  std::vector<uint8_t> page_buf_;   // one page_size encode/decode buffer

  int32_t num_slots_ = 0;      // schema.NumAttrs(); slot 0 = keys
  int32_t rows_per_page_ = 0;  // (page_size - header) / 8
  bool has_world_ = false;
  bool synced_ = false;
  // Why the WAL found at Open cannot be read (another version, a bad
  // header): replay fails with it, and the next checkpoint, which
  // truncates the log, clears it.
  Status wal_refusal_;

  // Structural ops since the last CommitTick or Checkpoint (cleared by
  // MarkDirty); the cell writes are the table's storage window.
  std::vector<StructOp> ops_;
  RowId struct_min_ = -1;  // lowest structurally-affected row; -1 = none

  obs::Counter* wal_bytes_ = nullptr;
  obs::Counter* wal_records_ = nullptr;
  obs::Counter* fsyncs_ = nullptr;
  obs::Counter* checkpoints_ = nullptr;
};

}  // namespace storage
}  // namespace sgl

#endif  // SGL_STORAGE_WORLD_STORE_H_
