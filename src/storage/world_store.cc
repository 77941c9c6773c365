#include "storage/world_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "storage/page.h"

namespace sgl {

Status StorageConfig::Validate() const {
  if (!enabled()) return Status::OK();
  if (page_size < 64 || page_size > (1 << 22)) {
    return Status::Invalid(
        "SimulationConfig: storage.page_size must be in [64, 4194304], got ",
        page_size);
  }
  if (checkpoint_every < 0) {
    return Status::Invalid(
        "SimulationConfig: storage.checkpoint_every must be >= 0, got ",
        checkpoint_every);
  }
  return Status::OK();
}

namespace storage {

Status MakeDirs(const std::string& path) {
  std::string partial;
  size_t pos = 0;
  while (pos <= path.size()) {
    size_t next = path.find('/', pos);
    if (next == std::string::npos) next = path.size();
    partial = path.substr(0, next);
    pos = next + 1;
    if (partial.empty()) continue;  // leading '/'
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal("storage: cannot create directory ", partial,
                              ": ", std::strerror(errno));
    }
  }
  return Status::OK();
}

Status WriteFileAtomically(const std::string& path, const std::string& bytes,
                           obs::Counter* fsyncs) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("storage: cannot create ", tmp, ": ",
                            std::strerror(errno));
  }
  const size_t n = bytes.size();
  const bool wrote = ::write(fd, bytes.data(), n) == static_cast<ssize_t>(n);
  const bool synced = wrote && ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) {
    return Status::Internal("storage: cannot write ", tmp, ": ",
                            std::strerror(errno));
  }
  if (fsyncs != nullptr) fsyncs->Add(1);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("storage: cannot publish ", path, ": ",
                            std::strerror(errno));
  }
  // The rename is durable only once the directory entry is: without this
  // fsync a published file can vanish on power loss.
  const size_t slash = path.rfind('/');
  std::string dir = ".";
  if (slash != std::string::npos) {
    dir = path.substr(0, std::max<size_t>(slash, 1));  // "/f" syncs "/"
  }
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::Internal("storage: cannot open directory ", dir, ": ",
                            std::strerror(errno));
  }
  const int sync_errno = ::fsync(dir_fd) == 0 ? 0 : errno;
  ::close(dir_fd);
  if (sync_errno != 0) {
    return Status::Internal("storage: cannot sync directory ", dir, ": ",
                            std::strerror(sync_errno));
  }
  if (fsyncs != nullptr) fsyncs->Add(1);
  return Status::OK();
}

namespace {

constexpr char kManifestFile[] = "/MANIFEST.sgl";
constexpr char kManifestMagic[6] = {'S', 'G', 'L', 'M', 'A', 'N'};
constexpr uint16_t kManifestVersion = 1;
// A CellDeltas run header: u32 first row, u32 row count, u64 attr mask.
constexpr size_t kCellRunHeaderBytes = 16;

/// Bounds-checked little-endian cursor over a record body or manifest.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(reinterpret_cast<const uint8_t*>(bytes.data()),
                   bytes.size()) {}

  Status Read(uint64_t* out, int bytes) {
    if (pos_ + static_cast<size_t>(bytes) > size_) {
      return Status::Invalid("storage: record truncated at byte ", pos_);
    }
    *out = LoadLE(data_ + pos_, bytes);
    pos_ += static_cast<size_t>(bytes);
    return Status::OK();
  }

  Status ReadString(std::string* out, size_t len) {
    const uint8_t* bytes = nullptr;
    SGL_RETURN_NOT_OK(Take(len, &bytes));
    out->assign(reinterpret_cast<const char*>(bytes), len);
    return Status::OK();
  }

  /// Point `*out` at the next `len` bytes and step past them.
  Status Take(size_t len, const uint8_t** out) {
    if (len > size_ - pos_) {
      return Status::Invalid("storage: record truncated at byte ", pos_);
    }
    *out = data_ + pos_;
    pos_ += len;
    return Status::OK();
  }

  size_t remaining() const { return size_ - pos_; }
  size_t pos() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

bool WorldStore::HasWorld(const std::string& dir) {
  return ::access((dir + kManifestFile).c_str(), F_OK) == 0;
}

Result<std::unique_ptr<WorldStore>> WorldStore::Open(
    const StorageConfig& config, obs::MetricsRegistry* metrics) {
  SGL_RETURN_NOT_OK(config.Validate());
  if (!config.enabled()) {
    return Status::Invalid("storage: WorldStore::Open needs a non-empty path");
  }
  SGL_RETURN_NOT_OK(MakeDirs(config.path));
  std::unique_ptr<WorldStore> store(new WorldStore(config));
  SGL_RETURN_NOT_OK(
      store->file_.Open(config.path + "/pages.sgl", config.page_size));
  store->wal_refusal_ = store->wal_.Open(config.path + "/wal.sgl");
  if (!store->wal_refusal_.ok() && !store->wal_.is_open()) {
    return store->wal_refusal_;
  }
  store->page_buf_.resize(static_cast<size_t>(config.page_size));
  store->manifest_path_ = config.path + kManifestFile;
  store->has_world_ = HasWorld(config.path);
  if (metrics != nullptr) {
    // Exec-dependent: these exist only when storage is on, so the
    // deterministic metric subset stays comparable between storage-backed
    // and in-memory runs.
    const uint32_t exec_dep = obs::kMetricExecDependent;
    store->wal_bytes_ = metrics->GetCounter("storage.wal.bytes", exec_dep);
    store->wal_records_ = metrics->GetCounter("storage.wal.records", exec_dep);
    store->fsyncs_ = metrics->GetCounter("storage.fsyncs", exec_dep);
    store->checkpoints_ = metrics->GetCounter("storage.checkpoints", exec_dep);
  }
  return store;
}

void WorldStore::SetLayout(const Schema& schema) {
  num_slots_ = schema.NumAttrs();
  rows_per_page_ = (config_.page_size - kPageHeaderBytes) / 8;
}

void WorldStore::ExpandMask(uint64_t mask, std::vector<AttrId>* out) const {
  out->clear();
  for (AttrId a = 1; a < num_slots_; ++a) {
    if ((mask >> (a < 63 ? a : 63)) & 1) out->push_back(a);
  }
}

// --- TableDeltaListener ----------------------------------------------------

void WorldStore::OnAddRow(int64_t key, RowId row,
                          const std::vector<double>& values) {
  StructOp op;
  op.add = true;
  op.key = key;
  op.values = values;
  ops_.push_back(std::move(op));
  // Every page from `row`'s chunk up becomes dirty, so the new row's
  // cells need no marks of their own.
  if (struct_min_ < 0 || row < struct_min_) struct_min_ = row;
}

void WorldStore::OnRemoveRows(RowId first_row,
                              const std::vector<int64_t>& keys) {
  StructOp op;
  op.add = false;
  op.keys = keys;
  ops_.push_back(std::move(op));
  if (struct_min_ < 0 || first_row < struct_min_) struct_min_ = first_row;
}

std::vector<WorldStore::CellRun> WorldStore::DirtyRuns(
    const TableChanges& window) {
  // One pass over the masks in row order: they are one word per row, and
  // a tick that moves or hits most units dirties most of them anyway.
  std::vector<CellRun> runs;
  for (size_t r = 0; r < window.masks.size(); ++r) {
    const uint64_t mask = window.masks[r];
    if (mask == 0) continue;
    const RowId row = static_cast<RowId>(r);
    if (runs.empty() || runs.back().end != row) {
      runs.push_back(CellRun{row, row, 0});
    }
    runs.back().end = row + 1;
    runs.back().mask |= mask;
  }
  return runs;
}

// --- dirty pages ------------------------------------------------------------

void WorldStore::MarkDirty(const EnvironmentTable& table,
                           const std::vector<CellRun>& runs) {
  ops_.clear();  // already logged by CommitTick, or in the checkpoint image
  if (struct_min_ < 0 && runs.empty()) return;
  const RowId n = table.NumRows();
  const PageId num_pages = NumPages(n);
  if (static_cast<PageId>(dirty_.size()) < num_pages) {
    dirty_.resize(static_cast<size_t>(num_pages), 0);
  }
  RowId rewritten_from = n;
  if (struct_min_ >= 0) {
    rewritten_from = std::min(n, struct_min_);
    for (PageId id = PageOf(struct_min_, 0); id < num_pages; ++id) {
      dirty_[id] = 1;
    }
    struct_min_ = -1;
  }
  // Pages from `rewritten_from`'s chunk up are already dirty. Below it,
  // each run marks one page per (chunk, attribute) it touches.
  std::vector<AttrId> attrs;
  for (const CellRun& run : runs) {
    const RowId end = std::min(run.end, rewritten_from);
    if (run.begin >= end) continue;
    ExpandMask(run.mask, &attrs);
    for (RowId lo = run.begin; lo < end;
         lo = (lo / rows_per_page_ + 1) * rows_per_page_) {
      for (AttrId a : attrs) dirty_[PageOf(lo, a)] = 1;
    }
  }
}

void WorldStore::EncodePage(const EnvironmentTable& table, PageId id) {
  const int32_t slot = static_cast<int32_t>(id % num_slots_);
  const RowId begin = static_cast<RowId>(id / num_slots_) * rows_per_page_;
  const RowId end = std::min(table.NumRows(), begin + rows_per_page_);
  uint8_t* payload = page_buf_.data() + kPageHeaderBytes;
  const size_t used = static_cast<size_t>(end - begin) * 8;
  if (slot == 0) {
    for (RowId r = begin; r < end; ++r) {
      StoreLE(payload + CellOffset(r), static_cast<uint64_t>(table.KeyAt(r)),
              8);
    }
  } else {
    StoreDoublesLE(payload, table.Column(slot).data() + begin,
                   static_cast<size_t>(end - begin));
  }
  std::memset(payload + used, 0,
              page_buf_.size() - kPageHeaderBytes - used);
}

// --- the per-tick WAL append ----------------------------------------------

Status WorldStore::CommitTick(const EnvironmentTable& table, int64_t tick) {
  if (!synced_) {
    return Status::Internal(
        "storage: the world at ", config_.path,
        " holds a checkpoint this simulation has not restored; call "
        "RestoreFrom to resume it or Checkpoint to overwrite it before "
        "ticking");
  }
  if (num_slots_ == 0) SetLayout(table.schema());
  const std::vector<CellRun> runs = DirtyRuns(table.storage_changes());
  int64_t bytes = 0;
  int64_t records = 0;
  std::string body;
  WalAppendLE(&body, static_cast<uint64_t>(tick), 8);
  SGL_RETURN_NOT_OK(wal_.Append(WalRecordType::kTickBegin, body, &bytes));
  ++records;
  for (const StructOp& op : ops_) {
    body.clear();
    if (op.add) {
      WalAppendLE(&body, static_cast<uint64_t>(op.key), 8);
      WalAppendLE(&body, op.values.size(), 4);
      for (double v : op.values) WalAppendLE(&body, PackDouble(v), 8);
      SGL_RETURN_NOT_OK(wal_.Append(WalRecordType::kAddRow, body, &bytes));
    } else {
      WalAppendLE(&body, op.keys.size(), 4);
      for (int64_t k : op.keys) {
        WalAppendLE(&body, static_cast<uint64_t>(k), 8);
      }
      SGL_RETURN_NOT_OK(
          wal_.Append(WalRecordType::kRemoveRows, body, &bytes));
    }
    ++records;
  }
  // One CellDeltas record: per run, its row range and mask, then each
  // masked attribute's final values, contiguous (layout in wal.h).
  std::vector<std::vector<AttrId>> run_attrs(runs.size());
  size_t size = 4;
  for (size_t i = 0; i < runs.size(); ++i) {
    ExpandMask(runs[i].mask, &run_attrs[i]);
    const size_t n = static_cast<size_t>(runs[i].end - runs[i].begin);
    size += kCellRunHeaderBytes + run_attrs[i].size() * n * 8;
  }
  body.assign(size, '\0');
  uint8_t* out = reinterpret_cast<uint8_t*>(&body[0]);
  StoreLE(out, runs.size(), 4);
  out += 4;
  for (size_t i = 0; i < runs.size(); ++i) {
    const CellRun& run = runs[i];
    const size_t n = static_cast<size_t>(run.end - run.begin);
    StoreLE(out, static_cast<uint64_t>(run.begin), 4);
    StoreLE(out + 4, n, 4);
    StoreLE(out + 8, run.mask, 8);
    out += kCellRunHeaderBytes;
    for (AttrId a : run_attrs[i]) {
      StoreDoublesLE(out, table.Column(a).data() + run.begin, n);
      out += n * 8;
    }
  }
  SGL_RETURN_NOT_OK(wal_.Append(WalRecordType::kCellDeltas, body, &bytes));
  ++records;
  body.clear();
  WalAppendLE(&body, static_cast<uint64_t>(tick), 8);
  WalAppendLE(&body, static_cast<uint64_t>(table.next_key()), 8);
  WalAppendLE(&body, static_cast<uint64_t>(table.NumRows()), 4);
  SGL_RETURN_NOT_OK(wal_.Append(WalRecordType::kTickCommit, body, &bytes));
  ++records;
  if (wal_bytes_ != nullptr) wal_bytes_->Add(bytes);
  if (wal_records_ != nullptr) wal_records_->Add(records);
  MarkDirty(table, runs);
  if (config_.checkpoint_every > 0 &&
      (tick + 1) % config_.checkpoint_every == 0) {
    SGL_RETURN_NOT_OK(Publish(table, tick + 1));
  }
  return Status::OK();
}

// --- checkpoint ------------------------------------------------------------

Status WorldStore::Checkpoint(const EnvironmentTable& table, int64_t tick) {
  if (num_slots_ == 0) SetLayout(table.schema());
  if (!synced_) {
    // First checkpoint into this directory (or an explicit overwrite of
    // an unrestored world): write a full image. An image already
    // published here must survive until the new manifest replaces it, so
    // the writes go to the slots its manifest does not commit. A
    // manifest that cannot be read protects nothing.
    if (has_world_) {
      Result<Manifest> old = ReadManifest();
      if (old.ok()) committed_ = std::move(old->committed);
    }
    struct_min_ = 0;
    synced_ = true;
  }
  // Deltas since the last commit go to the pages only: the image this
  // checkpoint publishes holds them, so no later WAL tick replays them.
  MarkDirty(table, DirtyRuns(table.storage_changes()));
  return Publish(table, tick);
}

Status WorldStore::Publish(const EnvironmentTable& table, int64_t tick) {
  // Pages past the table's last chunk hold no rows the manifest names;
  // they stay as they are until rows reach them again.
  const PageId num_pages = std::min(static_cast<PageId>(dirty_.size()),
                                    NumPages(table.NumRows()));
  std::vector<uint8_t> committed = committed_;
  if (static_cast<PageId>(committed.size()) < num_pages) {
    committed.resize(static_cast<size_t>(num_pages), 0);
  }
  for (PageId id = 0; id < num_pages; ++id) {
    if (!dirty_[id]) continue;
    EncodePage(table, id);
    SGL_RETURN_NOT_OK(
        file_.WriteSlot(id, 1 - committed[id], page_buf_.data()));
    committed[id] ^= 1;
  }
  SGL_RETURN_NOT_OK(file_.Sync());
  if (fsyncs_ != nullptr) fsyncs_->Add(1);
  // The flips take effect with the manifest that names them; a
  // checkpoint that fails before then leaves its pages dirty for the
  // next one, which rewrites the same scratch slots.
  SGL_RETURN_NOT_OK(WriteManifest(table, tick, committed));
  committed_ = std::move(committed);
  dirty_.clear();
  SGL_RETURN_NOT_OK(wal_.Reset(tick));
  wal_refusal_ = Status::OK();
  SGL_RETURN_NOT_OK(wal_.Sync());
  if (fsyncs_ != nullptr) fsyncs_->Add(1);
  if (checkpoints_ != nullptr) checkpoints_->Add(1);
  has_world_ = true;
  return Status::OK();
}

Status WorldStore::WriteManifest(const EnvironmentTable& table, int64_t tick,
                                 const std::vector<uint8_t>& committed) {
  std::string out;
  out.append(kManifestMagic, sizeof(kManifestMagic));
  WalAppendLE(&out, kManifestVersion, 2);
  WalAppendLE(&out, static_cast<uint64_t>(tick), 8);
  WalAppendLE(&out, static_cast<uint64_t>(table.next_key()), 8);
  WalAppendLE(&out, static_cast<uint64_t>(table.NumRows()), 4);
  WalAppendLE(&out, static_cast<uint64_t>(config_.page_size), 4);
  const Schema& schema = table.schema();
  WalAppendLE(&out, static_cast<uint64_t>(schema.NumAttrs()), 4);
  for (AttrId a = 0; a < schema.NumAttrs(); ++a) {
    const Attribute& attr = schema.attr(a);
    WalAppendLE(&out, static_cast<uint64_t>(attr.combine), 1);
    WalAppendLE(&out, attr.name.size(), 4);
    out.append(attr.name);
  }
  WalAppendLE(&out, committed.size(), 4);
  out.append(reinterpret_cast<const char*>(committed.data()),
             committed.size());
  WalAppendLE(&out,
              Fnv1a(reinterpret_cast<const uint8_t*>(out.data()), out.size()),
              8);

  // The manifest names either the previous checkpoint or this one, never
  // a torn mixture.
  return WriteFileAtomically(manifest_path_, out, fsyncs_);
}

Result<int32_t> WorldStore::StoredPageSize(const std::string& dir) {
  SGL_ASSIGN_OR_RETURN(Manifest m, ParseManifest(dir + kManifestFile));
  return m.page_size;
}

Result<WorldStore::Manifest> WorldStore::ReadManifest() const {
  SGL_ASSIGN_OR_RETURN(Manifest m, ParseManifest(manifest_path_));
  if (m.page_size != config_.page_size) {
    return Status::Invalid("storage: the world at ", config_.path,
                           " was written with page_size ", m.page_size,
                           " but storage.page_size is ", config_.page_size);
  }
  return m;
}

Result<WorldStore::Manifest> WorldStore::ParseManifest(
    const std::string& manifest_path) {
  std::ifstream in(manifest_path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("storage: no manifest at ", manifest_path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  if (bytes.size() < sizeof(kManifestMagic) + 8 ||
      std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::Invalid("storage: ", manifest_path,
                           " is not a world manifest (bad magic)");
  }
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  const uint64_t stored = LoadLE(data + bytes.size() - 8, 8);
  if (Fnv1a(data, bytes.size() - 8) != stored) {
    return Status::Invalid("storage: manifest ", manifest_path,
                           " failed its checksum (corrupt)");
  }
  ByteReader reader(data + sizeof(kManifestMagic),
                    bytes.size() - sizeof(kManifestMagic) - 8);
  uint64_t version = 0;
  SGL_RETURN_NOT_OK(reader.Read(&version, 2));
  if (version != kManifestVersion) {
    return Status::Invalid("storage: manifest ", manifest_path,
                           " has unsupported version ", version);
  }
  Manifest m;
  uint64_t v = 0;
  SGL_RETURN_NOT_OK(reader.Read(&v, 8));
  m.tick = static_cast<int64_t>(v);
  SGL_RETURN_NOT_OK(reader.Read(&v, 8));
  m.next_key = static_cast<int64_t>(v);
  SGL_RETURN_NOT_OK(reader.Read(&v, 4));
  m.num_rows = static_cast<int32_t>(v);
  SGL_RETURN_NOT_OK(reader.Read(&v, 4));
  m.page_size = static_cast<int32_t>(v);
  uint64_t num_attrs = 0;
  SGL_RETURN_NOT_OK(reader.Read(&num_attrs, 4));
  if (num_attrs < 1) {
    return Status::Invalid("storage: manifest schema has no key attribute");
  }
  for (uint64_t a = 0; a < num_attrs; ++a) {
    uint64_t combine = 0;
    SGL_RETURN_NOT_OK(reader.Read(&combine, 1));
    if (combine > static_cast<uint64_t>(CombineType::kSet)) {
      return Status::Invalid("storage: manifest attribute ", a,
                             " has unknown combine tag ", combine);
    }
    uint64_t name_len = 0;
    SGL_RETURN_NOT_OK(reader.Read(&name_len, 4));
    std::string name;
    SGL_RETURN_NOT_OK(reader.ReadString(&name, name_len));
    if (a == 0) {
      if (name != m.schema.attr(kKeyAttrId).name ||
          static_cast<CombineType>(combine) != CombineType::kConst) {
        return Status::Invalid("storage: manifest attribute 0 is '", name,
                               "', expected the const key attribute");
      }
      continue;
    }
    SGL_RETURN_NOT_OK(
        m.schema.AddAttribute(name, static_cast<CombineType>(combine))
            .status());
  }
  uint64_t num_pages = 0;
  SGL_RETURN_NOT_OK(reader.Read(&num_pages, 4));
  std::string bits;
  SGL_RETURN_NOT_OK(reader.ReadString(&bits, num_pages));
  m.committed.assign(bits.begin(), bits.end());
  if (reader.remaining() != 0) {
    return Status::Invalid("storage: manifest has ", reader.remaining(),
                           " trailing byte(s)");
  }
  return m;
}

// --- recovery / time travel ------------------------------------------------

Result<RecoveredWorld> WorldStore::Recover() { return Replay(-1); }

Result<RecoveredWorld> WorldStore::Materialize(int64_t tick) {
  if (tick < 0) {
    return Status::Invalid("storage: cannot materialize negative tick ", tick);
  }
  return Replay(tick);
}

Result<RecoveredWorld> WorldStore::Replay(int64_t target) {
  if (!has_world_) {
    return Status::NotFound("storage: no checkpoint in ", config_.path);
  }
  SGL_ASSIGN_OR_RETURN(Manifest m, ReadManifest());
  SetLayout(m.schema);
  // Replay reads the slots the manifest on disk commits, and the store
  // adopts them. Scratch slots are written nowhere but inside a
  // checkpoint, so the live table's dirty bits stay valid.
  committed_ = m.committed;
  if (target >= 0 && target < m.tick) {
    return Status::Invalid("storage: tick ", target,
                           " predates the checkpoint at tick ", m.tick,
                           " (earlier states were overwritten)");
  }

  // Rebuild the checkpoint image a page at a time: read each column
  // chunk's committed slot once (ReadSlot verifies its checksum), decode
  // it whole, then add the chunk's rows in row order.
  EnvironmentTable table{m.schema};
  // Room for the image's rows up front, but no more than the pages the
  // manifest names can hold: a bad row count then fails at its first
  // missing page, not in the allocator.
  const int64_t chunks =
      static_cast<int64_t>(m.committed.size()) / num_slots_;
  table.Reserve(static_cast<int32_t>(
      std::clamp<int64_t>(m.num_rows, 0, chunks * rows_per_page_)));
  const size_t num_attrs = static_cast<size_t>(num_slots_ - 1);
  std::vector<int64_t> keys(static_cast<size_t>(rows_per_page_));
  std::vector<double> chunk(keys.size() * num_attrs);  // row-major
  std::vector<double> values(num_attrs);
  for (RowId begin = 0; begin < m.num_rows; begin += rows_per_page_) {
    const size_t n =
        static_cast<size_t>(std::min(rows_per_page_, m.num_rows - begin));
    for (int32_t slot = 0; slot < num_slots_; ++slot) {
      const PageId id = PageOf(begin, slot);
      SGL_RETURN_NOT_OK(file_.ReadSlot(id, CommittedSlot(id), page_buf_.data(),
                                       /*missing_ok=*/false));
      const uint8_t* payload = page_buf_.data() + kPageHeaderBytes;
      for (size_t r = 0; r < n; ++r) {
        const uint64_t bits = LoadLE(payload + r * 8, 8);
        if (slot == 0) {
          keys[r] = static_cast<int64_t>(bits);
        } else {
          chunk[r * num_attrs + static_cast<size_t>(slot - 1)] =
              UnpackDouble(bits);
        }
      }
    }
    for (size_t r = 0; r < n; ++r) {
      const double* row = chunk.data() + r * num_attrs;
      values.assign(row, row + num_attrs);
      SGL_RETURN_NOT_OK(table.AddRowWithKey(keys[r], values));
    }
  }
  table.SetNextKey(m.next_key);
  int64_t state = m.tick;

  if (target != m.tick) {
    SGL_RETURN_NOT_OK(wal_refusal_);
    if (wal_.checkpoint_tick() != m.tick) {
      return Status::Invalid("storage: WAL covers ticks from ",
                             wal_.checkpoint_tick(),
                             " but the manifest checkpoint is at tick ",
                             m.tick, " (mismatched files)");
    }
    std::vector<WalRecord> records;
    bool torn = false;
    SGL_RETURN_NOT_OK(wal_.ReadAll(&records, &torn));
    // The TableChanges bits a cell run may name: attributes 1..k.
    uint64_t schema_mask = 0;
    for (AttrId a = 1; a < num_slots_; ++a) {
      schema_mask |= TableChanges::BitOf(a);
    }
    std::vector<AttrId> attrs;
    size_t i = 0;
    while (i < records.size() && (target < 0 || state < target)) {
      if (records[i].type != WalRecordType::kTickBegin) {
        return Status::Invalid(
            "storage: WAL replay expected TickBegin, found record type ",
            static_cast<int>(records[i].type));
      }
      ByteReader begin(records[i].body);
      uint64_t t = 0;
      SGL_RETURN_NOT_OK(begin.Read(&t, 8));
      if (static_cast<int64_t>(t) != state) {
        return Status::Invalid("storage: WAL tick ", t,
                               " out of sequence (expected ", state, ")");
      }
      // A tick counts only when its TickCommit landed; records past the
      // last commit are a torn tail (the crash interrupted the append).
      size_t commit = i + 1;
      while (commit < records.size() &&
             records[commit].type != WalRecordType::kTickCommit) {
        if (records[commit].type == WalRecordType::kTickBegin) {
          return Status::Invalid("storage: WAL tick ", t,
                                 " has no commit record (corrupt log)");
        }
        ++commit;
      }
      if (commit == records.size()) break;  // torn tail: drop the tick

      for (size_t r = i + 1; r < commit; ++r) {
        ByteReader body(records[r].body);
        switch (records[r].type) {
          case WalRecordType::kAddRow: {
            uint64_t key = 0;
            uint64_t n = 0;
            SGL_RETURN_NOT_OK(body.Read(&key, 8));
            SGL_RETURN_NOT_OK(body.Read(&n, 4));
            std::vector<double> row_values(n);
            for (uint64_t c = 0; c < n; ++c) {
              uint64_t bits = 0;
              SGL_RETURN_NOT_OK(body.Read(&bits, 8));
              row_values[c] = UnpackDouble(bits);
            }
            SGL_RETURN_NOT_OK(table.AddRowWithKey(static_cast<int64_t>(key),
                                                  row_values));
            break;
          }
          case WalRecordType::kRemoveRows: {
            uint64_t n = 0;
            SGL_RETURN_NOT_OK(body.Read(&n, 4));
            std::unordered_set<int64_t> removed;
            for (uint64_t c = 0; c < n; ++c) {
              uint64_t key = 0;
              SGL_RETURN_NOT_OK(body.Read(&key, 8));
              removed.insert(static_cast<int64_t>(key));
            }
            table.RemoveIf([&](RowId row) {
              return removed.count(table.KeyAt(row)) > 0;
            });
            break;
          }
          case WalRecordType::kCellDeltas: {
            // The replay's hot loop: bounds-check each run once, then
            // decode its columns in place.
            uint64_t num_runs = 0;
            SGL_RETURN_NOT_OK(body.Read(&num_runs, 4));
            for (uint64_t run = 0; run < num_runs; ++run) {
              uint64_t first = 0;
              uint64_t count = 0;
              uint64_t mask = 0;
              SGL_RETURN_NOT_OK(body.Read(&first, 4));
              SGL_RETURN_NOT_OK(body.Read(&count, 4));
              SGL_RETURN_NOT_OK(body.Read(&mask, 8));
              if (first + count > static_cast<uint64_t>(table.NumRows())) {
                return Status::Invalid(
                    "storage: WAL cell run at tick ", t, " covers rows ",
                    first, "..", first + count, " but the table has ",
                    table.NumRows(), " rows");
              }
              if ((mask & ~schema_mask) != 0) {
                return Status::Invalid("storage: WAL cell run at tick ", t,
                                       " names attributes outside the "
                                       "schema (mask ",
                                       mask & ~schema_mask, ")");
              }
              ExpandMask(mask, &attrs);
              for (AttrId a : attrs) {
                const uint8_t* src = nullptr;
                SGL_RETURN_NOT_OK(body.Take(count * 8, &src));
                for (uint64_t c = 0; c < count; ++c) {
                  table.Set(static_cast<RowId>(first + c), a,
                            UnpackDouble(LoadLE(src + c * 8, 8)));
                }
              }
            }
            break;
          }
          default:
            return Status::Invalid(
                "storage: WAL tick ", t, " holds unexpected record type ",
                static_cast<int>(records[r].type));
        }
      }

      ByteReader end(records[commit].body);
      uint64_t commit_tick = 0;
      uint64_t next_key = 0;
      uint64_t num_rows = 0;
      SGL_RETURN_NOT_OK(end.Read(&commit_tick, 8));
      SGL_RETURN_NOT_OK(end.Read(&next_key, 8));
      SGL_RETURN_NOT_OK(end.Read(&num_rows, 4));
      if (commit_tick != t) {
        return Status::Invalid("storage: WAL commit for tick ", commit_tick,
                               " closes tick ", t, " (corrupt log)");
      }
      if (static_cast<int32_t>(num_rows) != table.NumRows()) {
        return Status::Internal("storage: WAL replay diverged at tick ", t,
                               " (", table.NumRows(), " rows, log expects ",
                               num_rows, ")");
      }
      table.SetNextKey(static_cast<int64_t>(next_key));
      state = static_cast<int64_t>(t) + 1;
      i = commit + 1;
    }
    if (target >= 0 && state != target) {
      return Status::Invalid("storage: tick ", target,
                             " is not in the log (the world covers ticks ",
                             m.tick, "..", state, ")");
    }
  }

  RecoveredWorld world;
  world.table = std::move(table);
  world.tick = state;
  return world;
}

void WorldStore::MarkWorldInstalled() {
  synced_ = true;
  ops_.clear();
  // The durable image holds checkpoint-state bytes; the WAL replay that
  // built the installed table never touched it. Every page is dirty.
  struct_min_ = 0;
}

}  // namespace storage
}  // namespace sgl
