#include "serve/action_inlet.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "storage/page.h"  // Fnv1a + LE helpers (header-only)
#include "storage/wal.h"
#include "storage/world_store.h"

namespace sgl {
namespace serve {

namespace {

// Inlet log wire format, version 1 (explicit little-endian bytes):
//   "SGLINL" u16:version u32:count
//   { i64:seq i64:tick i64:key u8:op u32:attr_len attr u64:value_bits }...
//   u64:fnv1a(everything before it)
constexpr char kInletMagic[6] = {'S', 'G', 'L', 'I', 'N', 'L'};
constexpr uint16_t kInletVersion = 1;

using storage::WalAppendLE;

}  // namespace

int64_t ActionInlet::Push(InjectedAction action) {
  std::lock_guard<std::mutex> lock(mu_);
  InletRecord record;
  record.seq = next_seq_++;
  record.action = std::move(action);
  queue_.push_back(std::move(record));
  return queue_.back().seq;
}

int64_t ActionInlet::QueuedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

Status ActionInlet::Replay(std::vector<InletRecord> records) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!queue_.empty()) {
    return Status::Invalid(
        "ActionInlet::Replay: the queue still holds ", queue_.size(),
        " undrained action(s)");
  }
  int64_t prev_tick = -1;
  int64_t prev_seq = -1;
  for (const InletRecord& record : records) {
    if (record.tick < 0) {
      return Status::Invalid(
          "ActionInlet::Replay: record seq ", record.seq,
          " carries no tick (only applied-log records can replay)");
    }
    if (record.tick < prev_tick ||
        (record.tick == prev_tick && record.seq <= prev_seq)) {
      return Status::Invalid(
          "ActionInlet::Replay: records out of (tick, seq) order at seq ",
          record.seq);
    }
    prev_tick = record.tick;
    prev_seq = record.seq;
  }
  for (InletRecord& record : records) queue_.push_back(std::move(record));
  return Status::OK();
}

Status ActionInlet::SaveLog(const std::string& path) const {
  std::string bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bytes.append(kInletMagic, sizeof(kInletMagic));
    WalAppendLE(&bytes, kInletVersion, 2);
    WalAppendLE(&bytes, static_cast<uint64_t>(log_.size()), 4);
    for (const InletRecord& record : log_) {
      WalAppendLE(&bytes, static_cast<uint64_t>(record.seq), 8);
      WalAppendLE(&bytes, static_cast<uint64_t>(record.tick), 8);
      WalAppendLE(&bytes, static_cast<uint64_t>(record.action.unit_key), 8);
      WalAppendLE(&bytes, static_cast<uint64_t>(record.action.op), 1);
      WalAppendLE(&bytes, static_cast<uint64_t>(record.action.attr.size()), 4);
      bytes.append(record.action.attr);
      WalAppendLE(&bytes, storage::PackDouble(record.action.value), 8);
    }
  }
  WalAppendLE(&bytes,
              storage::Fnv1a(reinterpret_cast<const uint8_t*>(bytes.data()),
                             bytes.size()),
              8);
  return storage::WriteFileAtomically(path, bytes, /*fsyncs=*/nullptr);
}

Status ActionInlet::RestoreLog(const std::string& path, int64_t tick) {
  std::ifstream in(path, std::ios::binary);
  std::lock_guard<std::mutex> lock(mu_);
  if (!queue_.empty()) {
    return Status::Invalid(
        "ActionInlet::RestoreLog: the queue still holds ", queue_.size(),
        " undrained action(s)");
  }
  log_.clear();
  if (!in.is_open()) return Status::OK();  // no saved log: a fresh inlet
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  auto read = [&bytes](size_t* pos, int n, uint64_t* out) -> bool {
    if (*pos + static_cast<size_t>(n) > bytes.size()) return false;
    uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[*pos + i]))
           << (8 * i);
    }
    *pos += static_cast<size_t>(n);
    *out = v;
    return true;
  };
  if (bytes.size() < sizeof(kInletMagic) + 2 + 4 + 8 ||
      std::memcmp(bytes.data(), kInletMagic, sizeof(kInletMagic)) != 0) {
    return Status::Invalid("ActionInlet::RestoreLog: ", path,
                           " is not an inlet log");
  }
  size_t pos = bytes.size() - 8;
  uint64_t checksum = 0;
  (void)read(&pos, 8, &checksum);
  if (storage::Fnv1a(reinterpret_cast<const uint8_t*>(bytes.data()),
                     bytes.size() - 8) != checksum) {
    return Status::Invalid("ActionInlet::RestoreLog: ", path,
                           " failed its checksum (corrupt log)");
  }
  pos = sizeof(kInletMagic);
  uint64_t version = 0;
  (void)read(&pos, 2, &version);
  if (version != kInletVersion) {
    return Status::Invalid("ActionInlet::RestoreLog: unsupported version ",
                           version);
  }
  uint64_t count = 0;
  (void)read(&pos, 4, &count);
  const size_t body_end = bytes.size() - 8;
  std::vector<InletRecord> records;
  records.reserve(count);
  int64_t max_seq = -1;
  for (uint64_t i = 0; i < count; ++i) {
    InletRecord record;
    uint64_t v = 0;
    if (!read(&pos, 8, &v)) {
      return Status::Invalid("ActionInlet::RestoreLog: truncated record ", i);
    }
    record.seq = static_cast<int64_t>(v);
    if (!read(&pos, 8, &v)) {
      return Status::Invalid("ActionInlet::RestoreLog: truncated record ", i);
    }
    record.tick = static_cast<int64_t>(v);
    if (!read(&pos, 8, &v)) {
      return Status::Invalid("ActionInlet::RestoreLog: truncated record ", i);
    }
    record.action.unit_key = static_cast<int64_t>(v);
    uint64_t op = 0;
    if (!read(&pos, 1, &op) || op > 1) {
      return Status::Invalid("ActionInlet::RestoreLog: bad op in record ", i);
    }
    record.action.op = static_cast<InjectedAction::Op>(op);
    uint64_t attr_len = 0;
    if (!read(&pos, 4, &attr_len) || pos + attr_len > body_end) {
      return Status::Invalid("ActionInlet::RestoreLog: truncated record ", i);
    }
    record.action.attr.assign(bytes, pos, attr_len);
    pos += attr_len;
    if (!read(&pos, 8, &v)) {
      return Status::Invalid("ActionInlet::RestoreLog: truncated record ", i);
    }
    record.action.value = storage::UnpackDouble(v);
    max_seq = std::max(max_seq, record.seq);
    records.push_back(std::move(record));
  }
  if (pos != body_end) {
    return Status::Invalid("ActionInlet::RestoreLog: ", path, " has ",
                           body_end - pos, " trailing byte(s)");
  }
  // Records already applied before the restored tick are history; those
  // at or after it re-queue (still pinned) so the re-executed ticks see
  // exactly the actions the original run did.
  for (InletRecord& record : records) {
    if (record.tick < tick) {
      log_.push_back(std::move(record));
    } else {
      queue_.push_back(std::move(record));
    }
  }
  next_seq_ = std::max(next_seq_, max_seq + 1);
  return Status::OK();
}

Status ActionInlet::DrainInto(EnvironmentTable* table, int64_t tick,
                              InletDrainStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  // Eligible entries form a queue prefix: live entries always apply, and
  // replay entries are pinned in ascending tick order. Stopping at the
  // first future-pinned entry preserves sequence order for everything
  // that does apply this tick.
  while (!queue_.empty()) {
    InletRecord& front = queue_.front();
    if (front.tick != InletRecord::kUnpinned) {
      if (front.tick > tick) break;
      if (front.tick < tick) {
        return Status::Internal(
            "ActionInlet: replay record seq ", front.seq, " is pinned to tick ",
            front.tick, " but the simulation is already at tick ", tick);
      }
    }
    if (Apply(front.action, table)) {
      ++applied_;
      ++stats->applied;
    } else {
      ++dropped_;
      ++stats->dropped;
    }
    front.tick = tick;
    log_.push_back(std::move(front));
    queue_.pop_front();
  }
  return Status::OK();
}

std::vector<InletRecord> ActionInlet::Log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

int64_t ActionInlet::applied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_;
}

int64_t ActionInlet::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool ActionInlet::Apply(const InjectedAction& action,
                        EnvironmentTable* table) {
  const RowId row = table->RowOf(action.unit_key);
  if (row < 0) return false;
  const AttrId attr = table->schema().Find(action.attr);
  if (attr == Schema::kInvalidAttr || attr == kKeyAttrId) return false;
  switch (action.op) {
    case InjectedAction::Op::kSet:
      table->Set(row, attr, action.value);
      return true;
    case InjectedAction::Op::kAdd:
      table->Set(row, attr, table->Get(row, attr) + action.value);
      return true;
  }
  return false;
}

}  // namespace serve
}  // namespace sgl
