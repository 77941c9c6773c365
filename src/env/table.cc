#include "env/table.h"

#include <algorithm>
#include <sstream>

#include "util/string_util.h"

namespace sgl {

EnvironmentTable::EnvironmentTable(Schema schema) : schema_(std::move(schema)) {
  cols_.resize(schema_.NumAttrs() - 1);
}

Result<int64_t> EnvironmentTable::AddRow(const std::vector<double>& values) {
  int64_t key = next_key_++;
  SGL_RETURN_NOT_OK(AddRowWithKey(key, values));
  return key;
}

Status EnvironmentTable::AddRowWithKey(int64_t key,
                                       const std::vector<double>& values) {
  if (static_cast<int32_t>(values.size()) != schema_.NumAttrs() - 1) {
    return Status::Invalid("AddRow: expected ", schema_.NumAttrs() - 1,
                           " values, got ", values.size());
  }
  if (key_to_row_.Find(key) >= 0) {
    return Status::AlreadyExists("key ", key, " already present");
  }
  RowId row = NumRows();
  keys_.push_back(key);
  for (size_t c = 0; c < cols_.size(); ++c) cols_[c].push_back(values[c]);
  key_to_row_.Put(key, row);
  next_key_ = std::max(next_key_, key + 1);
  if (listener_ != nullptr) {
    storage_changes_.masks.push_back(0);
    listener_->OnAddRow(key, row, values);
  }
  return Status::OK();
}

void EnvironmentTable::Reserve(int32_t rows) {
  keys_.reserve(rows);
  for (std::vector<double>& col : cols_) col.reserve(rows);
  key_to_row_.Reserve(rows);
  if (listener_ != nullptr) storage_changes_.masks.reserve(rows);
}

void EnvironmentTable::ResetEffects() {
  // Example 4.1's post-processing re-initializes every auxiliary attribute
  // to 0 (not to the aggregate identity): the unit's own row then
  // contributes 0 to the `⊕ E` of Eq. (6), which is what makes an
  // effect-free tick a no-op even for max/min-tagged attributes.
  for (AttrId a : schema_.EffectAttrs()) {
    std::vector<double>& col = cols_[a - 1];
    if (listener_ != nullptr) {
      for (RowId r = 0; r < NumRows(); ++r) {
        if (col[r] != 0.0) Mark(r, a);
      }
    }
    std::fill(col.begin(), col.end(), 0.0);
  }
}

void EnvironmentTable::SetDeltaListener(TableDeltaListener* listener) {
  listener_ = listener;
  storage_changes_ = TableChanges();
  if (listener_ != nullptr) storage_changes_.masks.assign(keys_.size(), 0);
}

void EnvironmentTable::ClearStorageChanges() {
  for (RowId r : storage_changes_.dirty_rows) storage_changes_.masks[r] = 0;
  storage_changes_.dirty_rows.clear();
}

int32_t EnvironmentTable::RemoveIf(const std::function<bool(RowId)>& pred) {
  int32_t n = NumRows();
  RowId out = 0;
  RowId first_removed = -1;
  std::vector<int64_t> removed_keys;
  for (RowId in = 0; in < n; ++in) {
    if (pred(in)) {
      key_to_row_.Erase(keys_[in]);
      if (listener_ != nullptr) {
        if (first_removed < 0) first_removed = in;
        removed_keys.push_back(keys_[in]);
      }
      continue;
    }
    if (out != in) {
      keys_[out] = keys_[in];
      for (auto& col : cols_) col[out] = col[in];
      key_to_row_.Put(keys_[out], out);
      if (listener_ != nullptr) {
        storage_changes_.masks[out] = storage_changes_.masks[in];
      }
    }
    ++out;
  }
  if (out == n) return 0;
  keys_.resize(out);
  for (auto& col : cols_) col.resize(out);
  if (listener_ != nullptr) {
    // The surviving masks moved down with their rows: drop the tail and
    // relist the dirty rows.
    storage_changes_.masks.resize(out);
    storage_changes_.dirty_rows.clear();
    for (RowId r = 0; r < out; ++r) {
      if (storage_changes_.masks[r] != 0) {
        storage_changes_.dirty_rows.push_back(r);
      }
    }
    listener_->OnRemoveRows(first_removed, removed_keys);
  }
  return n - out;
}

bool EnvironmentTable::Equals(const EnvironmentTable& other) const {
  if (!(schema_ == other.schema_)) return false;
  if (keys_ != other.keys_) return false;
  return cols_ == other.cols_;
}

std::string EnvironmentTable::DiffString(const EnvironmentTable& other) const {
  if (!(schema_ == other.schema_)) return "schemas differ";
  if (NumRows() != other.NumRows()) {
    return "row counts differ: " + std::to_string(NumRows()) + " vs " +
           std::to_string(other.NumRows());
  }
  for (RowId r = 0; r < NumRows(); ++r) {
    if (keys_[r] != other.keys_[r]) {
      return "row " + std::to_string(r) + ": key " + std::to_string(keys_[r]) +
             " vs " + std::to_string(other.keys_[r]);
    }
    for (AttrId a = 1; a < schema_.NumAttrs(); ++a) {
      if (Get(r, a) != other.Get(r, a)) {
        return "row " + std::to_string(r) + " (key " +
               std::to_string(keys_[r]) + ") attr '" + schema_.attr(a).name +
               "': " + FormatDouble(Get(r, a), 9) + " vs " +
               FormatDouble(other.Get(r, a), 9);
      }
    }
  }
  return "";
}

std::string EnvironmentTable::ToString(int32_t max_rows) const {
  std::ostringstream os;
  os << schema_.ToString() << ", " << NumRows() << " rows\n";
  int32_t shown = std::min(max_rows, NumRows());
  for (RowId r = 0; r < shown; ++r) {
    os << "  [" << keys_[r] << "]";
    for (AttrId a = 1; a < schema_.NumAttrs(); ++a) {
      os << " " << schema_.attr(a).name << "=" << FormatDouble(Get(r, a), 2);
    }
    os << "\n";
  }
  if (shown < NumRows()) os << "  ... (" << NumRows() - shown << " more)\n";
  return os.str();
}

}  // namespace sgl
