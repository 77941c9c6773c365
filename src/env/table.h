// The environment table E: one row per unit, columnar storage.
//
// The paper models game state as a single relation E (Section 4). We store
// it column-wise: aggregate-index construction (Section 5.3) consumes whole
// columns, and the decision phase touches only a few attributes per unit,
// so a columnar layout is both the natural database choice and the faster
// one. All attribute values are doubles; unit keys are int64 and unique.
// Simulations that want bit-exact reproducibility across evaluators keep
// aggregate inputs integer-valued (see DESIGN.md "Determinism").
#ifndef SGL_ENV_TABLE_H_
#define SGL_ENV_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "env/schema.h"
#include "util/status.h"

namespace sgl {

/// Row index within an EnvironmentTable. Invalidated by RemoveIf.
using RowId = int32_t;

/// The table's record of what changed since the last ClearChanges() — the
/// tick's delta log, consumed by the adaptive evaluator to decide between
/// rebuilding an index family from scratch and applying the delta to it.
///
/// `dirty_rows` lists each written row once, in first-write order;
/// `attr_mask(row)` says which attributes of it changed (attribute a maps
/// to bit min(a, 63), so schemas wider than 64 attributes stay correct,
/// merely coarser). `structural` is set by any row addition or removal:
/// RowIds are no longer comparable across the change window, so consumers
/// must fall back to a full rebuild.
struct TableChanges {
  bool structural = false;
  std::vector<RowId> dirty_rows;

  uint64_t attr_mask(RowId row) const {
    return row < static_cast<RowId>(masks.size()) ? masks[row] : 0;
  }

  static uint64_t BitOf(AttrId attr) {
    return uint64_t{1} << (attr < 63 ? attr : 63);
  }

  // Implementation state (public for EnvironmentTable's inline writers).
  std::vector<uint64_t> masks;  // indexed by row; 0 = clean
};

/// Observer of individual table mutations, keyed by unit key — the
/// storage layer's WAL record source (src/storage/world_store.h). Unlike
/// TableChanges (row-indexed, coarsened to one mask per row), listener
/// events carry unit keys and fire in mutation order, so structural ops
/// replay exactly and cell deltas survive RemoveIf's row compaction.
/// At most one listener per table; Clone() never copies it.
class TableDeltaListener {
 public:
  virtual ~TableDeltaListener() = default;

  /// A Set (or ResetEffects) changed the stored value of (key, attr).
  virtual void OnCellWrite(int64_t key, AttrId attr) = 0;

  /// A row was appended at `row` with `values` (attrs 1..k).
  virtual void OnAddRow(int64_t key, RowId row,
                        const std::vector<double>& values) = 0;

  /// RemoveIf dropped `keys` (ascending pre-compaction row order);
  /// `first_row` is the smallest removed row index before compaction.
  virtual void OnRemoveRows(RowId first_row,
                            const std::vector<int64_t>& keys) = 0;
};

/// Columnar multiset of unit tuples with unique keys.
class EnvironmentTable {
 public:
  explicit EnvironmentTable(Schema schema);

  const Schema& schema() const { return schema_; }
  int32_t NumRows() const { return static_cast<int32_t>(keys_.size()); }

  /// Append a unit with an auto-assigned key. `values` holds attributes
  /// 1..k (everything but the key), in schema order. Effect attributes are
  /// normally passed as their combine identity. Returns the new key.
  Result<int64_t> AddRow(const std::vector<double>& values);

  /// Append a unit with an explicit key (must be unused).
  Status AddRowWithKey(int64_t key, const std::vector<double>& values);

  int64_t KeyAt(RowId row) const { return keys_[row]; }

  /// Row holding `key`, or -1.
  RowId RowOf(int64_t key) const {
    auto it = key_to_row_.find(key);
    return it == key_to_row_.end() ? -1 : it->second;
  }
  bool HasKey(int64_t key) const { return RowOf(key) >= 0; }

  /// Read attribute `attr` of row `row`. Reading attr 0 returns the key.
  double Get(RowId row, AttrId attr) const {
    return attr == kKeyAttrId ? static_cast<double>(keys_[row])
                              : cols_[attr - 1][row];
  }

  /// Write a non-key attribute. With change tracking enabled, a write that
  /// actually changes the stored value marks (row, attr) dirty; a delta
  /// listener additionally observes it keyed by unit key.
  void Set(RowId row, AttrId attr, double value) {
    double& slot = cols_[attr - 1][row];
    if (watched_ && slot != value) NoteWrite(row, attr);
    slot = value;
  }

  /// Column accessor for index builders (attr must not be the key).
  const std::vector<double>& Column(AttrId attr) const {
    return cols_[attr - 1];
  }
  const std::vector<int64_t>& Keys() const { return keys_; }

  /// Reset every effect attribute to its combine identity — the start-of-
  /// tick initialization of the auxiliary attributes (Section 4.3).
  void ResetEffects();

  /// Remove all rows where `pred(row)` is true; compacts in place and
  /// preserves the relative order of survivors. Returns removed count.
  int32_t RemoveIf(const std::function<bool(RowId)>& pred);

  /// Deep copy (used by the equivalence test harness). The copy never
  /// inherits the delta listener: a listener observes exactly one live
  /// table, and clones are scratch copies by construction.
  EnvironmentTable Clone() const {
    EnvironmentTable copy = *this;
    copy.listener_ = nullptr;
    copy.watched_ = copy.tracking_;
    return copy;
  }

  /// Exact equality of schema, keys and every attribute value.
  bool Equals(const EnvironmentTable& other) const;

  /// First row (if any) where tables differ, for test diagnostics.
  std::string DiffString(const EnvironmentTable& other) const;

  /// Render up to `max_rows` rows for debugging.
  std::string ToString(int32_t max_rows = 10) const;

  // --- change tracking (the adaptive evaluator's delta log) ---------------

  /// Start recording writes. Until the first ClearChanges() the log reports
  /// a structural change, so consumers begin from a full rebuild.
  void EnableChangeTracking();
  bool change_tracking_enabled() const { return tracking_; }

  /// What changed since the last ClearChanges() (empty when disabled).
  const TableChanges& changes() const { return changes_; }

  /// Forget the recorded changes (end of the consumer's change window).
  void ClearChanges();

  /// Force the next change window to report a structural change (used when
  /// the table is wholesale replaced, e.g. snapshot restore).
  void MarkStructuralChange() {
    if (tracking_) changes_.structural = true;
  }

  // --- delta listener (the storage layer's WAL feed) ----------------------

  /// Attach (or with nullptr detach) the table's single delta listener.
  void SetDeltaListener(TableDeltaListener* listener) {
    listener_ = listener;
    watched_ = tracking_ || listener_ != nullptr;
  }
  TableDeltaListener* delta_listener() const { return listener_; }

  /// The next auto-assigned key. Exposed so durable storage can carry it
  /// through checkpoints: RemoveIf never lowers it, so rebuilding a table
  /// from its rows alone would under-set it and desynchronize AddRow.
  int64_t next_key() const { return next_key_; }
  void SetNextKey(int64_t next_key) { next_key_ = next_key; }

 private:
  void NoteDirty(RowId row, AttrId attr);

  /// Slow path of Set for a value-changing write: dirty-mark and/or
  /// notify the listener, whichever of the two is active.
  void NoteWrite(RowId row, AttrId attr);

  Schema schema_;
  std::vector<int64_t> keys_;
  std::vector<std::vector<double>> cols_;  // cols_[i] is attribute i+1
  std::unordered_map<int64_t, RowId> key_to_row_;
  int64_t next_key_ = 0;
  bool tracking_ = false;
  bool watched_ = false;  // tracking_ || listener_ — the Set hot-path gate
  TableDeltaListener* listener_ = nullptr;
  TableChanges changes_;
};

}  // namespace sgl

#endif  // SGL_ENV_TABLE_H_
