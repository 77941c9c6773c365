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
#include <vector>

#include "env/key_index.h"
#include "env/schema.h"
#include "util/status.h"

namespace sgl {

/// Row index within an EnvironmentTable. Invalidated by RemoveIf.
using RowId = int32_t;

/// The table's change window: the cells written since the window was last
/// cleared. It is open while a delta listener is attached
/// (storage_changes(), cleared by ClearStorageChanges()), and it is what
/// the durable store logs and writes to its pages at the end of each tick.
///
/// `dirty_rows` lists each written row once; `attr_mask(row)` says which
/// attributes of it changed (attribute a maps to bit min(a, 63), so
/// schemas wider than 64 attributes stay correct, merely coarser). While
/// the window is open it holds one mask per row, and RemoveIf compacts
/// the masks together with the rows, so a row index always names the same
/// unit as the table does.
struct TableChanges {
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

/// Observer of the table's structural mutations, keyed by unit key: the
/// storage layer logs them in occurrence order, so replay re-applies
/// them exactly. At most one listener per table; Clone() never copies
/// it. Attaching one also opens the change window.
class TableDeltaListener {
 public:
  virtual ~TableDeltaListener() = default;

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

  /// Make room for `rows` rows in total, so adding up to that many
  /// allocates nothing more.
  void Reserve(int32_t rows);

  int64_t KeyAt(RowId row) const { return keys_[row]; }

  /// Row holding `key`, or -1.
  RowId RowOf(int64_t key) const { return key_to_row_.Find(key); }
  bool HasKey(int64_t key) const { return RowOf(key) >= 0; }

  /// Read attribute `attr` of row `row`. Reading attr 0 returns the key.
  double Get(RowId row, AttrId attr) const {
    return attr == kKeyAttrId ? static_cast<double>(keys_[row])
                              : cols_[attr - 1][row];
  }

  /// Write a non-key attribute. A write that actually changes the stored
  /// value marks (row, attr) in the change window, if it is open.
  void Set(RowId row, AttrId attr, double value) {
    double& slot = cols_[attr - 1][row];
    if (listener_ != nullptr && slot != value) Mark(row, attr);
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
  /// inherits the delta listener or the change window: a listener
  /// observes exactly one live table, and clones are scratch copies by
  /// construction.
  EnvironmentTable Clone() const {
    EnvironmentTable copy = *this;
    copy.listener_ = nullptr;
    copy.storage_changes_ = TableChanges();
    return copy;
  }

  /// Exact equality of schema, keys and every attribute value.
  bool Equals(const EnvironmentTable& other) const;

  /// First row (if any) where tables differ, for test diagnostics.
  std::string DiffString(const EnvironmentTable& other) const;

  /// Render up to `max_rows` rows for debugging.
  std::string ToString(int32_t max_rows = 10) const;

  // --- delta listener and change window (the storage layer's feed) -------

  /// Attach (or with nullptr detach) the table's single delta listener.
  /// Either way the change window restarts empty; it stays open while a
  /// listener is attached.
  void SetDeltaListener(TableDeltaListener* listener);
  TableDeltaListener* delta_listener() const { return listener_; }

  /// Cell writes since the last ClearStorageChanges() (empty with no
  /// listener). The engine's tick never clears it: it spans inlet drains
  /// and writes made between ticks until storage has logged or
  /// checkpointed them.
  const TableChanges& storage_changes() const { return storage_changes_; }
  void ClearStorageChanges();

  /// The next auto-assigned key. Exposed so durable storage can carry it
  /// through checkpoints: RemoveIf never lowers it, so rebuilding a table
  /// from its rows alone would under-set it and desynchronize AddRow.
  int64_t next_key() const { return next_key_; }
  void SetNextKey(int64_t next_key) { next_key_ = next_key; }

 private:
  /// Slow path of Set for a value-changing write into the open window.
  void Mark(RowId row, AttrId attr) {
    uint64_t& mask = storage_changes_.masks[row];
    if (mask == 0) storage_changes_.dirty_rows.push_back(row);
    mask |= TableChanges::BitOf(attr);
  }

  Schema schema_;
  std::vector<int64_t> keys_;
  std::vector<std::vector<double>> cols_;  // cols_[i] is attribute i+1
  KeyIndex key_to_row_;
  int64_t next_key_ = 0;
  TableDeltaListener* listener_ = nullptr;
  TableChanges storage_changes_;  // the change window, open while listener_
};

}  // namespace sgl

#endif  // SGL_ENV_TABLE_H_
