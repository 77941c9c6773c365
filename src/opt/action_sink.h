// Indexed action application (Section 5.4: processing the ⊕ operator).
//
// The reference interpreter applies every perform by scanning E (the
// literal Eq. (4) semantics) — O(n) per action, O(n^2) per tick when many
// units act. This sink recognizes the two shapes that cover game actions:
//
//  * DIRECT-KEY updates: the where clause pins `e.key = expr(u)` (attacks
//    on a chosen target, self-moves). Applied with one hash lookup.
//  * AREA-OF-EFFECT updates: the where clause selects a constant-extent
//    box around the performer and the effect value does not depend on the
//    affected unit (the healer aura of Figure 5). Such performs are
//    deferred: the decision phase only records (center, value); then the
//    second index-building phase builds ONE index over the effect centers
//    per action type and every unit probes it once — max (sweep batch)
//    for nonstackable effects, sum (divisible range tree) for stackable
//    ones. Total cost O((n + a) log n) instead of O(n * a).
//
// Updates matching neither shape return unhandled and fall back to the
// interpreter's scan, preserving semantics.
#ifndef SGL_OPT_ACTION_SINK_H_
#define SGL_OPT_ACTION_SINK_H_

#include <memory>
#include <string>
#include <vector>

#include "opt/signature.h"
#include "sgl/interpreter.h"

namespace sgl {

class IndexedActionSink : public ActionSink {
 public:
  static Result<std::unique_ptr<IndexedActionSink>> Create(
      const Script& script, const Interpreter& interp);

  /// Called by the interpreter for each perform during the decision phase.
  /// Concurrent callers pass distinct `shard` ids; each shard owns a
  /// private deferred-AOE batch, merged in shard order by FlushDeferred so
  /// the batch sequence (and hence every deterministic tie-break keyed on
  /// batch position) matches sequential execution exactly.
  Result<bool> Perform(int32_t action_index,
                       const std::vector<Value>& scalar_args, RowId u_row,
                       const EnvironmentTable& table, const TickRandom& rnd,
                       EffectSink* buffer, int32_t shard = 0) override;

  /// Phase "index build 2" + AOE application: build the per-action-type
  /// effect-center indexes and fold every deferred area effect into
  /// `buffer`. Must be called once after the decision phase.
  Status FlushDeferred(const EnvironmentTable& table, const TickRandom& rnd,
                       EffectBuffer* buffer);

  /// Size the per-shard deferred batches for up to `num_shards` concurrent
  /// performers (SimulationBuilder sets this to the thread count).
  void set_num_shards(int32_t num_shards);

  /// EXPLAIN: strategy chosen per action update statement.
  std::string DescribePlan() const;

 private:
  IndexedActionSink(const Script& script, const Interpreter& interp)
      : script_(&script), interp_(&interp) {}

  /// One deferred AOE perform; the performer is implied by batch order.
  struct Pending {
    double cx = 0.0, cy = 0.0;
    std::vector<double> part_values;  // evaluated partition expressions
    std::vector<double> set_values;   // evaluated set-item values
    std::vector<double> set_prios;    // parallel (kSetPriority only)
  };

  /// Deferred AOE performs, indexed [action][update].
  using PendingBatches = std::vector<std::vector<std::vector<Pending>>>;

  enum class UpdateKind {
    kDirectKey,  // e.key = expr(u): one row lookup
    kAOE,        // constant-extent box around the performer, u-only values
    kFallback,   // interpreter scan
  };

  /// Classification of one update statement of one action.
  struct UpdatePlan {
    UpdateKind kind = UpdateKind::kFallback;
    std::string reason;  // why fallback

    // kDirectKey: the key expression and the residual conjuncts checked
    // against the looked-up row.
    const Expr* key_expr = nullptr;
    std::vector<const Cond*> residual;
    // Conjuncts over the performer alone, checked once per perform.
    std::vector<const Cond*> performer_filters;

    // kAOE: box offsets around (posx, posy) — e.posx in
    // [u.posx - lo_x_off, u.posx + hi_x_off], likewise y; partition
    // equalities e.attr = expr(u); e-only conjuncts checked per affected
    // unit at probe time.
    double lo_x_off = 0.0, hi_x_off = 0.0;
    double lo_y_off = 0.0, hi_y_off = 0.0;
    std::vector<PartitionDim> partitions;
    std::vector<const Cond*> unit_filters;  // e-only residuals
  };

  struct ActionPlans {
    std::vector<UpdatePlan> updates;  // parallel to decl.updates
    bool all_handled = false;         // every update is non-fallback
  };

  Status ClassifyAction(int32_t action_index);
  Status ApplyDirectKey(const UpdatePlan& plan, const UpdateStmt& update,
                        const ActionDecl& decl,
                        const std::vector<Value>& scalar_args, RowId u_row,
                        const EnvironmentTable& table, const TickRandom& rnd,
                        EffectSink* buffer) const;

  /// Concatenate every shard's batches into pending_ in shard index order
  /// (chunks cover ascending row ranges, so this reproduces the
  /// sequential perform order bit for bit).
  void MergePendingShards();

  const Script* script_;
  const Interpreter* interp_;
  std::vector<ActionPlans> plans_;  // per action declaration
  // pending_[action][update] — this tick's merged deferred AOE performs.
  PendingBatches pending_;
  // pending_shards_[shard] — each concurrent performer's private batches.
  std::vector<PendingBatches> pending_shards_;
  AttrId posx_attr_ = Schema::kInvalidAttr;
  AttrId posy_attr_ = Schema::kInvalidAttr;
};

}  // namespace sgl

#endif  // SGL_OPT_ACTION_SINK_H_
