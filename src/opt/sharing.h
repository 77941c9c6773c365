// Cross-unit aggregate sharing: the multi-query optimization layer that
// sits *above* the physical aggregate evaluators.
//
// The paper's central observation is that thousands of units issue the
// same or near-identical environment aggregates each tick. The physical
// layer already exploits half of that (aggregates that need the same
// index share one family's build); this module exploits the other half:
// most probes of an aggregate carry the same *probe values* too, so
// their results can be memoized per tick instead of recomputed per unit.
// Each aggregate declaration is classified once, at build time:
//
//   unit-invariant    no probe-side expression references the probing
//                     unit's attributes or the declaration's scalar
//                     parameters: the result is a pure function of the
//                     frozen tick-start environment. Compute once per
//                     tick, broadcast to every probing unit — across
//                     scripts (market's global supply/demand sums,
//                     epidemic's crowd centroid).
//
//   partition-keyed   the only unit-dependence flows through a small
//                     tuple of scalar probe values (partition values,
//                     range bounds, probe-filter outcomes — or, when the
//                     probe side references no unit attributes at all,
//                     just the scalar arguments). Memoize one result per
//                     distinct key in a per-tick table (market's
//                     poorest-buyer probe: every seller passes the same
//                     tick price).
//
//   per-unit          everything else (self-excluding divisible sums,
//                     nearest-neighbour probes from the unit's own
//                     position): today's path, untouched.
//
// Sharing changes *where* a result comes from, never what it is: every
// aggregate is deterministic in (probe key, environment) — random() is
// banned inside aggregate declarations — so a memo hit returns a value
// bit-identical to what the evaluator below would have produced.
// Concurrent shards fill the per-tick tables race-free through a
// publish-once slot per key: racing shards may compute the same value
// twice, but exactly one copy is published and both are identical, so
// simulations stay bit-exact for any worker-thread count with sharing on
// or off (SimulationConfig::sharing; tests/sharing_test.cc enforces it).
//
// Groups whose keys turn out to be nearly unique per unit (epidemic's
// per-position exposure boxes) are demoted to per-unit as soon as the
// probes prove it. The demotion signal is cumulative (calls, distinct
// keys) totals — pure counts, deterministic for any thread count, same
// rationale as the adaptive cost model's inputs (opt/cost.h); cumulative
// rather than per-tick so a group issuing only a handful of fresh-keyed
// calls per tick is caught too. Demotion also feeds
// the adaptive evaluator the right demand signal for free: the inner
// provider only sees memo *misses*, so a shared aggregate's per-family
// probe tally collapses to ~the distinct-key count and the cost model
// stops building indexes nobody probes.
#ifndef SGL_OPT_SHARING_H_
#define SGL_OPT_SHARING_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/signature.h"
#include "sgl/interpreter.h"

namespace sgl {

/// A set of fixed-width tuples of doubles (memo keys), stored flat with
/// open addressing; entries are numbered densely in insertion order.
/// Components compare with ==, like the probe values they hold: -0.0
/// equals 0.0, and a key holding a NaN never matches (each insertion
/// makes a fresh entry).
class KeyTable {
 public:
  /// Empty the table and fix the key width.
  void Reset(int32_t width);
  int32_t width() const { return width_; }
  int32_t size() const { return size_; }
  const double* Key(int32_t entry) const {
    return keys_.data() + static_cast<size_t>(entry) * width_;
  }
  /// Entry holding `key`, or -1.
  int32_t Find(const double* key) const;
  /// Entry holding `key`, adding it if absent (*added says which).
  int32_t FindOrAdd(const double* key, bool* added);

 private:
  /// The slot holding `key`, else the empty slot where it belongs.
  size_t SlotOf(const double* key) const;

  int32_t width_ = 0;
  int32_t size_ = 0;
  std::vector<double> keys_;    // size_ * width_
  std::vector<int32_t> slots_;  // entry or -1; a power of two, or empty
};

/// How one aggregate declaration's probe results may be shared.
enum class SharingClass { kPerUnit, kUnitInvariant, kPartitionKeyed };

const char* SharingClassName(SharingClass cls);

/// The classification verdict for one aggregate, plus the recipe for
/// building its memo key. Expression/condition pointers alias the
/// Script's AST and share its lifetime.
struct SharingPlan {
  SharingClass cls = SharingClass::kPerUnit;
  std::string reason;  // kPerUnit: why the aggregate cannot share

  /// kPartitionKeyed key recipe, in canonical order: probe-side scalar
  /// expressions (partition values, range bounds) evaluated with the
  /// probing unit bound, then probe-filter conditions as 0/1 components,
  /// then raw scalar-argument indices. The expressions and conditions
  /// are the signature's whole probe side (ProbeValues, probe_filters),
  /// so a VM batch's probe columns are the key. Unit-invariant plans
  /// have an empty recipe (a single slot per tick).
  std::vector<const Expr*> key_exprs;
  std::vector<const Cond*> key_conds;
  std::vector<int32_t> key_params;  // indices into Eval's scalar_args

  int32_t key_width() const {
    return static_cast<int32_t>(key_exprs.size() + key_conds.size() +
                                key_params.size());
  }
};

/// Classify aggregate `sig.agg_index` of `script`. Pure analysis; never
/// fails (anything unanalyzable is kPerUnit with a reason).
SharingPlan ClassifySharing(const Script& script,
                            const AggregateSignature& sig);

/// The per-simulation sharing state: dedup groups of structurally
/// identical aggregates (keyed by CanonicalAggregateFingerprint, so
/// identical declarations in different scripts join one group) and their
/// per-tick memo tables. Owned by Simulation; one instance serves every
/// script session.
///
/// A memo key is a fixed-width tuple of doubles (the group's recipe
/// width) and a memo value the aggregate's result doubles (its
/// AggregateResultWidth), both stored flat.
///
/// Thread safety: registration and BeginTick are build-time / tick-
/// prologue operations (single-threaded by construction); lookups and
/// publishes are called concurrently from the decision phase and
/// synchronize per group (shared lock to read, unique lock to publish).
class SharingContext {
 public:
  /// A fresh context binds its counters to a private metrics registry so
  /// standalone use (tests, tools) works unchanged; SimulationBuilder
  /// rebinds into the simulation's via BindMetrics.
  SharingContext();

  /// Join (or create) the dedup group for `canonical_key`, recording
  /// `member` ("script.aggregate") for EXPLAIN. All members of a group
  /// share classification by construction (the class is derived from the
  /// same structure the key canonicalizes), so `cls`/`reason` are simply
  /// recorded on first registration, as are the memo's key width and
  /// result width. Returns the group id.
  int32_t RegisterAggregate(const std::string& member,
                            const std::string& canonical_key,
                            SharingClass cls, const std::string& reason,
                            int32_t key_width, int32_t result_width);

  /// Size per-shard counters for up to `num_shards` concurrent callers
  /// (SimulationBuilder sets this to the thread count after every
  /// session has registered its aggregates).
  void set_num_shards(int32_t num_shards);

  /// Rebind every group's call/hit/entry counters (and the demotion
  /// counter) into `registry` under `prefix` (e.g. "sharing."). Counter
  /// names are "group<g>.calls" / ".hits" / ".entries" plus "demotions".
  /// Hits are flagged execution-dependent: a racing shard may compute a
  /// value another shard published first, so the hit/compute split can
  /// vary by a few counts across thread counts (calls and entries never
  /// do). SimulationBuilder calls this once, after registration and
  /// before any tick, while all counters are still zero.
  void BindMetrics(obs::MetricsRegistry* registry, const std::string& prefix);

  /// Emit "sharing.demote" instants to `tracer` (null = off).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Tick prologue: demote groups whose cumulative counts show
  /// near-unique keys, then clear every memo table (results are only
  /// valid against the frozen state of the tick that computed them).
  void BeginTick();

  /// True if `group` still memoizes (not per-unit, not demoted). Callers
  /// skip all sharing work — including the calls tally — once inactive.
  bool Active(int32_t group) const { return groups_[group]->active; }

  /// Per-tick memo probe of `num_keys` keys stored back to back, under
  /// one shared lock: found[j] is set, and result j copied to
  /// vals + j * result width, for each key already published. Tallies
  /// nothing — the caller reports its calls through Tally.
  void Lookup(int32_t group, const double* keys, int32_t num_keys,
              uint8_t* found, double* vals);

  /// Publish-once, under one unique lock: install each of `num_keys`
  /// results (keys and results back to back) unless another shard beat
  /// us to its key (both computed the identical result; the first wins).
  void Publish(int32_t group, const double* keys, int32_t num_keys,
               const double* vals);

  /// Record `calls` memo calls, `hits` of them served from the memo.
  void Tally(int32_t group, int64_t calls, int64_t hits, int32_t shard);

  int32_t NumGroups() const { return static_cast<int32_t>(groups_.size()); }
  int32_t num_shards() const { return num_shards_; }
  SharingClass GroupClass(int32_t group) const { return groups_[group]->cls; }
  const std::vector<std::string>& GroupMembers(int32_t group) const {
    return groups_[group]->members;
  }

  /// Cumulative memo hits across all groups (bench/test observability).
  /// Deterministic for single-threaded runs; with several workers a
  /// racing shard may compute a value another shard published first, so
  /// the split between hits and computes can vary by a few counts (the
  /// values, and the simulation, never do).
  int64_t shared_hits() const;

  /// Cumulative published memo entries (= distinct keys summed over
  /// ticks; deterministic for any thread count). Like shared_hits(), not
  /// meaningful mid-phase; read between ticks or after a run.
  int64_t memo_entries() const;

  /// The EXPLAIN "Sharing" block: one line per group with its class,
  /// members, call/hit/entry counters, and demotions.
  std::string Describe() const;

 private:
  struct Group {
    SharingClass cls = SharingClass::kPerUnit;
    std::string reason;
    std::vector<std::string> members;
    bool active = false;
    bool demoted = false;

    /// Counter handles into metrics_ (per-shard padded, so concurrent
    /// shards never contend on one slot). `entries` is bumped only under
    /// the group's unique lock, so its single slot 0 never races.
    obs::Counter* calls = nullptr;
    obs::Counter* hits = nullptr;
    obs::Counter* entries = nullptr;

    /// The per-tick memo: entry e's key is memo.Key(e), its result the
    /// result_width doubles at results[e * result_width].
    int32_t result_width = 1;
    std::shared_mutex mu;          // guards memo and results
    KeyTable memo;
    std::vector<double> results;
  };

  /// (Re)bind group `g`'s counters into metrics_ under prefix_.
  void BindGroup(int32_t g);

  int64_t GroupCalls(int32_t group) const;
  int64_t GroupHits(int32_t group) const;
  int64_t GroupEntries(int32_t group) const;

  std::unordered_map<std::string, int32_t> group_by_key_;
  std::vector<std::unique_ptr<Group>> groups_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::string prefix_;
  obs::Counter* demotions_ = nullptr;
  /// 0 until set_num_shards: Eval's shard bounds check then bypasses the
  /// memo entirely, preserving the unsized-context behavior.
  int32_t num_shards_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

/// The sharing decorator installed between the interpreter and the
/// session's physical aggregate evaluator: consults the per-tick memo
/// first and only forwards misses to `inner` (or, when `inner` is null —
/// the naive evaluator — to the interpreter's reference scan, which is
/// exactly what makes unit-invariant aggregates O(rows) *per tick*
/// instead of per probe under the naive evaluator too).
class SharingAggregateProvider : public AggregateProvider {
 public:
  /// `script`, `interp`, `inner` (optional), and `ctx` must outlive the
  /// provider. Registers every aggregate of `script` with `ctx` under
  /// `session_name` labels.
  static Result<std::unique_ptr<SharingAggregateProvider>> Create(
      const Script& script, const Interpreter& interp,
      AggregateProvider* inner, SharingContext* ctx,
      const std::string& session_name);

  Result<Value> Eval(int32_t agg_index, const std::vector<Value>& scalar_args,
                     RowId u_row, const EnvironmentTable& table,
                     const TickRandom& rnd, int32_t shard = 0) override;

  /// Key every active lane from the batch's columns (probe side or
  /// scalar arguments, per the plan's recipe — no AST walk), look each
  /// distinct key up once, and forward only the distinct misses to the
  /// inner provider as one sub-batch (the same columns under a sparser
  /// active mask). Calls and entries tally exactly as the per-lane calls
  /// would.
  Status EvalBatch(const AggBatch& batch, const EnvironmentTable& table,
                   const TickRandom& rnd, int32_t shard = 0) override;

  const SharingPlan& plan(int32_t agg_index) const {
    return plans_[agg_index];
  }
  int32_t group_of(int32_t agg_index) const { return group_of_[agg_index]; }

  /// True if any aggregate of the script can share (classified better
  /// than per-unit). When false the decorator would forward every call
  /// unchanged, so the builder skips installing it for this session —
  /// the classifications remain registered with the context for EXPLAIN.
  bool any_shared() const {
    for (const SharingPlan& p : plans_) {
      if (p.cls != SharingClass::kPerUnit) return true;
    }
    return false;
  }

 private:
  SharingAggregateProvider(const Script& script, const Interpreter& interp,
                           AggregateProvider* inner, SharingContext* ctx)
      : script_(&script), interp_(&interp), inner_(inner), ctx_(ctx) {}

  Result<Value> InnerEval(int32_t agg_index,
                          const std::vector<Value>& scalar_args, RowId u_row,
                          const EnvironmentTable& table, const TickRandom& rnd,
                          int32_t shard);
  Status InnerEvalBatch(const AggBatch& batch, const EnvironmentTable& table,
                        const TickRandom& rnd, int32_t shard);

  const Script* script_;
  const Interpreter* interp_;
  AggregateProvider* inner_;  // null: fall through to the reference scan
  SharingContext* ctx_;
  std::vector<SharingPlan> plans_;   // one per aggregate declaration
  std::vector<int32_t> group_of_;    // aggregate -> context group id
};

}  // namespace sgl

#endif  // SGL_OPT_SHARING_H_
