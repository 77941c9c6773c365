#include "opt/sharing.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>

namespace sgl {

namespace {

/// Probe calls a group must accumulate before its hit rate is judged;
/// below this a scan's worth of memo misses cannot hurt.
constexpr int64_t kDemotionMinCalls = 64;

/// Does the expression/condition reference the tuple variable `name`?
/// Thin wrappers over the signature module's side-use analysis (empty
/// e-alias and param list restrict it to exactly that question), so the
/// sharing classifier and the signature extractor can never drift apart
/// on what counts as a variable reference.
bool ExprUsesTuple(const Expr& e, const std::string& name) {
  return AnalyzeExprUse(e, name, "", {}).uses_u;
}

bool CondUsesTuple(const Cond& c, const std::string& name) {
  return AnalyzeCondUse(c, name, "", {}).uses_u;
}

void CollectParamRefs(const Expr& e, const std::vector<std::string>& params,
                      std::vector<bool>* used) {
  if (e.kind == ExprKind::kVarRef) {
    for (size_t i = 0; i < params.size(); ++i) {
      if (params[i] == e.name) (*used)[i] = true;
    }
  }
  for (const ExprPtr& a : e.args) {
    if (a) CollectParamRefs(*a, params, used);
  }
}

void CollectParamRefsCond(const Cond& c,
                          const std::vector<std::string>& params,
                          std::vector<bool>* used) {
  if (c.lhs) CollectParamRefs(*c.lhs, params, used);
  if (c.rhs) CollectParamRefs(*c.rhs, params, used);
  if (c.left) CollectParamRefsCond(*c.left, params, used);
  if (c.right) CollectParamRefsCond(*c.right, params, used);
}

}  // namespace

const char* SharingClassName(SharingClass cls) {
  switch (cls) {
    case SharingClass::kPerUnit: return "per-unit";
    case SharingClass::kUnitInvariant: return "unit-invariant";
    case SharingClass::kPartitionKeyed: return "partition-keyed";
  }
  return "?";
}

SharingPlan ClassifySharing(const Script& script,
                            const AggregateSignature& sig) {
  const AggregateDecl& decl = script.program.aggregates[sig.agg_index];
  const std::string& u = decl.params[0];
  const std::vector<std::string> params(decl.params.begin() + 1,
                                        decl.params.end());
  SharingPlan plan;
  auto per_unit = [&](std::string reason) {
    plan.cls = SharingClass::kPerUnit;
    plan.reason = std::move(reason);
    plan.key_exprs.clear();
    plan.key_conds.clear();
    plan.key_params.clear();
    return plan;
  };
  // Referenced scalar parameters become raw key components; unused ones
  // cannot influence the result and stay out of the key.
  auto params_to_key = [&](const std::vector<bool>& used) {
    for (size_t i = 0; i < used.size(); ++i) {
      if (used[i]) plan.key_params.push_back(static_cast<int32_t>(i));
    }
    plan.cls = plan.key_params.empty() ? SharingClass::kUnitInvariant
                                       : SharingClass::kPartitionKeyed;
    return plan;
  };

  if (sig.kind == IndexKind::kKdNearest) {
    return per_unit("nearest probes from the unit's own position");
  }
  if (sig.exclude_self) {
    return per_unit("self-excluding: subtracts the probing unit's own "
                    "contribution");
  }

  if (sig.kind == IndexKind::kNaive) {
    // No probe/build decomposition exists: the reference scan may use the
    // unit anywhere, so analyze the whole declaration.
    for (const AggItem& item : decl.items) {
      if (item.func == AggFunc::kNearest) {
        return per_unit("nearest probes from the unit's own position");
      }
    }
    bool uses_u = CondUsesTuple(*decl.where, u);
    for (const AggItem& item : decl.items) {
      if (item.term && ExprUsesTuple(*item.term, u)) uses_u = true;
    }
    if (uses_u) {
      return per_unit("references the probing unit's attributes");
    }
    std::vector<bool> used(params.size(), false);
    CollectParamRefsCond(*decl.where, params, &used);
    for (const AggItem& item : decl.items) {
      if (item.term) CollectParamRefs(*item.term, params, &used);
    }
    return params_to_key(used);
  }

  // Indexable kinds: unit-dependence can only flow through the probe side
  // of the signature — build filters and terms are e-only by construction
  // (a u-dependent term already forced the naive fallback).
  bool any_u = false;
  auto check_expr = [&](const Expr* e) {
    if (e != nullptr && ExprUsesTuple(*e, u)) any_u = true;
  };
  for (const PartitionDim& p : sig.partitions) check_expr(p.value);
  for (const RangeDim& r : sig.ranges) {
    check_expr(r.lo);
    check_expr(r.hi);
  }
  for (const Cond* f : sig.probe_filters) {
    if (CondUsesTuple(*f, u)) any_u = true;
  }

  if (any_u) {
    // Key on the evaluated probe values: two units with equal partition
    // values, range bounds, and probe-filter outcomes get equal results
    // (the probe algorithm consumes nothing else once self-exclusion is
    // ruled out above).
    plan.key_exprs = sig.ProbeValues();
    plan.key_conds = sig.probe_filters;
    plan.cls = SharingClass::kPartitionKeyed;
    return plan;
  }

  // No unit attributes anywhere on the probe side: the scalar arguments
  // alone determine the probe, so key on the referenced ones directly
  // (cheaper than re-evaluating bound expressions per call).
  std::vector<bool> used(params.size(), false);
  for (const PartitionDim& p : sig.partitions) {
    CollectParamRefs(*p.value, params, &used);
  }
  for (const RangeDim& r : sig.ranges) {
    if (r.lo != nullptr) CollectParamRefs(*r.lo, params, &used);
    if (r.hi != nullptr) CollectParamRefs(*r.hi, params, &used);
  }
  for (const Cond* f : sig.probe_filters) {
    CollectParamRefsCond(*f, params, &used);
  }
  return params_to_key(used);
}

// ----------------------------------------------------------- SharingContext

namespace {

uint64_t HashKey(const double* key, int32_t width) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (int32_t i = 0; i < width; ++i) {
    uint64_t bits = 0;
    if (key[i] != 0.0) std::memcpy(&bits, &key[i], sizeof(bits));  // -0 == 0
    h ^= bits;
    h *= 1099511628211ull;
  }
  // Open addressing uses the low bits, which FNV leaves poorly mixed for
  // integral doubles (zero low mantissa bits): finish with a full mixer.
  return Mix64(h);
}

bool KeysEqual(const double* a, const double* b, int32_t width) {
  for (int32_t i = 0; i < width; ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

}  // namespace

void KeyTable::Reset(int32_t width) {
  width_ = width;
  size_ = 0;
  keys_.clear();
  std::fill(slots_.begin(), slots_.end(), -1);
}

size_t KeyTable::SlotOf(const double* key) const {
  const size_t mask = slots_.size() - 1;
  size_t s = HashKey(key, width_) & mask;
  while (slots_[s] >= 0 && !KeysEqual(Key(slots_[s]), key, width_)) {
    s = (s + 1) & mask;
  }
  return s;
}

int32_t KeyTable::Find(const double* key) const {
  return slots_.empty() ? -1 : slots_[SlotOf(key)];
}

int32_t KeyTable::FindOrAdd(const double* key, bool* added) {
  if (static_cast<size_t>(size_ + 1) * 2 > slots_.size()) {
    // Grow to keep the load factor at most 1/2, re-slotting every entry.
    slots_.assign(std::max<size_t>(16, slots_.size() * 2), -1);
    for (int32_t e = 0; e < size_; ++e) slots_[SlotOf(Key(e))] = e;
  }
  const size_t s = SlotOf(key);
  *added = slots_[s] < 0;
  if (*added) {
    slots_[s] = size_++;
    keys_.insert(keys_.end(), key, key + width_);
  }
  return slots_[s];
}

SharingContext::SharingContext()
    : own_metrics_(std::make_unique<obs::MetricsRegistry>()),
      metrics_(own_metrics_.get()),
      prefix_("sharing.") {
  demotions_ = metrics_->GetCounter(prefix_ + "demotions", obs::kMetricNone);
}

void SharingContext::BindGroup(int32_t g) {
  const std::string base = prefix_ + "group" + std::to_string(g) + ".";
  Group& group = *groups_[g];
  // Calls and entries are pure per-probe / distinct-key counts —
  // deterministic for any thread count. Hits are not: see BindMetrics.
  group.calls = metrics_->GetCounter(base + "calls", obs::kMetricNone);
  group.hits =
      metrics_->GetCounter(base + "hits", obs::kMetricExecDependent);
  group.entries = metrics_->GetCounter(base + "entries", obs::kMetricNone);
}

int32_t SharingContext::RegisterAggregate(const std::string& member,
                                          const std::string& canonical_key,
                                          SharingClass cls,
                                          const std::string& reason,
                                          int32_t key_width,
                                          int32_t result_width) {
  auto [it, inserted] = group_by_key_.emplace(
      canonical_key, static_cast<int32_t>(groups_.size()));
  if (inserted) {
    auto group = std::make_unique<Group>();
    group->cls = cls;
    group->reason = reason;
    group->active = cls != SharingClass::kPerUnit;
    group->memo.Reset(key_width);
    group->result_width = result_width;
    groups_.push_back(std::move(group));
    BindGroup(it->second);
  }
  groups_[it->second]->members.push_back(member);
  return it->second;
}

void SharingContext::set_num_shards(int32_t num_shards) {
  num_shards_ = num_shards < 1 ? 1 : num_shards;
  metrics_->SetNumShards(num_shards_);
}

void SharingContext::BindMetrics(obs::MetricsRegistry* registry,
                                 const std::string& prefix) {
  metrics_ = registry;
  prefix_ = prefix;
  demotions_ = metrics_->GetCounter(prefix_ + "demotions", obs::kMetricNone);
  for (size_t g = 0; g < groups_.size(); ++g) {
    BindGroup(static_cast<int32_t>(g));
  }
}

int64_t SharingContext::GroupCalls(int32_t group) const {
  return groups_[group]->calls->value();
}

int64_t SharingContext::GroupHits(int32_t group) const {
  return groups_[group]->hits->value();
}

int64_t SharingContext::GroupEntries(int32_t group) const {
  return groups_[group]->entries->value();
}

int64_t SharingContext::shared_hits() const {
  int64_t total = 0;
  for (const auto& group : groups_) total += group->hits->value();
  return total;
}

int64_t SharingContext::memo_entries() const {
  int64_t total = 0;
  for (const auto& group : groups_) total += group->entries->value();
  return total;
}

void SharingContext::BeginTick() {
  for (size_t g = 0; g < groups_.size(); ++g) {
    Group& group = *groups_[g];
    if (!group.active) continue;
    // Demotion: once enough probes prove the keys nearly unique (>75%
    // distinct), memoization costs more than it saves. The counts are
    // cumulative so low-rate groups (a handful of calls per tick, every
    // key fresh) get caught too, and they are pure per-tick totals, so
    // the verdict is identical for any worker-thread count.
    const int64_t calls = GroupCalls(static_cast<int32_t>(g));
    const int64_t entries = group.entries->value();
    if (group.cls == SharingClass::kPartitionKeyed &&
        calls >= kDemotionMinCalls && entries * 4 > calls * 3) {
      group.active = false;
      group.demoted = true;
      std::ostringstream os;
      os << "demoted: keys nearly unique per probe (" << entries
         << " distinct keys over " << calls << " calls)";
      group.reason = os.str();
      demotions_->Add(1);
      if (tracer_ != nullptr) {
        char args[128];
        std::snprintf(args, sizeof(args),
                      "{\"group\":%d,\"entries\":%lld,\"calls\":%lld}",
                      static_cast<int32_t>(g), static_cast<long long>(entries),
                      static_cast<long long>(calls));
        tracer_->Instant("sharing.demote", 0, 0, args);
      }
    }
    // Memoized results are only valid against the frozen state of the
    // tick that computed them. Single-threaded here (tick prologue), so
    // no lock is needed.
    group.memo.Reset(group.memo.width());
    group.results.clear();
  }
}

void SharingContext::Lookup(int32_t group_id, const double* keys,
                            int32_t num_keys, uint8_t* found, double* vals) {
  Group& group = *groups_[group_id];
  const int32_t w = group.memo.width();
  const int32_t r = group.result_width;
  std::shared_lock<std::shared_mutex> lock(group.mu);
  for (int32_t j = 0; j < num_keys; ++j) {
    const int32_t e = group.memo.Find(keys + static_cast<size_t>(j) * w);
    found[j] = e >= 0;
    if (e >= 0) {
      const double* src = group.results.data() + static_cast<size_t>(e) * r;
      std::copy(src, src + r, vals + static_cast<size_t>(j) * r);
    }
  }
}

void SharingContext::Publish(int32_t group_id, const double* keys,
                             int32_t num_keys, const double* vals) {
  Group& group = *groups_[group_id];
  const int32_t w = group.memo.width();
  const int32_t r = group.result_width;
  std::unique_lock<std::shared_mutex> lock(group.mu);
  // Publish-once: if a racing shard installed a key first, its result is
  // bit-identical (aggregates are deterministic in (key, table)) and this
  // copy is simply dropped.
  int64_t added = 0;
  for (int32_t j = 0; j < num_keys; ++j) {
    bool fresh = false;
    group.memo.FindOrAdd(keys + static_cast<size_t>(j) * w, &fresh);
    if (!fresh) continue;
    const double* src = vals + static_cast<size_t>(j) * r;
    group.results.insert(group.results.end(), src, src + r);
    ++added;
  }
  if (added != 0) group.entries->Add(added);
}

void SharingContext::Tally(int32_t group_id, int64_t calls, int64_t hits,
                           int32_t shard) {
  Group& group = *groups_[group_id];
  group.calls->Add(calls, shard);
  if (hits != 0) group.hits->Add(hits, shard);
}

std::string SharingContext::Describe() const {
  std::ostringstream os;
  os << "Aggregate sharing (" << groups_.size()
     << " dedup groups, per-tick memoization):\n";
  for (size_t g = 0; g < groups_.size(); ++g) {
    const Group& group = *groups_[g];
    os << "  group " << g << " [" << SharingClassName(group.cls);
    if (group.demoted) os << ", demoted";
    os << "] ";
    for (size_t m = 0; m < group.members.size(); ++m) {
      if (m > 0) os << " = ";
      os << group.members[m];
    }
    if (group.cls == SharingClass::kPerUnit || group.demoted) {
      os << ": " << group.reason;
    }
    if (group.cls != SharingClass::kPerUnit) {
      os << ": calls " << GroupCalls(static_cast<int32_t>(g)) << ", hits "
         << GroupHits(static_cast<int32_t>(g)) << ", entries "
         << GroupEntries(static_cast<int32_t>(g));
    }
    os << "\n";
  }
  return os.str();
}

// -------------------------------------------------- SharingAggregateProvider

Result<std::unique_ptr<SharingAggregateProvider>>
SharingAggregateProvider::Create(const Script& script,
                                 const Interpreter& interp,
                                 AggregateProvider* inner, SharingContext* ctx,
                                 const std::string& session_name) {
  std::unique_ptr<SharingAggregateProvider> provider(
      new SharingAggregateProvider(script, interp, inner, ctx));
  const int32_t num_aggs =
      static_cast<int32_t>(script.program.aggregates.size());
  provider->plans_.reserve(num_aggs);
  provider->group_of_.reserve(num_aggs);
  for (int32_t a = 0; a < num_aggs; ++a) {
    SGL_ASSIGN_OR_RETURN(AggregateSignature sig, ExtractSignature(script, a));
    SharingPlan plan = ClassifySharing(script, sig);
    const std::string member =
        session_name + "." + script.program.aggregates[a].name;
    provider->group_of_.push_back(ctx->RegisterAggregate(
        member, CanonicalAggregateFingerprint(script, a), plan.cls,
        plan.reason, plan.key_width(), AggregateResultWidth(script, a)));
    provider->plans_.push_back(std::move(plan));
  }
  return provider;
}

Result<Value> SharingAggregateProvider::InnerEval(
    int32_t agg_index, const std::vector<Value>& scalar_args, RowId u_row,
    const EnvironmentTable& table, const TickRandom& rnd, int32_t shard) {
  if (inner_ != nullptr) {
    return inner_->Eval(agg_index, scalar_args, u_row, table, rnd, shard);
  }
  return interp_->EvalAggregate(agg_index, scalar_args, u_row, table, rnd);
}

Status SharingAggregateProvider::InnerEvalBatch(const AggBatch& batch,
                                                const EnvironmentTable& table,
                                                const TickRandom& rnd,
                                                int32_t shard) {
  if (inner_ != nullptr) return inner_->EvalBatch(batch, table, rnd, shard);
  return EvalBatchByLane(
      batch, [&](const std::vector<Value>& args, RowId u_row) {
        return interp_->EvalAggregate(batch.agg_index, args, u_row, table,
                                      rnd);
      });
}

Result<Value> SharingAggregateProvider::Eval(
    int32_t agg_index, const std::vector<Value>& scalar_args, RowId u_row,
    const EnvironmentTable& table, const TickRandom& rnd, int32_t shard) {
  const int32_t group = group_of_[agg_index];
  // An out-of-range shard means set_num_shards was skipped; bypass the
  // memo (and its per-shard tallies) rather than write past the arrays.
  if (!ctx_->Active(group) || shard < 0 || shard >= ctx_->num_shards()) {
    return InnerEval(agg_index, scalar_args, u_row, table, rnd, shard);
  }
  const SharingPlan& plan = plans_[agg_index];

  std::vector<double> key;
  key.reserve(plan.key_width());
  if (!plan.key_exprs.empty() || !plan.key_conds.empty()) {
    const AggregateDecl& decl = script_->program.aggregates[agg_index];
    const std::string* u_name = &decl.params[0];
    const int64_t u_key = table.KeyAt(u_row);
    LocalStack locals;
    for (size_t i = 1; i < decl.params.size(); ++i) {
      locals.Push(decl.params[i], scalar_args[i - 1]);
    }
    for (const Expr* e : plan.key_exprs) {
      SGL_ASSIGN_OR_RETURN(
          Value v, interp_->EvalExprIn(*e, table, u_name, u_row, nullptr, -1,
                                       &locals, rnd, u_key));
      if (!v.is_scalar()) {
        return InnerEval(agg_index, scalar_args, u_row, table, rnd, shard);
      }
      key.push_back(v.scalar());
    }
    for (const Cond* c : plan.key_conds) {
      SGL_ASSIGN_OR_RETURN(
          bool pass, interp_->EvalCondIn(*c, table, u_name, u_row, nullptr,
                                         -1, &locals, rnd, u_key));
      key.push_back(pass ? 1.0 : 0.0);
    }
  }
  for (int32_t p : plan.key_params) {
    const Value& v = scalar_args[p];
    if (!v.is_scalar()) {
      return InnerEval(agg_index, scalar_args, u_row, table, rnd, shard);
    }
    key.push_back(v.scalar());
  }

  std::vector<double> vals(AggregateResultWidth(*script_, agg_index));
  uint8_t found = 0;
  ctx_->Lookup(group, key.data(), 1, &found, vals.data());
  ctx_->Tally(group, 1, found, shard);
  if (found) return BoxAggregateResult(*script_, agg_index, vals.data());
  SGL_ASSIGN_OR_RETURN(Value out,
                       InnerEval(agg_index, scalar_args, u_row, table, rnd,
                                 shard));
  if (UnboxAggregateResult(out, static_cast<int32_t>(vals.size()),
                           vals.data())) {
    ctx_->Publish(group, key.data(), 1, vals.data());
  }
  return out;
}

namespace {

/// One EvalBatch's working set, reused across calls on the same thread
/// (batches on distinct threads never share it).
struct BatchScratch {
  KeyTable keys;                     // the batch's distinct keys
  std::vector<int32_t> distinct;     // lane -> distinct key index
  std::vector<int32_t> rep;          // distinct key -> first lane with it
  std::vector<uint8_t> found;        // distinct key -> already in the memo
  std::vector<double> results;       // distinct key -> result doubles
  std::vector<uint8_t> miss_active;  // the sub-batch's lane mask
  std::vector<double> miss_out;      // the sub-batch's result columns
  std::vector<double*> miss_cols;
};

}  // namespace

Status SharingAggregateProvider::EvalBatch(const AggBatch& batch,
                                           const EnvironmentTable& table,
                                           const TickRandom& rnd,
                                           int32_t shard) {
  const int32_t agg_index = batch.agg_index;
  const int32_t group = group_of_[agg_index];
  if (!ctx_->Active(group) || shard < 0 || shard >= ctx_->num_shards()) {
    return InnerEvalBatch(batch, table, rnd, shard);
  }
  const SharingPlan& plan = plans_[agg_index];
  const int32_t num_values = static_cast<int32_t>(plan.key_exprs.size());
  const int32_t num_conds = static_cast<int32_t>(plan.key_conds.size());
  if ((num_values != 0 || num_conds != 0) &&
      (!batch.has_probe || batch.num_probe_values != num_values ||
       batch.num_probe_filters != num_conds)) {
    // No probe columns to key on: key each lane the per-unit way.
    return AggregateProvider::EvalBatch(batch, table, rnd, shard);
  }
  const int32_t w = plan.key_width();
  const int32_t r = batch.nout;
  const int32_t n = batch.n;

  thread_local BatchScratch sc;
  sc.keys.Reset(w);
  sc.distinct.assign(n, -1);
  sc.rep.clear();
  std::vector<double> lane_key(w);
  int64_t calls = 0;
  for (int32_t i = 0; i < n; ++i) {
    if (batch.active[i] == 0) continue;
    ++calls;
    int32_t c = 0;
    for (int32_t v = 0; v < num_values; ++v) {
      lane_key[c++] = batch.probe_values[v][i];
    }
    for (int32_t f = 0; f < num_conds; ++f) {
      lane_key[c++] = batch.probe_filters[f][i] != 0 ? 1.0 : 0.0;
    }
    for (int32_t p : plan.key_params) lane_key[c++] = batch.args[p][i];
    bool added = false;
    sc.distinct[i] = sc.keys.FindOrAdd(lane_key.data(), &added);
    if (added) sc.rep.push_back(i);
  }
  const int32_t num_distinct = static_cast<int32_t>(sc.rep.size());

  sc.found.assign(num_distinct, 0);
  sc.results.resize(static_cast<size_t>(num_distinct) * r);
  ctx_->Lookup(group, sc.keys.Key(0), num_distinct, sc.found.data(),
               sc.results.data());

  // The distinct misses go to the inner provider as one sub-batch: the
  // same columns, active only on each missed key's first lane.
  int32_t misses = 0;
  sc.miss_active.assign(n, 0);
  for (int32_t d = 0; d < num_distinct; ++d) {
    if (sc.found[d] == 0) {
      sc.miss_active[sc.rep[d]] = 1;
      ++misses;
    }
  }
  if (misses > 0) {
    sc.miss_out.resize(static_cast<size_t>(r) * n);
    sc.miss_cols.resize(r);
    for (int32_t k = 0; k < r; ++k) {
      sc.miss_cols[k] = sc.miss_out.data() + static_cast<size_t>(k) * n;
    }
    AggBatch sub = batch;
    sub.active = sc.miss_active.data();
    sub.out = sc.miss_cols.data();
    SGL_RETURN_NOT_OK(InnerEvalBatch(sub, table, rnd, shard));
    for (int32_t d = 0; d < num_distinct; ++d) {
      if (sc.found[d] != 0) continue;
      double* res = sc.results.data() + static_cast<size_t>(d) * r;
      for (int32_t k = 0; k < r; ++k) res[k] = sc.miss_cols[k][sc.rep[d]];
    }
    // Keys found above are already published; Publish skips them.
    ctx_->Publish(group, sc.keys.Key(0), num_distinct, sc.results.data());
  }

  for (int32_t i = 0; i < n; ++i) {
    const int32_t d = sc.distinct[i];
    if (d < 0) {
      for (int32_t k = 0; k < r; ++k) batch.out[k][i] = 0.0;
      continue;
    }
    const double* res = sc.results.data() + static_cast<size_t>(d) * r;
    for (int32_t k = 0; k < r; ++k) batch.out[k][i] = res[k];
  }
  // Per-lane accounting: every active lane is a call; all but each
  // missed key's first lane would have been served by the memo.
  ctx_->Tally(group, calls, calls - misses, shard);
  return Status::OK();
}

}  // namespace sgl
