#include "opt/indexed_provider.h"

#include <algorithm>
#include <cmath>

namespace sgl {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kNoExclude = std::numeric_limits<int64_t>::min();
// Signature limits (ExtractSignature falls back to a scan beyond them).
constexpr int32_t kMaxPartitions = 3;
constexpr int32_t kMaxRanges = 2;

/// Range bounds a signature's probe carries (present lower/upper bounds).
int32_t NumBounds(const AggregateSignature& sig) {
  int32_t n = 0;
  for (const RangeDim& r : sig.ranges) {
    n += (r.lo != nullptr) + (r.hi != nullptr);
  }
  return n;
}

/// Tighten a strict bound by one ulp: no double lies strictly between v
/// and nextafter(v, dir), so closed-interval indexes serve < and > too.
double TightenLo(double v, bool strict) {
  return strict ? std::nextafter(v, kInf) : v;
}
double TightenHi(double v, bool strict) {
  return strict ? std::nextafter(v, -kInf) : v;
}

}  // namespace

Result<std::unique_ptr<IndexedAggregateProvider>>
IndexedAggregateProvider::Create(const Script& script,
                                 const Interpreter& interp) {
  std::unique_ptr<IndexedAggregateProvider> provider(
      new IndexedAggregateProvider(script, interp));
  SGL_RETURN_NOT_OK(provider->Init());
  return provider;
}

Status IndexedAggregateProvider::Init() {
  const Script& script = *script_;
  posx_attr_ = script.schema.Find("posx");
  posy_attr_ = script.schema.Find("posy");

  const int32_t num_aggs =
      static_cast<int32_t>(script.program.aggregates.size());
  signatures_.reserve(num_aggs);
  for (int32_t a = 0; a < num_aggs; ++a) {
    SGL_ASSIGN_OR_RETURN(AggregateSignature sig, ExtractSignature(script, a));
    signatures_.push_back(std::move(sig));
  }

  // Group aggregates that need the same build into one family — the
  // multi-query optimization of Section 3.1 applied across every script in
  // the program. Each member's terms map onto the family's columns,
  // deduplicated by canonical form.
  family_of_agg_.assign(num_aggs, -1);
  probe_cols_.assign(num_aggs, {});
  std::map<std::string, int32_t> family_by_build;
  std::vector<std::map<std::string, int32_t>> col_by_term;
  std::vector<char> reads_squares(num_aggs, 0);
  for (int32_t a = 0; a < num_aggs; ++a) {
    const AggregateSignature& sig = signatures_[a];
    if (sig.kind == IndexKind::kNaive) continue;
    auto [it, inserted] = family_by_build.emplace(
        sig.BuildKey(), static_cast<int32_t>(families_.size()));
    if (inserted) {
      families_.emplace_back();
      families_.back().sig = &sig;
      col_by_term.emplace_back();
    }
    const int32_t f = it->second;
    Family& family = families_[f];
    family.member_aggs.push_back(a);
    family_of_agg_[a] = f;
    const AggregateDecl& decl = script.program.aggregates[a];
    for (size_t t = 0; t < sig.terms.size(); ++t) {
      auto [col, added] = col_by_term[f].emplace(
          sig.TermKey(t), static_cast<int32_t>(family.terms.size()));
      if (added) family.terms.push_back({sig.terms[t], &decl.row_var});
      probe_cols_[a].push_back(col->second);
    }
    for (const AggItem& item : decl.items) {
      if (item.func == AggFunc::kStddev) reads_squares[a] = 1;
    }
    if (reads_squares[a]) family.squares = true;
  }
  // Square columns follow all of a family's terms, so their offset is
  // known only once every member has joined.
  for (int32_t a = 0; a < num_aggs; ++a) {
    if (!reads_squares[a]) continue;
    const int32_t m = static_cast<int32_t>(
        families_[family_of_agg_[a]].terms.size());
    std::vector<int32_t>& cols = probe_cols_[a];
    const size_t own = cols.size();
    for (size_t t = 0; t < own; ++t) cols.push_back(m + cols[t]);
  }
  family_mode_.assign(families_.size(), PhysicalChoice::kRebuild);
  own_metrics_ = std::make_unique<obs::MetricsRegistry>();
  BindMetrics(own_metrics_.get(), "agg.", obs::kMetricNone);
  set_num_shards(1);
  return Status::OK();
}

void IndexedAggregateProvider::BindMetrics(obs::MetricsRegistry* registry,
                                           const std::string& prefix,
                                           uint32_t extra_flags) {
  metrics_ = registry;
  probes_ = metrics_->GetCounter(prefix + "probes", extra_flags);
  for (size_t f = 0; f < families_.size(); ++f) {
    const std::string name = prefix + "family" + std::to_string(f) + ".";
    Family& family = families_[f];
    family.calls = metrics_->GetCounter(name + "calls", extra_flags);
    family.rows = metrics_->GetCounter(name + "rows", extra_flags);
    family.build_ns = metrics_->GetCounter(
        name + "build_ns", extra_flags | obs::kMetricExecDependent);
  }
}

void IndexedAggregateProvider::set_num_shards(int32_t num_shards) {
  num_shards_ = std::max(1, num_shards);
  metrics_->SetNumShards(num_shards_);
}

Status IndexedAggregateProvider::BuildIndexes(const EnvironmentTable& table,
                                              const TickRandom& rnd,
                                              exec::ThreadPool* pool,
                                              exec::ParallelStats* stats) {
  std::vector<Family*> all;
  all.reserve(families_.size());
  for (Family& family : families_) all.push_back(&family);
  return BuildFamilies(all, table, rnd, pool, stats);
}

Status IndexedAggregateProvider::BuildFamilies(
    const std::vector<Family*>& families, const EnvironmentTable& table,
    const TickRandom& rnd, exec::ThreadPool* pool,
    exec::ParallelStats* stats) {
  if (pool == nullptr || families.size() <= 1) {
    // Sequential family loop; the per-row passes inside each family still
    // use the pool (when present), so single-family scripts parallelize
    // across row ranges instead — and report their fan-out via `stats`.
    for (Family* family : families) {
      SGL_RETURN_NOT_OK(BuildFamily(family, table, rnd, pool, stats));
    }
    return Status::OK();
  }
  // Families own disjoint build products, so they build concurrently;
  // nested ParallelFor calls inside BuildFamily then run inline.
  return pool->ParallelFor(
      static_cast<int64_t>(families.size()), /*grain=*/1,
      [&](int32_t, int64_t lo, int64_t hi) -> Status {
        for (int64_t f = lo; f < hi; ++f) {
          SGL_RETURN_NOT_OK(
              BuildFamily(families[f], table, rnd, pool, nullptr));
        }
        return Status::OK();
      },
      stats);
}

Status IndexedAggregateProvider::BuildFamily(Family* family,
                                             const EnvironmentTable& table,
                                             const TickRandom& rnd,
                                             exec::ThreadPool* pool,
                                             exec::ParallelStats* stats) {
  const Timer timer;
  const AggregateSignature& sig = *family->sig;
  const AggregateDecl& decl = script_->program.aggregates[sig.agg_index];
  const int32_t n = table.NumRows();
  const std::string* e_name = &decl.row_var;

  // Row ranges split across workers; every write below lands in a
  // row-private slot (row_passes[r], term_cols[..][r]), so the parallel
  // build is trivially identical to the sequential one.
  constexpr int64_t kRowGrain = 512;
  auto for_rows =
      [&](const std::function<Status(RowId, RowId)>& body) -> Status {
    if (pool == nullptr) return body(0, n);
    return pool->ParallelFor(
        n, kRowGrain,
        [&](int32_t, int64_t lo, int64_t hi) {
          return body(static_cast<RowId>(lo), static_cast<RowId>(hi));
        },
        stats);
  };

  // Pass 1: build filters (pure-e conjuncts pushed into construction).
  family->row_passes.assign(n, 1);
  for (const Cond* filter : sig.build_filters) {
    SGL_RETURN_NOT_OK(for_rows([&](RowId lo, RowId hi) -> Status {
      LocalStack no_params;
      for (RowId r = lo; r < hi; ++r) {
        if (!family->row_passes[r]) continue;
        SGL_ASSIGN_OR_RETURN(
            bool pass,
            interp_->EvalCondIn(*filter, table, nullptr, -1, e_name, r,
                                &no_params, rnd, table.KeyAt(r)));
        if (!pass) family->row_passes[r] = 0;
      }
      return Status::OK();
    }));
  }

  // Pass 2: the family's term columns (and their squares, when a member
  // takes a stddev).
  const int32_t m = static_cast<int32_t>(family->terms.size());
  family->term_cols.assign(family->num_cols(), std::vector<double>(n, 0.0));
  for (int32_t t = 0; t < m; ++t) {
    const FamilyTerm& term = family->terms[t];
    SGL_RETURN_NOT_OK(for_rows([&](RowId lo, RowId hi) -> Status {
      LocalStack no_params;
      for (RowId r = lo; r < hi; ++r) {
        if (!family->row_passes[r]) continue;
        SGL_ASSIGN_OR_RETURN(
            Value v, interp_->EvalExprIn(*term.expr, table, nullptr, -1,
                                         term.e_name, r, &no_params, rnd,
                                         table.KeyAt(r)));
        if (!v.is_scalar()) {
          return Status::ExecutionError("aggregate term must be scalar");
        }
        family->term_cols[t][r] = v.scalar();
        if (family->squares) {
          family->term_cols[m + t][r] = v.scalar() * v.scalar();
        }
      }
      return Status::OK();
    }));
  }

  // Pass 3: group passing rows by their partition components.
  const int32_t p_dims = static_cast<int32_t>(sig.partitions.size());
  std::map<std::vector<double>, std::vector<RowId>> groups;
  std::vector<double> comps(p_dims);
  int64_t passing = 0;
  for (RowId r = 0; r < n; ++r) {
    if (!family->row_passes[r]) continue;
    ++passing;
    for (int32_t i = 0; i < p_dims; ++i) {
      comps[i] = table.Get(r, sig.partitions[i].attr);
    }
    auto group = groups.find(comps);
    if (group == groups.end()) {
      group = groups.emplace(comps, std::vector<RowId>()).first;
    }
    group->second.push_back(r);
  }

  // Pass 4: build one structure per partition.
  family->div_trees.clear();
  family->totals.clear();
  family->mm_trees.clear();
  family->kd_trees.clear();
  family->parts.clear();
  const std::vector<int64_t>& keys = table.Keys();
  int64_t part_id = 0;
  for (auto& [part_comps, rows] : groups) {
    if (sig.kind == IndexKind::kPartitionTotals) {
      // Ascending row order: the same sums a range tree's root prefix
      // would hold, without the tree.
      PartitionTotals totals;
      totals.count = static_cast<int64_t>(rows.size());
      totals.sums.assign(family->num_cols(), 0.0);
      for (int32_t c = 0; c < family->num_cols(); ++c) {
        const std::vector<double>& col = family->term_cols[c];
        for (RowId r : rows) totals.sums[c] += col[r];
      }
      family->totals.push_back(std::move(totals));
    } else {
      std::vector<PointRef> points;
      points.reserve(rows.size());
      for (RowId r : rows) {
        PointRef p;
        p.id = r;
        if (sig.kind == IndexKind::kKdNearest) {
          p.x = table.Get(r, posx_attr_);
          p.y = table.Get(r, posy_attr_);
        } else {
          p.x = sig.ranges.size() > 0 ? table.Get(r, sig.ranges[0].attr)
                                      : 0.0;
          p.y = sig.ranges.size() > 1 ? table.Get(r, sig.ranges[1].attr)
                                      : 0.0;
        }
        points.push_back(p);
      }
      switch (sig.kind) {
        case IndexKind::kDivisibleRangeTree:
          family->div_trees.emplace(
              part_id, LayeredRangeTree2D(points, family->term_cols));
          break;
        case IndexKind::kMinMaxTree: {
          const auto mode = sig.extremum_max ? MinMaxRangeTree2D::Mode::kMax
                                             : MinMaxRangeTree2D::Mode::kMin;
          family->mm_trees.emplace(
              part_id,
              MinMaxRangeTree2D(points, family->term_cols[0], keys, mode));
          break;
        }
        case IndexKind::kKdNearest:
          family->kd_trees.emplace(part_id, KdTree2D(points, keys));
          break;
        case IndexKind::kPartitionTotals:
        case IndexKind::kNaive:
          break;
      }
    }
    family->parts.push_back(PartitionEntry{part_comps, part_id});
    ++part_id;
  }
  family->rows->Add(passing);
  family->build_ns->Add(timer.Nanos());
  return Status::OK();
}

Status IndexedAggregateProvider::CheckShard(int32_t shard) const {
  // Per-shard counters: concurrent probes never contend on one slot. An
  // out-of-range shard means the caller skipped set_num_shards — fail
  // deterministically rather than silently race on a shared slot.
  if (shard < 0 || shard >= num_shards_) {
    return Status::Internal("aggregate probe from shard ", shard,
                            " but only ", num_shards_,
                            " shards configured (set_num_shards)");
  }
  return Status::OK();
}

Rect IndexedAggregateProvider::RectOf(const AggregateSignature& sig,
                                      const double* bounds) const {
  Rect rect{-kInf, kInf, -kInf, kInf};
  for (size_t d = 0; d < sig.ranges.size(); ++d) {
    const RangeDim& r = sig.ranges[d];
    // Tree-based kinds put range dim 0 on the x axis and dim 1 on y; the
    // kD-tree is built over (posx, posy), so bounds map to the axis of
    // the attribute itself.
    bool on_x = sig.kind == IndexKind::kKdNearest ? r.attr == posx_attr_
                                                  : d == 0;
    if (r.lo != nullptr) {
      (on_x ? rect.xlo : rect.ylo) = TightenLo(*bounds++, r.lo_strict);
    }
    if (r.hi != nullptr) {
      (on_x ? rect.xhi : rect.yhi) = TightenHi(*bounds++, r.hi_strict);
    }
  }
  return rect;
}

void IndexedAggregateProvider::UnitRow(const EnvironmentTable& table,
                                       RowId row, double dist2,
                                       double* vals) const {
  vals[0] = 1.0;
  vals[1] = dist2;
  for (AttrId a = 0; a < table.schema().NumAttrs(); ++a) {
    vals[2 + a] = table.Get(row, a);
  }
}

Status IndexedAggregateProvider::Probe(int32_t agg_index, RowId u_row,
                                       const double* part_values,
                                       const Rect& rect, bool probe_ok,
                                       const EnvironmentTable& table,
                                       double* vals) const {
  const AggregateSignature& sig = signatures_[agg_index];
  const Family& family = families_[family_of_agg_[agg_index]];
  const AggregateDecl& decl = script_->program.aggregates[agg_index];
  auto partition_matches = [&](const double* comps) {
    for (size_t i = 0; i < sig.partitions.size(); ++i) {
      bool equal = comps[i] == part_values[i];
      if (sig.partitions[i].negated ? equal : !equal) return false;
    }
    return true;
  };

  switch (sig.kind) {
    case IndexKind::kDivisibleRangeTree:
    case IndexKind::kPartitionTotals: {
      // sums[i] accumulates family column cols[i]: the aggregate's terms,
      // then (for stddev) their squares. Each partition's contribution is
      // summed on its own first, then added — the order the reference
      // tree probe has always used. Small column sets stay on the stack.
      const std::vector<int32_t>& cols = probe_cols_[agg_index];
      const int32_t k = static_cast<int32_t>(cols.size());
      const int32_t m = static_cast<int32_t>(sig.terms.size());
      constexpr int32_t kInlineCols = 8;
      double inline_sums[2 * kInlineCols];
      std::vector<double> heap_sums;
      double* sums = inline_sums;
      if (k > kInlineCols) {
        heap_sums.resize(2 * static_cast<size_t>(k));
        sums = heap_sums.data();
      }
      double* part_sums = sums + k;
      std::fill(sums, sums + k, 0.0);
      int64_t count = 0;
      if (probe_ok) {
        for (const PartitionEntry& part : family.parts) {
          if (!partition_matches(part.comps.data())) continue;
          if (sig.kind == IndexKind::kPartitionTotals) {
            const PartitionTotals& totals = family.totals[part.id];
            count += totals.count;
            for (int32_t i = 0; i < k; ++i) sums[i] += totals.sums[cols[i]];
          } else {
            std::fill(part_sums, part_sums + k, 0.0);
            count += family.div_trees.at(part.id).Aggregate(
                rect, cols.data(), k, part_sums);
            for (int32_t i = 0; i < k; ++i) sums[i] += part_sums[i];
          }
        }
        if (sig.exclude_self && family.row_passes[u_row]) {
          // Divisibility (Definition 5.1): subtract the probing unit's own
          // contribution if it falls inside its own probe.
          double own_comps[kMaxPartitions];
          for (size_t i = 0; i < sig.partitions.size(); ++i) {
            own_comps[i] = table.Get(u_row, sig.partitions[i].attr);
          }
          double ox =
              sig.ranges.size() > 0 ? table.Get(u_row, sig.ranges[0].attr) : 0;
          double oy =
              sig.ranges.size() > 1 ? table.Get(u_row, sig.ranges[1].attr) : 0;
          if (partition_matches(own_comps) && rect.Contains(ox, oy)) {
            count -= 1;
            for (int32_t i = 0; i < k; ++i) {
              sums[i] -= family.term_cols[cols[i]][u_row];
            }
          }
        }
      }
      for (size_t i = 0; i < decl.items.size(); ++i) {
        const int32_t t = sig.term_of_item[i];
        double v = 0.0;
        switch (decl.items[i].func) {
          case AggFunc::kCount:
            v = static_cast<double>(count);
            break;
          case AggFunc::kSum:
            v = sums[t];
            break;
          case AggFunc::kAvg:
            v = count == 0 ? 0.0 : sums[t] / static_cast<double>(count);
            break;
          case AggFunc::kStddev: {
            if (count == 0) break;
            double n = static_cast<double>(count);
            double mean = sums[t] / n;
            double var = sums[m + t] / n - mean * mean;
            v = var <= 0.0 ? 0.0 : std::sqrt(var);
            break;
          }
          default:
            break;
        }
        vals[i] = v;
      }
      return Status::OK();
    }

    case IndexKind::kMinMaxTree: {
      Extremum best = Extremum::None();
      const bool is_max = sig.extremum_max;
      if (probe_ok) {
        for (const PartitionEntry& part : family.parts) {
          if (!partition_matches(part.comps.data())) continue;
          Extremum cand = family.mm_trees.at(part.id).Query(rect);
          if (!cand.valid()) continue;
          // Compare in internal (sign-adjusted) space for MAX trees.
          Extremum adj = cand;
          if (is_max) adj.value = -adj.value;
          Extremum best_adj = best;
          if (is_max && best.valid()) best_adj.value = -best_adj.value;
          if (!best.valid() || adj < best_adj) best = cand;
        }
      }
      if (AggFuncReturnsRow(decl.items[0].func)) {
        const int32_t width = AggregateResultWidth(*script_, agg_index);
        std::fill(vals, vals + width, 0.0);
        if (best.valid()) UnitRow(table, table.RowOf(best.key), 0.0, vals);
      } else {
        vals[0] = best.valid() ? best.value : 0.0;
      }
      return Status::OK();
    }

    case IndexKind::kKdNearest: {
      Neighbor best;
      const int64_t exclude =
          sig.exclude_self ? table.KeyAt(u_row) : kNoExclude;
      const double qx = table.Get(u_row, posx_attr_);
      const double qy = table.Get(u_row, posy_attr_);
      const bool bounded = !sig.ranges.empty();
      if (probe_ok) {
        for (const PartitionEntry& part : family.parts) {
          if (!partition_matches(part.comps.data())) continue;
          const KdTree2D& tree = family.kd_trees.at(part.id);
          Neighbor cand = bounded
                              ? tree.NearestInRect(qx, qy, exclude, rect)
                              : tree.Nearest(qx, qy, exclude);
          if (!cand.found()) continue;
          if (!best.found() || cand.dist2 < best.dist2 ||
              (cand.dist2 == best.dist2 && cand.key < best.key)) {
            best = cand;
          }
        }
      }
      const int32_t width = AggregateResultWidth(*script_, agg_index);
      std::fill(vals, vals + width, 0.0);
      if (best.found()) {
        UnitRow(table, table.RowOf(best.key), best.dist2, vals);
      }
      return Status::OK();
    }

    case IndexKind::kNaive:
      break;
  }
  return Status::Internal("unreachable index kind");
}

Result<Value> IndexedAggregateProvider::Eval(
    int32_t agg_index, const std::vector<Value>& scalar_args, RowId u_row,
    const EnvironmentTable& table, const TickRandom& rnd, int32_t shard) {
  const AggregateSignature& sig = signatures_[agg_index];
  if (sig.kind == IndexKind::kNaive) {
    return interp_->EvalAggregate(agg_index, scalar_args, u_row, table, rnd);
  }
  SGL_RETURN_NOT_OK(CheckShard(shard));
  const int32_t family_index = family_of_agg_[agg_index];
  const Family& family = families_[family_index];
  family.calls->Add(1, shard);
  // A family the cost model put in scan mode this tick has no (current)
  // index; answer through the reference evaluator. The demand counter
  // above still counts the call — it is the signal that flips the family
  // back to an index once calls outnumber what a scan justifies — but
  // the externally reported probe_count() does not: no index served it.
  if (family_mode_[family_index] == PhysicalChoice::kScan) {
    return interp_->EvalAggregate(agg_index, scalar_args, u_row, table, rnd);
  }
  probes_->Add(1, shard);

  // The probe side, evaluated with the interpreter: probe filters (u-only
  // conjuncts; false => aggregate of the empty set), partition values,
  // then range bounds.
  const AggregateDecl& decl = script_->program.aggregates[agg_index];
  const std::string* u_name = &decl.params[0];
  const int64_t u_key = table.KeyAt(u_row);
  LocalStack params;
  for (size_t i = 1; i < decl.params.size(); ++i) {
    params.Push(decl.params[i], scalar_args[i - 1]);
  }
  bool probe_ok = true;
  for (const Cond* filter : sig.probe_filters) {
    SGL_ASSIGN_OR_RETURN(
        bool pass, interp_->EvalCondIn(*filter, table, u_name, u_row, nullptr,
                                       -1, &params, rnd, u_key));
    if (!pass) {
      probe_ok = false;
      break;
    }
  }
  auto eval_scalar = [&](const Expr* expr, const char* what) -> Result<double> {
    SGL_ASSIGN_OR_RETURN(
        Value v, interp_->EvalExprIn(*expr, table, u_name, u_row, nullptr, -1,
                                     &params, rnd, u_key));
    if (!v.is_scalar()) {
      return Status::ExecutionError(what, " must be scalar");
    }
    return v.scalar();
  };
  double part_values[kMaxPartitions];
  for (size_t i = 0; i < sig.partitions.size(); ++i) {
    SGL_ASSIGN_OR_RETURN(part_values[i], eval_scalar(sig.partitions[i].value,
                                                     "partition value"));
  }
  double bounds[2 * kMaxRanges];
  int32_t num_bounds = 0;
  for (const RangeDim& r : sig.ranges) {
    for (const Expr* bound : {r.lo, r.hi}) {
      if (bound == nullptr) continue;
      SGL_ASSIGN_OR_RETURN(bounds[num_bounds++],
                           eval_scalar(bound, "range bound"));
    }
  }

  std::vector<double> vals(AggregateResultWidth(*script_, agg_index));
  SGL_RETURN_NOT_OK(Probe(agg_index, u_row, part_values, RectOf(sig, bounds),
                          probe_ok, table, vals.data()));
  return BoxAggregateResult(*script_, agg_index, vals.data());
}

Status IndexedAggregateProvider::EvalBatch(const AggBatch& batch,
                                           const EnvironmentTable& table,
                                           const TickRandom& rnd,
                                           int32_t shard) {
  const int32_t agg_index = batch.agg_index;
  const AggregateSignature& sig = signatures_[agg_index];
  const int32_t family_index = family_of_agg_[agg_index];
  // Naive-scan signatures, scan-mode families and sites without a
  // computed probe side take the per-unit reference path.
  if (sig.kind == IndexKind::kNaive || !batch.has_probe ||
      family_mode_[family_index] == PhysicalChoice::kScan) {
    return AggregateProvider::EvalBatch(batch, table, rnd, shard);
  }
  SGL_RETURN_NOT_OK(CheckShard(shard));
  const int32_t num_parts = static_cast<int32_t>(sig.partitions.size());
  const int32_t num_bounds = NumBounds(sig);
  if (batch.num_probe_values != num_parts + num_bounds ||
      batch.num_probe_filters !=
          static_cast<int32_t>(sig.probe_filters.size()) ||
      batch.nout != AggregateResultWidth(*script_, agg_index)) {
    return Status::Internal("aggregate batch does not match the signature");
  }

  std::vector<double> vals(batch.nout);
  double part_values[kMaxPartitions];
  double bounds[2 * kMaxRanges];
  int64_t lanes = 0;
  for (int32_t i = 0; i < batch.n; ++i) {
    if (batch.active[i] == 0) {
      for (int32_t k = 0; k < batch.nout; ++k) batch.out[k][i] = 0.0;
      continue;
    }
    ++lanes;
    for (int32_t p = 0; p < num_parts; ++p) {
      part_values[p] = batch.probe_values[p][i];
    }
    for (int32_t b = 0; b < num_bounds; ++b) {
      bounds[b] = batch.probe_values[num_parts + b][i];
    }
    bool probe_ok = true;
    for (int32_t f = 0; f < batch.num_probe_filters; ++f) {
      probe_ok &= batch.probe_filters[f][i] != 0;
    }
    SGL_RETURN_NOT_OK(Probe(agg_index, batch.lo + i, part_values,
                            RectOf(sig, bounds), probe_ok, table,
                            vals.data()));
    for (int32_t k = 0; k < batch.nout; ++k) batch.out[k][i] = vals[k];
  }
  families_[family_index].calls->Add(lanes, shard);
  probes_->Add(lanes, shard);
  return Status::OK();
}

std::string IndexedAggregateProvider::DescribeAggregatePhysical(
    int32_t agg_index) const {
  const AggregateSignature& sig = signatures_[agg_index];
  std::ostringstream os;
  os << IndexKindName(sig.kind);
  if (sig.kind != IndexKind::kNaive) {
    os << ", family " << family_of_agg_[agg_index];
  }
  return os.str();
}

std::string IndexedAggregateProvider::DescribePlan() const {
  const Schema& schema = script_->schema;
  std::ostringstream os;
  os << "Aggregate plan (" << signatures_.size() << " aggregates, "
     << families_.size() << " physical index families):\n";
  for (size_t f = 0; f < families_.size(); ++f) {
    // The family line describes the build; each member line its probe.
    const Family& family = families_[f];
    const AggregateSignature& sig = *family.sig;
    os << "  family " << f << ": " << IndexKindName(sig.kind);
    if (sig.kind != IndexKind::kKdNearest && !sig.ranges.empty()) {
      os << " ranges(";
      for (size_t i = 0; i < sig.ranges.size(); ++i) {
        os << (i > 0 ? ", " : "") << schema.attr(sig.ranges[i].attr).name;
      }
      os << ")";
    }
    if (!sig.partitions.empty()) {
      os << " partitions(";
      for (size_t i = 0; i < sig.partitions.size(); ++i) {
        os << (i > 0 ? ", " : "")
           << schema.attr(sig.partitions[i].attr).name;
      }
      os << ")";
    }
    if (!sig.build_filters.empty()) {
      os << " build-filters(" << sig.build_filters.size() << ")";
    }
    if (family.num_cols() > 0) os << " columns(" << family.num_cols() << ")";
    if (family.member_aggs.size() > 1) {
      os << "  [shared by";
      for (int32_t a : family.member_aggs) {
        os << " " << script_->program.aggregates[a].name;
      }
      os << "]";
    }
    os << "\n";
    for (int32_t a : family.member_aggs) {
      os << "    " << DescribeSignature(*script_, signatures_[a]) << "\n";
    }
  }
  for (const AggregateSignature& sig : signatures_) {
    if (sig.kind == IndexKind::kNaive) {
      os << "  no family: " << DescribeSignature(*script_, sig) << "\n";
    }
  }
  return os.str();
}

}  // namespace sgl
