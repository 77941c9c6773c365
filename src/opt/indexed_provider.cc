#include "opt/indexed_provider.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>

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

/// Partition components group by ==, except that all NaNs form one group.
bool SameComp(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// Ascending component order (NaN last): part ids follow it.
bool CompLess(double a, double b) {
  return a < b || (!std::isnan(a) && std::isnan(b));
}

uint64_t HashComps(const double* comps, int32_t dims) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (int32_t i = 0; i < dims; ++i) {
    double c = comps[i];
    if (c == 0.0) c = 0.0;  // -0 and +0 group together
    if (std::isnan(c)) c = std::numeric_limits<double>::quiet_NaN();
    uint64_t bits;
    std::memcpy(&bits, &c, sizeof(bits));
    h = (h ^ bits) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 32;
  }
  return h;
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
  auto for_rows = [&](const auto& body) -> Status {
    if (pool == nullptr) return body(0, n);
    return pool->ParallelFor(
        n, kRowGrain,
        [&](int32_t, int64_t lo, int64_t hi) {
          return body(static_cast<RowId>(lo), static_cast<RowId>(hi));
        },
        stats);
  };

  // Pass 1: build filters (pure-e conjuncts pushed into construction).
  ResizeRetained(&family->row_passes, n);
  std::fill(family->row_passes.begin(), family->row_passes.end(), 1);
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
  family->term_cols.resize(family->num_cols());
  for (std::vector<double>& col : family->term_cols) {
    ResizeRetained(&col, n);
    std::fill(col.begin(), col.end(), 0.0);
  }
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
  GroupPartitions(family, table);
  const PartitionGroups& parts = family->parts;

  // Pass 4: rebuild one structure per partition, in its part-id slot.
  const int32_t num_parts = parts.count;
  auto fit = [num_parts](auto* slots) {
    if (static_cast<int32_t>(slots->size()) < num_parts) {
      slots->resize(num_parts);
    }
  };
  const std::vector<int64_t>& keys = table.Keys();
  for (int32_t p = 0; p < num_parts; ++p) {
    const RowId* rows = parts.rows.data() + parts.start[p];
    const int32_t num_rows = parts.start[p + 1] - parts.start[p];
    if (sig.kind == IndexKind::kPartitionTotals) {
      // Ascending row order: the same sums a range tree's root prefix
      // would hold, without the tree.
      fit(&family->totals);
      PartitionTotals& totals = family->totals[p];
      totals.count = num_rows;
      totals.sums.assign(family->num_cols(), 0.0);
      for (int32_t c = 0; c < family->num_cols(); ++c) {
        const std::vector<double>& col = family->term_cols[c];
        for (int32_t i = 0; i < num_rows; ++i) totals.sums[c] += col[rows[i]];
      }
      continue;
    }
    std::vector<PointRef>& points = family->points;
    ResizeRetained(&points, num_rows);
    for (int32_t i = 0; i < num_rows; ++i) {
      const RowId r = rows[i];
      PointRef& pt = points[i];
      pt.id = r;
      if (sig.kind == IndexKind::kKdNearest) {
        pt.x = table.Get(r, posx_attr_);
        pt.y = table.Get(r, posy_attr_);
      } else {
        pt.x = sig.ranges.size() > 0 ? table.Get(r, sig.ranges[0].attr) : 0.0;
        pt.y = sig.ranges.size() > 1 ? table.Get(r, sig.ranges[1].attr) : 0.0;
      }
    }
    switch (sig.kind) {
      case IndexKind::kDivisibleRangeTree:
        fit(&family->div_trees);
        family->div_trees[p].Rebuild(points, family->term_cols);
        break;
      case IndexKind::kMinMaxTree:
        fit(&family->mm_trees);
        family->mm_trees[p].Rebuild(points, family->term_cols[0], keys,
                                    sig.extremum_max
                                        ? MinMaxRangeTree2D::Mode::kMax
                                        : MinMaxRangeTree2D::Mode::kMin);
        break;
      case IndexKind::kKdNearest:
        fit(&family->kd_trees);
        family->kd_trees[p].Rebuild(points, keys);
        break;
      case IndexKind::kPartitionTotals:
      case IndexKind::kNaive:
        break;
    }
  }
  const int64_t passing = static_cast<int64_t>(parts.rows.size());
  family->rows->Add(passing);
  family->build_ns->Add(timer.Nanos());
  return Status::OK();
}

void IndexedAggregateProvider::GroupPartitions(
    Family* family, const EnvironmentTable& table) const {
  const AggregateSignature& sig = *family->sig;
  const int32_t dims = static_cast<int32_t>(sig.partitions.size());
  const int32_t n = table.NumRows();
  const std::vector<char>& passes = family->row_passes;
  PartitionGroups& g = family->parts;

  // Number the tuples in first-seen order through an open-addressing hash
  // kept at most half full.
  if (g.slots.empty()) g.slots.resize(16);
  std::fill(g.slots.begin(), g.slots.end(), -1);
  g.seen.clear();
  ResizeRetained(&g.group_of_row, n);
  int32_t groups = 0;
  int64_t passing = 0;
  double comps[kMaxPartitions];
  for (RowId r = 0; r < n; ++r) {
    if (!passes[r]) continue;
    ++passing;
    for (int32_t i = 0; i < dims; ++i) {
      comps[i] = table.Get(r, sig.partitions[i].attr);
    }
    size_t mask = g.slots.size() - 1;
    size_t slot = HashComps(comps, dims) & mask;
    int32_t group;
    while ((group = g.slots[slot]) >= 0 &&
           !std::equal(comps, comps + dims, g.seen.data() + group * dims,
                       SameComp)) {
      slot = (slot + 1) & mask;
    }
    if (group < 0) {
      group = groups++;
      g.seen.insert(g.seen.end(), comps, comps + dims);
      g.slots[slot] = group;
      if (2 * static_cast<size_t>(groups) > g.slots.size()) {
        g.slots.assign(2 * g.slots.size(), -1);
        mask = g.slots.size() - 1;
        for (int32_t k = 0; k < groups; ++k) {
          slot = HashComps(g.seen.data() + k * dims, dims) & mask;
          while (g.slots[slot] >= 0) slot = (slot + 1) & mask;
          g.slots[slot] = k;
        }
      }
    }
    g.group_of_row[r] = group;
  }

  // Part ids: the groups in ascending tuple order. `order` lists the
  // first-seen group of each part id.
  g.count = groups;
  ResizeRetained(&g.order, groups);
  std::iota(g.order.begin(), g.order.end(), 0);
  std::sort(g.order.begin(), g.order.end(), [&](int32_t a, int32_t b) {
    const double* ca = g.seen.data() + a * dims;
    const double* cb = g.seen.data() + b * dims;
    return std::lexicographical_compare(ca, ca + dims, cb, cb + dims,
                                        CompLess);
  });
  ResizeRetained(&g.comps, static_cast<size_t>(groups) * dims);
  ResizeRetained(&g.part_of_group, groups);
  for (int32_t p = 0; p < groups; ++p) {
    std::copy_n(g.seen.data() + g.order[p] * dims, dims,
                g.comps.data() + p * dims);
    g.part_of_group[g.order[p]] = p;
  }

  // A counting sort of the passing rows by part id keeps them ascending
  // within each part; `order` becomes each part's fill cursor.
  ResizeRetained(&g.start, groups + 1);
  std::fill(g.start.begin(), g.start.end(), 0);
  for (RowId r = 0; r < n; ++r) {
    if (passes[r]) ++g.start[g.part_of_group[g.group_of_row[r]] + 1];
  }
  std::partial_sum(g.start.begin(), g.start.end(), g.start.begin());
  std::copy_n(g.start.begin(), groups, g.order.begin());
  ResizeRetained(&g.rows, passing);
  for (RowId r = 0; r < n; ++r) {
    if (passes[r]) g.rows[g.order[g.part_of_group[g.group_of_row[r]]]++] = r;
  }
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
  const PartitionGroups& parts = family.parts;
  const size_t dims = sig.partitions.size();
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
        for (int32_t p = 0; p < parts.count; ++p) {
          if (!partition_matches(parts.comps.data() + p * dims)) continue;
          if (sig.kind == IndexKind::kPartitionTotals) {
            const PartitionTotals& totals = family.totals[p];
            count += totals.count;
            for (int32_t i = 0; i < k; ++i) sums[i] += totals.sums[cols[i]];
          } else {
            std::fill(part_sums, part_sums + k, 0.0);
            count += family.div_trees[p].Aggregate(rect, cols.data(), k,
                                                   part_sums);
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
        for (int32_t p = 0; p < parts.count; ++p) {
          if (!partition_matches(parts.comps.data() + p * dims)) continue;
          Extremum cand = family.mm_trees[p].Query(rect);
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
        for (int32_t p = 0; p < parts.count; ++p) {
          if (!partition_matches(parts.comps.data() + p * dims)) continue;
          const KdTree2D& tree = family.kd_trees[p];
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
