#include "opt/adaptive_provider.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sgl {

Result<std::unique_ptr<AdaptiveAggregateProvider>>
AdaptiveAggregateProvider::Create(const Script& script,
                                  const Interpreter& interp) {
  std::unique_ptr<AdaptiveAggregateProvider> provider(
      new AdaptiveAggregateProvider(script, interp));
  SGL_RETURN_NOT_OK(provider->Init());
  provider->states_.resize(provider->families_.size());
  for (size_t f = 0; f < provider->families_.size(); ++f) {
    Family& family = provider->families_[f];
    // Members share the build inputs but not their terms: the family
    // depends on the union.
    for (int32_t a : family.member_aggs) {
      provider->states_[f].dep_mask |=
          BuildDependencyMask(provider->signatures_[a]);
    }
    // Range-tree families snapshot build inputs so a later tick can apply
    // deltas. Extremum and kD families cannot retract contributions, and
    // a partition-totals rebuild is already one linear pass.
    family.maintain_deltas =
        family.sig->kind == IndexKind::kDivisibleRangeTree;
  }
  return provider;
}

void AdaptiveAggregateProvider::BindMetrics(obs::MetricsRegistry* registry,
                                            const std::string& prefix,
                                            uint32_t extra_flags) {
  IndexedAggregateProvider::BindMetrics(registry, prefix, extra_flags);
  // Decisions derive from the family call counts; they inherit whatever
  // execution-dependence those carry.
  scan_decisions_ =
      registry->GetCounter(prefix + "decisions.scan", extra_flags);
  rebuild_decisions_ =
      registry->GetCounter(prefix + "decisions.rebuild", extra_flags);
  incremental_decisions_ =
      registry->GetCounter(prefix + "decisions.incremental", extra_flags);
}

std::vector<RowId> AdaptiveAggregateProvider::DirtyRowsFor(
    int32_t family_index, const TableChanges& changes) const {
  const uint64_t dep = states_[family_index].dep_mask;
  std::vector<RowId> dirty;
  for (RowId r : changes.dirty_rows) {
    if ((changes.attr_mask(r) & dep) != 0) dirty.push_back(r);
  }
  // dirty_rows is in first-write order; canonicalize to ascending rows so
  // the delta log applies in one deterministic order.
  std::sort(dirty.begin(), dirty.end());
  return dirty;
}

Status AdaptiveAggregateProvider::BuildIndexes(const EnvironmentTable& table,
                                               const TickRandom& rnd,
                                               exec::ThreadPool* pool,
                                               exec::ParallelStats* stats) {
  if (!table.change_tracking_enabled()) {
    return Status::Invalid(
        "adaptive evaluation requires EnvironmentTable change tracking "
        "(SimulationBuilder enables it for EvaluatorMode::kAdaptive)");
  }
  const TableChanges& changes = table.changes();
  const bool structural = changes.structural || !first_build_done_;
  const int64_t rows = table.NumRows();

  // --- decision pass: sequential, before any build work, driven only by
  // counts, so the plan for the tick is a deterministic function of the
  // simulation state (never of thread scheduling or wall-clock).
  struct DeltaJob {
    Family* family;
    std::vector<RowId> dirty;
  };
  std::vector<Family*> rebuilds;
  std::vector<DeltaJob> deltas;
  for (size_t f = 0; f < families_.size(); ++f) {
    Family& family = families_[f];
    const AggregateSignature& sig = *family.sig;
    FamilyState& st = states_[f];

    const int64_t tally = family_probe_count(static_cast<int32_t>(f));
    st.last_observed = tally - st.tally_at_decision;
    st.tally_at_decision = tally;
    if (first_build_done_) st.probes.Observe(st.last_observed);

    FamilyCostInputs in;
    in.rows = rows;
    // Until demand has been observed, assume one probe per unit — the
    // common case, and the bias that keeps the first tick indexed.
    in.expected_probes = st.probes.Get(static_cast<double>(rows));
    in.build_passes = static_cast<int64_t>(sig.build_filters.size() +
                                           family.terms.size() + 1);
    in.partitions =
        std::max<int64_t>(1, static_cast<int64_t>(family.parts.size()));
    in.divisible = family.maintain_deltas;
    in.maintainable = in.divisible && family.tree_valid && !structural;
    std::vector<RowId> dirty;
    if (in.maintainable) {
      dirty = DirtyRowsFor(static_cast<int32_t>(f), changes);
      in.dirty_rows = static_cast<int64_t>(dirty.size());
      in.overlay = family.overlay_points;
    }

    CostDecision decision = model_.Choose(in);
    if (has_forced_choice_) {
      // Test hook: pin the choice when it is executable for this family
      // this tick (an unavailable incremental falls back to the model).
      if (forced_choice_ != PhysicalChoice::kIncremental || in.maintainable) {
        decision.choice = forced_choice_;
      }
    }
    // One instant per strategy switch (and per family's first decision):
    // the timeline shows when the cost model re-planned, without a
    // per-tick event flood for stable plans. The decision pass runs on
    // the tick runner before any parallel build, so shard 0 is safe.
    const bool choice_changed =
        !first_build_done_ || st.last.choice != decision.choice;
    st.last = decision;
    st.last_dirty = in.dirty_rows;
    family_mode_[f] = decision.choice;
    if (choice_changed && tracer_ != nullptr) {
      char args[96];
      std::snprintf(args, sizeof(args), "{\"family\":%d,\"choice\":\"%s\"}",
                    static_cast<int32_t>(f),
                    PhysicalChoiceName(decision.choice));
      tracer_->Instant("adaptive.choice", 0, 0, args);
    }
    switch (decision.choice) {
      case PhysicalChoice::kScan:
        // The trees (if any) will be stale after this tick's writes.
        family.tree_valid = false;
        scan_decisions_->Add(1);
        break;
      case PhysicalChoice::kRebuild:
        rebuilds.push_back(&family);
        rebuild_decisions_->Add(1);
        break;
      case PhysicalChoice::kIncremental:
        deltas.push_back(DeltaJob{&family, std::move(dirty)});
        incremental_decisions_->Add(1);
        break;
    }
  }
  first_build_done_ = true;

  // --- execution pass. Delta jobs touch few rows; run them inline. The
  // rebuilt subset uses the same family/row fan-out as the base class.
  for (DeltaJob& job : deltas) {
    SGL_RETURN_NOT_OK(ApplyFamilyDelta(job.family, table, rnd, job.dirty));
  }
  return BuildFamilies(rebuilds, table, rnd, pool, stats);
}

Status AdaptiveAggregateProvider::ApplyFamilyDelta(
    Family* family, const EnvironmentTable& table, const TickRandom& rnd,
    const std::vector<RowId>& dirty) {
  const AggregateSignature& sig = *family->sig;
  const AggregateDecl& decl = script_->program.aggregates[sig.agg_index];
  const std::string* e_name = &decl.row_var;
  const int32_t m = static_cast<int32_t>(family->terms.size());
  const int32_t cols = family->num_cols();
  const int32_t p_dims = static_cast<int32_t>(sig.partitions.size());

  LocalStack no_params;
  std::vector<double> old_terms(cols), new_terms(cols);
  std::vector<double> old_comps(p_dims), new_comps(p_dims);
  for (RowId r : dirty) {
    // Re-evaluate the row's build inputs against the current table.
    bool new_pass = true;
    for (const Cond* filter : sig.build_filters) {
      SGL_ASSIGN_OR_RETURN(
          bool pass, interp_->EvalCondIn(*filter, table, nullptr, -1, e_name,
                                         r, &no_params, rnd, table.KeyAt(r)));
      if (!pass) {
        new_pass = false;
        break;
      }
    }
    double nx = 0.0, ny = 0.0;
    if (new_pass) {
      for (int32_t t = 0; t < m; ++t) {
        const FamilyTerm& term = family->terms[t];
        SGL_ASSIGN_OR_RETURN(
            Value v, interp_->EvalExprIn(*term.expr, table, nullptr, -1,
                                         term.e_name, r, &no_params, rnd,
                                         table.KeyAt(r)));
        if (!v.is_scalar()) {
          return Status::ExecutionError("aggregate term must be scalar");
        }
        new_terms[t] = v.scalar();
        if (family->squares) new_terms[m + t] = v.scalar() * v.scalar();
      }
      for (int32_t i = 0; i < p_dims; ++i) {
        new_comps[i] = table.Get(r, sig.partitions[i].attr);
      }
      nx = sig.ranges.size() > 0 ? table.Get(r, sig.ranges[0].attr) : 0.0;
      ny = sig.ranges.size() > 1 ? table.Get(r, sig.ranges[1].attr) : 0.0;
    }

    // Retract the contribution the trees hold for this row (snapshotted
    // by the last build or delta apply).
    if (family->row_passes[r]) {
      for (int32_t c = 0; c < cols; ++c) {
        old_terms[c] = family->term_cols[c][r];
      }
      for (int32_t i = 0; i < p_dims; ++i) {
        old_comps[i] = family->comps[static_cast<size_t>(r) * p_dims + i];
      }
      auto it = family->part_id_of.find(old_comps);
      if (it == family->part_id_of.end()) {
        return Status::Internal(
            "adaptive delta apply: stale partition missing for aggregate '",
            decl.name, "'");
      }
      family->div_trees.at(it->second)
          .RemovePoint(family->xs[r], family->ys[r], old_terms.data());
    }

    // Insert the row's new contribution, creating the partition if this
    // is the first time its component tuple appears.
    if (new_pass) {
      auto [it, inserted] =
          family->part_id_of.emplace(new_comps, family->next_part_id);
      if (inserted) {
        ++family->next_part_id;
        family->parts.push_back(PartitionEntry{new_comps, it->second});
        family->div_trees.emplace(
            it->second,
            LayeredRangeTree2D({}, std::vector<std::vector<double>>(cols)));
      }
      family->div_trees.at(it->second)
          .InsertPoint(nx, ny, new_terms.data());
    }

    // Refresh the caches: probes' self-exclusion and the next delta both
    // read them as "what the trees currently hold".
    family->row_passes[r] = new_pass ? 1 : 0;
    for (int32_t c = 0; c < cols; ++c) {
      family->term_cols[c][r] = new_pass ? new_terms[c] : 0.0;
    }
    if (new_pass) {
      for (int32_t i = 0; i < p_dims; ++i) {
        family->comps[static_cast<size_t>(r) * p_dims + i] = new_comps[i];
      }
      family->xs[r] = nx;
      family->ys[r] = ny;
    }
  }

  int64_t overlay = 0;
  for (const auto& [id, tree] : family->div_trees) {
    overlay += tree.delta_size();
  }
  family->overlay_points = overlay;
  return Status::OK();
}

std::string AdaptiveAggregateProvider::DescribeAggregatePhysical(
    int32_t agg_index) const {
  std::string base = IndexedAggregateProvider::DescribeAggregatePhysical(
      agg_index);
  if (family_of_agg_[agg_index] < 0) return base;
  const FamilyState& st = states_[family_of_agg_[agg_index]];
  std::ostringstream os;
  os << base << " -> " << PhysicalChoiceName(st.last.choice) << " ["
     << DescribeEstimate(st.last.est) << "; probes~"
     << static_cast<int64_t>(st.probes.Get(0.0)) << " churn "
     << st.last_dirty << "]";
  return os.str();
}

std::string AdaptiveAggregateProvider::DescribePlan() const {
  std::ostringstream os;
  os << IndexedAggregateProvider::DescribePlan();
  os << "Adaptive decisions (cost units; per family, latest tick):\n";
  for (size_t f = 0; f < families_.size(); ++f) {
    const Family& family = families_[f];
    const FamilyState& st = states_[f];
    os << "  family " << f << ": " << PhysicalChoiceName(st.last.choice)
       << "  est{" << DescribeEstimate(st.last.est) << "}"
       << "  observed{probes/tick~" << static_cast<int64_t>(st.probes.Get(0.0))
       << " last " << st.last_observed << ", dirty rows " << st.last_dirty
       << ", overlay " << family.overlay_points << "}\n";
  }
  os << "  lifetime decisions: " << rebuild_decisions_->value()
     << " rebuild, " << incremental_decisions_->value() << " incremental, "
     << scan_decisions_->value() << " scan\n";
  return os.str();
}

}  // namespace sgl
