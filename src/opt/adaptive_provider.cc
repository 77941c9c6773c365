#include "opt/adaptive_provider.h"

#include <algorithm>
#include <cstdio>

namespace sgl {

Result<std::unique_ptr<AdaptiveAggregateProvider>>
AdaptiveAggregateProvider::Create(const Script& script,
                                  const Interpreter& interp) {
  std::unique_ptr<AdaptiveAggregateProvider> provider(
      new AdaptiveAggregateProvider(script, interp));
  SGL_RETURN_NOT_OK(provider->Init());
  provider->states_.resize(provider->families_.size());
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
}

Status AdaptiveAggregateProvider::BuildIndexes(const EnvironmentTable& table,
                                               const TickRandom& rnd,
                                               exec::ThreadPool* pool,
                                               exec::ParallelStats* stats) {
  const int64_t rows = table.NumRows();

  // --- decision pass: sequential, before any build work, driven only by
  // counts, so the plan for the tick is a deterministic function of the
  // simulation state (never of thread scheduling or wall-clock).
  std::vector<Family*> rebuilds;
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
        std::max<int64_t>(1, static_cast<int64_t>(family.parts.count));
    in.builds_tree = sig.kind != IndexKind::kPartitionTotals;

    CostDecision decision = model_.Choose(in);
    if (has_forced_choice_) decision.choice = forced_choice_;
    // One instant per strategy switch (and per family's first decision):
    // the timeline shows when the cost model re-planned, without a
    // per-tick event flood for stable plans. The decision pass runs on
    // the tick runner before any parallel build, so shard 0 is safe.
    const bool choice_changed =
        !first_build_done_ || st.last.choice != decision.choice;
    st.last = decision;
    family_mode_[f] = decision.choice;
    if (choice_changed && tracer_ != nullptr) {
      char args[96];
      std::snprintf(args, sizeof(args), "{\"family\":%d,\"choice\":\"%s\"}",
                    static_cast<int32_t>(f),
                    PhysicalChoiceName(decision.choice));
      tracer_->Instant("adaptive.choice", 0, 0, args);
    }
    if (decision.choice == PhysicalChoice::kScan) {
      scan_decisions_->Add(1);
    } else {
      rebuilds.push_back(&family);
      rebuild_decisions_->Add(1);
    }
  }
  first_build_done_ = true;

  // --- execution pass: the rebuilt subset uses the same family/row
  // fan-out as the base class.
  return BuildFamilies(rebuilds, table, rnd, pool, stats);
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
     << static_cast<int64_t>(st.probes.Get(0.0)) << "]";
  return os.str();
}

std::string AdaptiveAggregateProvider::DescribePlan() const {
  std::ostringstream os;
  os << IndexedAggregateProvider::DescribePlan();
  os << "Adaptive decisions (cost units; per family, latest tick):\n";
  for (size_t f = 0; f < families_.size(); ++f) {
    const FamilyState& st = states_[f];
    os << "  family " << f << ": " << PhysicalChoiceName(st.last.choice)
       << "  est{" << DescribeEstimate(st.last.est) << "}"
       << "  observed{probes/tick~" << static_cast<int64_t>(st.probes.Get(0.0))
       << " last " << st.last_observed << "}\n";
  }
  os << "  lifetime decisions: " << rebuild_decisions_->value()
     << " rebuild, " << scan_decisions_->value() << " scan\n";
  return os.str();
}

}  // namespace sgl
