#include "opt/cost.h"

#include <cmath>
#include <sstream>

namespace sgl {

namespace {

/// log2 clamped below at 1: even a tiny tree pays one level of descent,
/// and the clamp keeps the model monotone near empty tables.
double Log2Floor1(int64_t n) {
  return n > 2 ? std::log2(static_cast<double>(n)) : 1.0;
}

}  // namespace

const char* PhysicalChoiceName(PhysicalChoice choice) {
  switch (choice) {
    case PhysicalChoice::kScan: return "scan";
    case PhysicalChoice::kRebuild: return "rebuild";
  }
  return "?";
}

CostDecision CostModel::Choose(const FamilyCostInputs& in) const {
  const double rows = static_cast<double>(in.rows);
  const double probes = in.expected_probes;
  // A tree costs log n per row to build and log n per probe to descend;
  // partition totals pay neither.
  const double log_n = in.builds_tree ? Log2Floor1(in.rows) : 0.0;

  CostDecision d;
  // Per-probe cost of answering through the family's structures. Every
  // probe evaluates its filters and partition values (probe_base), then
  // reads one structure per matching partition.
  const double probe_cost =
      k_.probe_base + k_.probe_log * log_n +
      k_.probe_partition * static_cast<double>(in.partitions - 1);

  d.est.scan = probes * rows * k_.scan_row + k_.probe_base * probes;
  d.est.rebuild =
      rows * static_cast<double>(in.build_passes) * k_.build_row_pass +
      rows * log_n * k_.build_point + probes * probe_cost;
  // Strict less: an equal-cost tie keeps the paper's default.
  d.choice = d.est.scan < d.est.rebuild ? PhysicalChoice::kScan
                                        : PhysicalChoice::kRebuild;
  return d;
}

std::string DescribeEstimate(const CostEstimate& est) {
  std::ostringstream os;
  os.precision(3);
  os << "scan=" << est.scan << " rebuild=" << est.rebuild;
  return os.str();
}

}  // namespace sgl
