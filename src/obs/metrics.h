// Unified metrics registry — the counter substrate of the observability
// layer (src/obs/).
//
// Every subsystem counter that used to live in a bespoke tally struct
// (PhaseStats fields, the indexed provider's probe tallies, the sharing
// memo counters, adaptive decisions, the VM's execution atomics) is a
// named metric in one per-simulation registry: typed handles with
// cache-line-padded per-shard storage, merged on read into one snapshot.
// Handles are raw pointers into the registry and stay valid for its
// lifetime; the write path (Counter::Add on a shard-private slot) is
// exactly the old tally increment — one int64 bump on a cache line no
// other shard touches, no atomics, no locks.
//
// Determinism contract: a metric flagged kMetricExecDependent depends on
// wall-clock time or on the execution schedule (thread count, chunk
// boundaries, memo publish races); every other metric is a pure count of
// simulation events and must be bit-identical across thread counts.
// ToJson(/*deterministic_only=*/true) renders only the deterministic
// subset — the form tests compare across {1,4,8} threads.
//
// Thread safety: Add/Set/Record on distinct shard ids never race (each
// shard owns its padded slot); GetCounter/GetGauge/GetHistogram,
// SetNumShards, and the read-side merges are build-time / between-phase
// operations, single-threaded by construction (same discipline as the
// tally structs this module replaces).
#ifndef SGL_OBS_METRICS_H_
#define SGL_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace sgl {
namespace obs {

enum MetricFlags : uint32_t {
  kMetricNone = 0,
  /// The value depends on wall-clock time or the execution schedule
  /// (thread count / chunking / memo races) and is excluded from
  /// deterministic snapshots.
  kMetricExecDependent = 1u << 0,
};

/// Monotonic per-shard event count. Writers on distinct shards touch
/// distinct cache lines; value() merges between phases.
class Counter {
 public:
  void Add(int64_t delta, int32_t shard = 0) {
    const size_t s = static_cast<size_t>(shard);
    // Out-of-range shards (a caller that skipped SetNumShards) fold into
    // slot 0 rather than write past the array; concurrent callers must
    // size their shards first, exactly as with the old tally vectors.
    slots_[s < slots_.size() ? s : 0].v += delta;
  }

  int64_t value() const {
    int64_t total = 0;
    for (const Slot& s : slots_) total += s.v;
    return total;
  }

  void Reset() {
    for (Slot& s : slots_) s.v = 0;
  }

  const std::string& name() const { return name_; }
  uint32_t flags() const { return flags_; }

 private:
  friend class MetricsRegistry;

  /// One cache line per shard: workers bump their own slot without false
  /// sharing (the same layout the bespoke tally structs used).
  struct alignas(64) Slot {
    int64_t v = 0;
  };

  std::string name_;
  uint32_t flags_ = kMetricNone;
  std::vector<Slot> slots_{1};
};

/// A last-value (or running-max) metric, written by the coordinating
/// thread only (e.g. the max parallel fan-out a phase observed).
class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void SetMax(int64_t v) {
    if (v > value_) value_ = v;
  }
  int64_t value() const { return value_; }
  void Reset() { value_ = 0; }

  const std::string& name() const { return name_; }
  uint32_t flags() const { return flags_; }

 private:
  friend class MetricsRegistry;

  std::string name_;
  uint32_t flags_ = kMetricNone;
  int64_t value_ = 0;
};

/// A histogram over explicit integer bucket edges. Bucket b counts values
/// <= edges[b]; the last bucket is unbounded. Only integer counts and an
/// integer sum are kept (integer addition is associative, so merged
/// snapshots of deterministic histograms stay bit-identical across
/// thread counts — a double sum would not).
class Histogram {
 public:
  void Record(int64_t value, int32_t shard = 0) {
    const size_t s = static_cast<size_t>(shard);
    Shard& sh = shards_[s < shards_.size() ? s : 0];
    size_t b = 0;
    while (b < edges_.size() && value > edges_[b]) ++b;
    ++sh.buckets[b];
    ++sh.count;
    sh.sum += value;
  }

  int64_t count() const;
  int64_t sum() const;
  /// Merged count of bucket `b`, b in [0, edges().size()].
  int64_t bucket_count(size_t b) const;
  const std::vector<int64_t>& edges() const { return edges_; }
  void Reset();

  const std::string& name() const { return name_; }
  uint32_t flags() const { return flags_; }

 private:
  friend class MetricsRegistry;

  struct alignas(64) Shard {
    int64_t count = 0;
    int64_t sum = 0;
    std::vector<int64_t> buckets;
  };

  std::string name_;
  uint32_t flags_ = kMetricNone;
  std::vector<int64_t> edges_;
  std::vector<Shard> shards_;
};

/// The per-simulation metric store. Get* registers on first use and
/// returns the existing handle afterwards (flags are OR-merged, so a
/// rebinding caller can add kMetricExecDependent to a live metric).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, uint32_t flags = kMetricNone);
  Gauge* GetGauge(const std::string& name, uint32_t flags = kMetricNone);
  /// `edges` is consulted on first registration only.
  Histogram* GetHistogram(const std::string& name, std::vector<int64_t> edges,
                          uint32_t flags = kMetricNone);

  /// Size every sharded metric (current and future) for up to
  /// `num_shards` concurrent writers. Build-time only.
  void SetNumShards(int32_t num_shards);
  int32_t num_shards() const { return num_shards_; }

  /// Name-sorted (name, merged value) pairs of every counter and gauge —
  /// the flight recorder diffs consecutive calls to derive per-tick
  /// deltas.
  std::vector<std::pair<std::string, int64_t>> Values(
      bool deterministic_only = false) const;

  /// Values() plus every histogram flattened into "<name>.count",
  /// "<name>.sum" and one "<name>.bucket.<edge>" per bucket ("inf" for
  /// the unbounded one), name-sorted — for flat one-object exporters.
  std::vector<std::pair<std::string, int64_t>> FlatValues(
      bool deterministic_only = false) const;

  /// One-line JSON snapshot:
  ///   {"counters":{...},"gauges":{...},"histograms":{...}}
  /// with names sorted, so two snapshots of identical state are
  /// byte-identical. `deterministic_only` drops every metric flagged
  /// kMetricExecDependent.
  std::string ToJson(bool deterministic_only = false) const;

  /// Zero every metric; handles stay valid.
  void Reset();

 private:
  int32_t num_shards_ = 1;
  // std::map: name-sorted iteration and stable handle addresses.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Minimal JSON string escaping (quotes, backslashes, control chars) for
/// the exporters in this module and the tracer's args payloads.
std::string JsonEscape(const std::string& s);

}  // namespace obs
}  // namespace sgl

#endif  // SGL_OBS_METRICS_H_
