#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace sgl {
namespace obs {

int64_t Histogram::count() const {
  int64_t total = 0;
  for (const Shard& s : shards_) total += s.count;
  return total;
}

int64_t Histogram::sum() const {
  int64_t total = 0;
  for (const Shard& s : shards_) total += s.sum;
  return total;
}

int64_t Histogram::bucket_count(size_t b) const {
  int64_t total = 0;
  for (const Shard& s : shards_) {
    if (b < s.buckets.size()) total += s.buckets[b];
  }
  return total;
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    s.count = 0;
    s.sum = 0;
    std::fill(s.buckets.begin(), s.buckets.end(), 0);
  }
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     uint32_t flags) {
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) {
    slot.reset(new Counter());
    slot->name_ = name;
    slot->slots_.resize(static_cast<size_t>(num_shards_));
  }
  slot->flags_ |= flags;
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, uint32_t flags) {
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) {
    slot.reset(new Gauge());
    slot->name_ = name;
  }
  slot->flags_ |= flags;
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<int64_t> edges,
                                         uint32_t flags) {
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) {
    slot.reset(new Histogram());
    slot->name_ = name;
    slot->edges_ = std::move(edges);
    slot->shards_.resize(static_cast<size_t>(num_shards_));
    for (Histogram::Shard& s : slot->shards_) {
      s.buckets.assign(slot->edges_.size() + 1, 0);
    }
  }
  slot->flags_ |= flags;
  return slot.get();
}

void MetricsRegistry::SetNumShards(int32_t num_shards) {
  num_shards_ = std::max<int32_t>(1, num_shards);
  const size_t n = static_cast<size_t>(num_shards_);
  for (auto& entry : counters_) {
    entry.second->slots_.resize(n);
  }
  for (auto& entry : histograms_) {
    Histogram& h = *entry.second;
    h.shards_.resize(n);
    for (Histogram::Shard& s : h.shards_) {
      if (s.buckets.size() != h.edges_.size() + 1) {
        s.buckets.assign(h.edges_.size() + 1, 0);
      }
    }
  }
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::Values(
    bool deterministic_only) const {
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(counters_.size() + gauges_.size());
  for (const auto& entry : counters_) {
    if (deterministic_only &&
        (entry.second->flags() & kMetricExecDependent) != 0) {
      continue;
    }
    out.emplace_back(entry.first, entry.second->value());
  }
  for (const auto& entry : gauges_) {
    if (deterministic_only &&
        (entry.second->flags() & kMetricExecDependent) != 0) {
      continue;
    }
    out.emplace_back(entry.first, entry.second->value());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::FlatValues(
    bool deterministic_only) const {
  std::vector<std::pair<std::string, int64_t>> out =
      Values(deterministic_only);
  for (const auto& entry : histograms_) {
    const Histogram& h = *entry.second;
    if (deterministic_only && (h.flags() & kMetricExecDependent) != 0) {
      continue;
    }
    const std::string prefix = entry.first + ".";
    out.emplace_back(prefix + "count", h.count());
    out.emplace_back(prefix + "sum", h.sum());
    for (size_t b = 0; b <= h.edges().size(); ++b) {
      out.emplace_back(prefix + "bucket." +
                           (b < h.edges().size()
                                ? std::to_string(h.edges()[b])
                                : std::string("inf")),
                       h.bucket_count(b));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string MetricsRegistry::ToJson(bool deterministic_only) const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& entry : counters_) {
    if (deterministic_only &&
        (entry.second->flags() & kMetricExecDependent) != 0) {
      continue;
    }
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(entry.first) << "\":" << entry.second->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& entry : gauges_) {
    if (deterministic_only &&
        (entry.second->flags() & kMetricExecDependent) != 0) {
      continue;
    }
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(entry.first) << "\":" << entry.second->value();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& entry : histograms_) {
    const Histogram& h = *entry.second;
    if (deterministic_only && (h.flags() & kMetricExecDependent) != 0) {
      continue;
    }
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(entry.first) << "\":{\"edges\":[";
    for (size_t i = 0; i < h.edges().size(); ++i) {
      if (i > 0) os << ",";
      os << h.edges()[i];
    }
    os << "],\"buckets\":[";
    for (size_t b = 0; b <= h.edges().size(); ++b) {
      if (b > 0) os << ",";
      os << h.bucket_count(b);
    }
    os << "],\"count\":" << h.count() << ",\"sum\":" << h.sum() << "}";
  }
  os << "}}";
  return os.str();
}

void MetricsRegistry::Reset() {
  for (auto& entry : counters_) entry.second->Reset();
  for (auto& entry : gauges_) entry.second->Reset();
  for (auto& entry : histograms_) entry.second->Reset();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace sgl
