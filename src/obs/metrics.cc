#include "src/obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include "src/analysis/lockdep.h"

namespace cntr::obs {

size_t ThreadShardId() {
  static std::atomic<size_t> next{0};
  thread_local size_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// --- Histogram ---

size_t Histogram::BucketIndex(uint64_t v) {
  if (v < kSub) {
    return static_cast<size_t>(v);  // exact small buckets
  }
  int msb = 63 - __builtin_clzll(v);
  size_t octave = static_cast<size_t>(msb) - kSubBits + 1;
  size_t sub = static_cast<size_t>(v >> (msb - kSubBits)) & (kSub - 1);
  size_t idx = (octave << kSubBits) | sub;
  return idx < kBuckets ? idx : kBuckets - 1;
}

uint64_t Histogram::BucketUpperBound(size_t idx) {
  if (idx < kSub) {
    return idx;
  }
  if (idx >= kBuckets - 1) {
    return UINT64_MAX;  // the top bucket absorbs everything else
  }
  size_t octave = idx >> kSubBits;
  size_t sub = idx & (kSub - 1);
  int msb = static_cast<int>(octave) + static_cast<int>(kSubBits) - 1;
  uint64_t step = uint64_t{1} << (msb - static_cast<int>(kSubBits));
  uint64_t lo = (uint64_t{1} << msb) + sub * step;
  return lo + step - 1;
}

void Histogram::Record(uint64_t v) {
  Shard& s = shards_[ThreadShardId() & (kShards - 1)];
  s.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  uint64_t cur = s.max.load(std::memory_order_relaxed);
  while (cur < v &&
         !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  for (const Shard& s : shards_) {
    for (size_t i = 0; i < kBuckets; ++i) {
      uint64_t n = s.buckets[i].load(std::memory_order_relaxed);
      snap.buckets[i] += n;
      snap.count += n;
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, s.max.load(std::memory_order_relaxed));
  }
  return snap;
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  double rank = std::max(1.0, q * static_cast<double>(count));
  uint64_t cum = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) {
      continue;
    }
    double prev = static_cast<double>(cum);
    cum += buckets[i];
    if (static_cast<double>(cum) >= rank) {
      uint64_t lo = i == 0 ? 0 : BucketUpperBound(i - 1) + 1;
      uint64_t hi = BucketUpperBound(i);
      if (hi > max) {
        hi = std::max(max, lo);  // top/partial bucket: clamp to observed max
      }
      double frac = (rank - prev) / static_cast<double>(buckets[i]);
      double v = static_cast<double>(lo) + frac * static_cast<double>(hi - lo);
      return std::min(v, static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

// --- series keys ---

namespace {

void AppendEscaped(std::string* out, std::string_view v) {
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
}

std::string LabelBlock(const Labels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out += k;
    out += "=\"";
    AppendEscaped(&out, v);
    out += "\"";
  }
  out.push_back('}');
  return out;
}

// Splices an extra label into an existing label block ("" or "{...}").
std::string WithLabel(const std::string& block, std::string_view k, std::string_view v) {
  std::string extra;
  extra += k;
  extra += "=\"";
  AppendEscaped(&extra, v);
  extra += "\"";
  if (block.empty()) {
    return "{" + extra + "}";
  }
  std::string out = block.substr(0, block.size() - 1);
  out += ",";
  out += extra;
  out += "}";
  return out;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        out->push_back(c);
    }
  }
  out->push_back('"');
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string SeriesKey(std::string_view name, const Labels& labels) {
  return std::string(name) + LabelBlock(labels);
}

// --- MetricsRegistry ---

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(std::string_view name,
                                                      const Labels& labels, Kind kind) {
  std::string key = SeriesKey(name, labels);
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = series_.find(key);
  if (it != series_.end()) {
    return it->second.kind == kind ? &it->second : nullptr;
  }
  Entry& e = series_[key];
  e.kind = kind;
  e.name = std::string(name);
  switch (kind) {
    case Kind::kCounter:
      e.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      e.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      e.histogram = std::make_unique<Histogram>();
      break;
  }
  return &e;
}

Counter* MetricsRegistry::GetCounter(std::string_view name, Labels labels) {
  Entry* e = FindOrCreate(name, labels, Kind::kCounter);
  return e == nullptr ? nullptr : e->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, Labels labels) {
  Entry* e = FindOrCreate(name, labels, Kind::kGauge);
  return e == nullptr ? nullptr : e->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name, Labels labels) {
  Entry* e = FindOrCreate(name, labels, Kind::kHistogram);
  return e == nullptr ? nullptr : e->histogram.get();
}

uint64_t MetricsRegistry::AllocScope(std::string_view kind) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = scopes_.find(kind);
  if (it == scopes_.end()) {
    scopes_.emplace(std::string(kind), 1);
    return 0;
  }
  return it->second++;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  // Group series by family so each family gets exactly one # TYPE line
  // (the map is sorted by full key, which can interleave families).
  std::map<std::string, std::vector<const std::map<std::string, Entry>::value_type*>> families;
  for (const auto& kv : series_) {
    families[kv.second.name].push_back(&kv);
  }
  std::string out;
  char line[160];
  for (const auto& [family, entries] : families) {
    Kind kind = entries.front()->second.kind;
    const char* type = kind == Kind::kCounter ? "counter"
                       : kind == Kind::kHistogram ? "histogram"
                                                  : "gauge";
    out += "# TYPE " + family + " " + type + "\n";
    for (const auto* kv : entries) {
      const std::string& key = kv->first;
      const Entry& e = kv->second;
      std::string labels = key.substr(e.name.size());  // "" or "{...}"
      switch (e.kind) {
        case Kind::kCounter:
          std::snprintf(line, sizeof(line), " %" PRIu64 "\n", e.counter->Value());
          out += key;
          out += line;
          break;
        case Kind::kGauge:
          std::snprintf(line, sizeof(line), " %" PRId64 "\n", e.gauge->Value());
          out += key;
          out += line;
          break;
        case Kind::kHistogram: {
          Histogram::Snapshot snap = e.histogram->Snap();
          uint64_t cum = 0;
          for (size_t i = 0; i < Histogram::kBuckets; ++i) {
            if (snap.buckets[i] == 0) {
              continue;  // only occupied edges; cumulative values still correct
            }
            cum += snap.buckets[i];
            std::snprintf(line, sizeof(line), " %" PRIu64 "\n", cum);
            out += e.name + "_bucket" +
                   WithLabel(labels, "le",
                             std::to_string(Histogram::BucketUpperBound(i)));
            out += line;
          }
          std::snprintf(line, sizeof(line), " %" PRIu64 "\n", snap.count);
          out += e.name + "_bucket" + WithLabel(labels, "le", "+Inf");
          out += line;
          std::snprintf(line, sizeof(line), " %" PRIu64 "\n", snap.sum);
          out += e.name + "_sum" + labels;
          out += line;
          std::snprintf(line, sizeof(line), " %" PRIu64 "\n", snap.count);
          out += e.name + "_count" + labels;
          out += line;
          for (double q : {0.5, 0.95, 0.99}) {
            out += e.name + WithLabel(labels, "quantile", FormatDouble(q));
            out += " " + FormatDouble(snap.Quantile(q)) + "\n";
          }
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  std::string counters, gauges, hists;
  char num[64];
  for (const auto& [key, e] : series_) {
    switch (e.kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ",";
        AppendJsonString(&counters, key);
        std::snprintf(num, sizeof(num), ":%" PRIu64, e.counter->Value());
        counters += num;
        break;
      case Kind::kGauge:
        if (!gauges.empty()) gauges += ",";
        AppendJsonString(&gauges, key);
        std::snprintf(num, sizeof(num), ":%" PRId64, e.gauge->Value());
        gauges += num;
        break;
      case Kind::kHistogram: {
        Histogram::Snapshot snap = e.histogram->Snap();
        if (!hists.empty()) hists += ",";
        AppendJsonString(&hists, key);
        std::snprintf(num, sizeof(num), ":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64,
                      snap.count, snap.sum);
        hists += num;
        std::snprintf(num, sizeof(num), ",\"max\":%" PRIu64, snap.max);
        hists += num;
        hists += ",\"mean\":" + FormatDouble(snap.Mean());
        hists += ",\"p50\":" + FormatDouble(snap.Quantile(0.5));
        hists += ",\"p95\":" + FormatDouble(snap.Quantile(0.95));
        hists += ",\"p99\":" + FormatDouble(snap.Quantile(0.99));
        hists += "}";
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + hists + "}}";
}

}  // namespace cntr::obs
