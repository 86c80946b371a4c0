#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/json.hpp"

namespace gridpipe::obs {

namespace {

/// Relaxed CAS fold for atomic min/max over doubles.
template <class Better>
void fold_atomic(std::atomic<double>& slot, double value, Better better) {
  double cur = slot.load(std::memory_order_relaxed);
  while (better(value, cur) &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::size_t Histogram::bucket_index(double value) noexcept {
  if (!(value > kMinValue)) return 0;  // also catches NaN
  const double ratio = value / kMinValue;
  // Beyond double range the frexp decomposition (and the int cast below)
  // is meaningless; such a value is by definition off the top end.
  if (!std::isfinite(ratio)) return kNumBuckets - 1;
  int exp = 0;
  const double frac = std::frexp(ratio, &exp);
  // value/kMinValue = frac * 2^exp with frac in [0.5, 1), exp >= 1.
  int sub = static_cast<int>((frac * 2.0 - 1.0) * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  const long idx = static_cast<long>(exp - 1) * kSubBuckets + sub;
  return static_cast<std::size_t>(
      std::clamp(idx, 0L, static_cast<long>(kNumBuckets) - 1));
}

double Histogram::bucket_value(std::size_t index) noexcept {
  const std::size_t octave = index / kSubBuckets;
  const std::size_t sub = index % kSubBuckets;
  const double base = kMinValue * std::ldexp(1.0, static_cast<int>(octave));
  // Bucket spans [base·(1 + sub/k), base·(1 + (sub+1)/k)); midpoint.
  return base * (1.0 + (static_cast<double>(sub) + 0.5) / kSubBuckets);
}

void Histogram::record(double value) noexcept {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    // First sample seeds min/max; racing recorders converge via the
    // folds below (min_ starts at 0.0, so fold min explicitly).
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  }
  fold_atomic(min_, value, [](double a, double b) { return a < b; });
  fold_atomic(max_, value, [](double a, double b) { return a > b; });
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::min() const noexcept {
  return count() ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const noexcept {
  return count() ? max_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::percentile(double p) const noexcept {
  std::array<std::uint64_t, kNumBuckets> counts;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(p/100 · total), at least 1.
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(clamped / 100.0 * static_cast<double>(total))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= target) {
      return std::clamp(bucket_value(i), min(), max());
    }
  }
  return max();
}

// ------------------------------------------------------------ registry

template <class Map>
auto& MetricsRegistry::find_or_create(Map& map, std::string_view name) {
  using T = typename Map::mapped_type::element_type;
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<T>()).first;
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const util::MutexLock lock(mutex_);
  return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const util::MutexLock lock(mutex_);
  return find_or_create(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const util::MutexLock lock(mutex_);
  return find_or_create(histograms_, name);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const util::MutexLock lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.mean = h->mean();
    hs.min = h->min();
    hs.max = h->max();
    hs.p50 = h->percentile(50.0);
    hs.p90 = h->percentile(90.0);
    hs.p99 = h->percentile(99.0);
    hs.p999 = h->percentile(99.9);
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

const CounterSnapshot* MetricsSnapshot::find_counter(
    std::string_view name) const noexcept {
  for (const CounterSnapshot& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    std::string_view name) const noexcept {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::to_json() const {
  util::Json root = util::Json::object();
  util::Json& jc = root["counters"];
  jc = util::Json::object();
  for (const CounterSnapshot& c : counters) jc[c.name] = c.value;
  util::Json& jg = root["gauges"];
  jg = util::Json::object();
  for (const GaugeSnapshot& g : gauges) jg[g.name] = g.value;
  util::Json& jh = root["histograms"];
  jh = util::Json::object();
  for (const HistogramSnapshot& h : histograms) {
    util::Json& j = jh[h.name];
    j["count"] = h.count;
    j["mean"] = h.mean;
    j["min"] = h.min;
    j["max"] = h.max;
    j["p50"] = h.p50;
    j["p90"] = h.p90;
    j["p99"] = h.p99;
    j["p999"] = h.p999;
  }
  return root.dump(2) + "\n";
}

void StandardMetrics::bind(MetricsRegistry* registry) {
  if (!registry) {
    *this = StandardMetrics{};
    return;
  }
  items_pushed = &registry->counter(names::kItemsPushed);
  items_completed = &registry->counter(names::kItemsCompleted);
  remaps = &registry->counter(names::kRemaps);
  heartbeats = &registry->counter(names::kHeartbeats);
  worker_stalls = &registry->counter(names::kWorkerStalls);
  node_losses = &registry->counter(names::kNodeLosses);
  respawns = &registry->counter(names::kRespawns);
  items_replayed = &registry->counter(names::kItemsReplayed);
  items_deduped = &registry->counter(names::kItemsDeduped);
  item_latency = &registry->histogram(names::kItemLatency);
  admit_wait = &registry->histogram(names::kAdmitWait);
  stage_service = &registry->histogram(names::kStageService);
  recovery_time = &registry->histogram(names::kRecoverySeconds);
}

}  // namespace gridpipe::obs
