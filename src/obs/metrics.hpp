#pragma once
// obs::MetricsRegistry — named counters, gauges, and log-bucketed
// latency histograms shared by all four substrates.
//
// The hot path (Counter::add, Histogram::record) is a handful of
// relaxed atomic operations on pre-resolved handles: executors look the
// metric up once at construction and keep the reference, so no lock or
// map walk happens per item. Handles stay valid for the registry's
// lifetime (metrics are heap-allocated and never removed).
//
// Histograms bucket on a log scale — kSubBuckets buckets per octave —
// so p50/p90/p99/p999 come out of ~1k fixed counters instead of storing
// every sample. The representative value of a bucket is its midpoint:
// relative quantile error is bounded by 1/(2·kSubBuckets) ≈ 3%.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace gridpipe::obs {

/// Canonical metric names the substrates agree on, so RunReport
/// snapshots read uniformly across sim/threads/dist/process.
namespace names {
inline constexpr const char* kItemsPushed = "items_pushed";
inline constexpr const char* kItemsCompleted = "items_completed";
inline constexpr const char* kRemaps = "remaps";
inline constexpr const char* kEpochs = "epochs";
inline constexpr const char* kTelemetryBatches = "telemetry_batches";
inline constexpr const char* kHeartbeats = "heartbeats";
inline constexpr const char* kWorkerStalls = "worker_stalls";
inline constexpr const char* kItemLatency = "item_latency_seconds";
/// Virtual seconds from stream_push to admission (credit wait plus the
/// time the runtime takes to notice the push). item_latency_seconds
/// starts at admission, so this is the part of push->pop it cannot see.
inline constexpr const char* kAdmitWait = "admit_wait_seconds";
inline constexpr const char* kStageService = "stage_service_seconds";
inline constexpr const char* kEpochWall = "epoch_wall_seconds";
// Fault tolerance (process substrate with recovery enabled):
inline constexpr const char* kNodeLosses = "node_losses";
inline constexpr const char* kRespawns = "respawns";
inline constexpr const char* kItemsReplayed = "items_replayed";
inline constexpr const char* kItemsDeduped = "items_deduped";
inline constexpr const char* kRecoverySeconds = "recovery_seconds";
}  // namespace names

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  static constexpr int kSubBuckets = 16;  ///< buckets per octave
  static constexpr int kOctaves = 64;
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kSubBuckets) * kOctaves;
  /// Values at or below this land in bucket 0 (1 ns when recording
  /// seconds — far below anything the pipeline can resolve).
  static constexpr double kMinValue = 1e-9;

  void record(double value) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept;
  /// Smallest / largest recorded value (exact, not bucketed). 0 when empty.
  double min() const noexcept;
  double max() const noexcept;

  /// Quantile estimate for p in [0, 100]; 0 when empty. Bucket-accurate
  /// (≈3% relative), clamped into [min(), max()].
  double percentile(double p) const noexcept;

  /// Bucketing scheme, exposed so tests can pin the error bound.
  static std::size_t bucket_index(double value) noexcept;
  static double bucket_value(std::size_t index) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  ///< valid only when count_ > 0
  std::atomic<double> max_{0.0};
};

// ------------------------------------------------------------ snapshot

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
  friend bool operator==(const CounterSnapshot&,
                         const CounterSnapshot&) = default;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
  friend bool operator==(const GaugeSnapshot&, const GaugeSnapshot&) = default;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Point-in-time copy of a registry, cheap to keep inside a RunReport.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  const CounterSnapshot* find_counter(std::string_view name) const noexcept;
  const HistogramSnapshot* find_histogram(std::string_view name) const noexcept;

  std::string to_json() const;  ///< pretty-printed JSON document

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

// ------------------------------------------------------------ registry

class MetricsRegistry {
 public:
  /// Find-or-create; the returned reference lives as long as the
  /// registry. Name lookup takes a mutex — resolve handles once, not
  /// per sample.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

 private:
  template <class Map>
  auto& find_or_create(Map& map, std::string_view name)
      GRIDPIPE_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GRIDPIPE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GRIDPIPE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GRIDPIPE_GUARDED_BY(mutex_);
};

/// Pre-resolved handles for the standard per-run metrics. Substrates
/// bind once at construction; null registry → all handles null and
/// every record site reduces to one branch.
struct StandardMetrics {
  Counter* items_pushed = nullptr;
  Counter* items_completed = nullptr;
  Counter* remaps = nullptr;
  Counter* heartbeats = nullptr;
  Counter* worker_stalls = nullptr;
  Counter* node_losses = nullptr;
  Counter* respawns = nullptr;
  Counter* items_replayed = nullptr;
  Counter* items_deduped = nullptr;
  Histogram* item_latency = nullptr;
  Histogram* admit_wait = nullptr;
  Histogram* stage_service = nullptr;
  /// Virtual seconds from a worker-death detection until every item in
  /// flight at that moment had been delivered (one sample per recovery).
  Histogram* recovery_time = nullptr;

  void bind(MetricsRegistry* registry);
};

}  // namespace gridpipe::obs
