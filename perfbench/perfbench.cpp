// gridpipe_perfbench — the wall-clock benchmark of the adaptive pipeline.
//
// One driver thread in one process loads the runtime through the public
// rt API only (rt::make_runtime, Session::push / try_pop / close /
// report). It pushes, and it polls try_pop every kPollCadence, because
// try_pop never blocks. Every output is checked against the reference
// PipelineSpec::run_inline output: in order, exactly once, same bytes.
//
//   gridpipe_perfbench --workload saturate|trickle|adapt --seed N
//                      --seconds S --trace 0|1 [--tiny] [--corrupt]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs traced and
// untraced sessions alternately and prints the per-layer metrics. A
// traced session's stage functions stamp steady_clock (CLOCK_MONOTONIC,
// shared with forked workers) entry/exit times into each item's header,
// so the layers are measured from outside the program. The spans are
// kept in memory and written as Chrome trace-event JSON to
// .bench_out/<workload>-seed<N>.trace.json. --tiny shrinks every workload for
// the self-test; --corrupt flips one byte of one output to prove the
// check counts it. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is nonzero if any item failed. See README.md.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <any>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/codec.hpp"
#include "core/pipeline_spec.hpp"
#include "grid/builders.hpp"
#include "rt/runtime.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace gridpipe;
using core::Bytes;
using rt::RuntimeKind;

// ------------------------------------------------------------ clocks

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void sleep_until_ns(std::uint64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(static_cast<std::int64_t>(t))));
}

double us_between(std::uint64_t from, std::uint64_t to) {
  return (static_cast<double>(to) - static_cast<double>(from)) / 1e3;
}

struct CpuTimes {
  double self_us = 0, thread_us = 0, children_us = 0;
};

double rusage_us(int who) {
  rusage u{};
  getrusage(who, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

CpuTimes cpu_now() {
  return {rusage_us(RUSAGE_SELF), rusage_us(RUSAGE_THREAD),
          rusage_us(RUSAGE_CHILDREN)};
}

// ------------------------------------------------------ statistics

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

// ----------------------------------------------------------- memory

/// Resets this process's peak resident set (VmHWM) to its current size.
/// False where /proc/self/clear_refs cannot be written.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  return !f.fail();
}

/// VmHWM from /proc/self/status, in MB; 0 if it cannot be read.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// The whole run's peak resident set, in MB.
double max_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

// ----------------------------------------------------------- items
//
// An item is one core::Bytes frame: [id u64][entry,exit u64 per stage]
// [body]. The stamp slots exist in traced and untraced runs alike, so the
// two differ only in the clock reads; they stay zero when untraced.

constexpr std::size_t kStages = 6;
constexpr std::size_t kHeader = 8 + 16 * kStages;
constexpr std::size_t entry_slot(std::size_t k) { return 8 + 16 * k; }
constexpr std::size_t exit_slot(std::size_t k) { return 16 + 16 * k; }

std::uint64_t load_u64(const Bytes& b, std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + off, sizeof v);
  return v;
}

void store_u64(Bytes& b, std::size_t off, std::uint64_t v) {
  std::memcpy(b.data() + off, &v, sizeof v);
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// The benchmark's stage work: a cheap bijective per-word mix of the body.
void transform(Bytes& b, std::size_t stage) {
  const std::uint64_t key = 0x9E3779B97F4A7C15ull * (stage + 1);
  std::byte* p = b.data() + kHeader;
  const std::size_t n = b.size() - kHeader;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    w = std::rotl(w ^ key, 17) + key;
    std::memcpy(p + i, &w, 8);
  }
  for (; i < n; ++i) p[i] ^= static_cast<std::byte>(key >> 8);
}

// Digest of the id and body; the stamp slots are skipped because a
// traced run writes times there.
std::uint64_t digest(const Bytes& b) {
  std::uint64_t h = 0x243F6A8885A308D3ull ^ b.size();
  auto mix = [&h](std::uint64_t w) {
    h = (h ^ w) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 32;
  };
  mix(load_u64(b, 0));
  std::size_t i = kHeader;
  for (; i + 8 <= b.size(); i += 8) mix(load_u64(b, i));
  for (; i < b.size(); ++i) mix(static_cast<std::uint64_t>(b[i]));
  return h;
}

// ------------------------------------------------------- workloads

struct Workload {
  std::string name;
  grid::Grid grid;
  /// The sim always replays on the oscillating scenario with adaptation
  /// on, so every workload measures the control layer there too.
  grid::Grid sim_grid;
  sched::PipelineProfile profile;  ///< cost annotations of the stages
  std::size_t body_bytes = 64;
  double time_scale = 0.01;
  bool emulate_compute = false;
  double epoch = 0.0;  ///< live substrates: virtual s between epochs; 0 = off
  bool open_loop = false;
  double rate_per_s = 0.0;     ///< open loop: Poisson arrival rate
  std::size_t items = 0;       ///< items per session
  /// Bound by the CPU: rates and latencies are scaled to the reference
  /// host speed (see host_calibration_us).
  bool cpu_bound = false;
  sim::SimConfig::ServiceModel sim_service =
      sim::SimConfig::ServiceModel::kDeterministic;
};

grid::Grid base_cluster() {
  return grid::heterogeneous_cluster({2.0, 1.0, 1.0, 0.8}, 1e-3, 1e8);
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  w.name = name;
  w.profile = workload::reference_profile();
  w.sim_grid = workload::find_scenario("oscillating", seed).grid;
  if (name == "saturate") {
    w.grid = base_cluster();
    w.body_bytes = 64;
    w.items = tiny ? 400 : 20000;
    w.cpu_bound = true;
    w.sim_service = sim::SimConfig::ServiceModel::kExponential;
  } else if (name == "trickle") {
    w.grid = base_cluster();
    w.body_bytes = 100000;  // the reference profile's msg_bytes
    w.open_loop = true;
    w.rate_per_s = 800.0;
    w.items = tiny ? 40 : 1000;
    w.sim_service = sim::SimConfig::ServiceModel::kExponential;
  } else if (name == "adapt") {
    w.grid = w.sim_grid;
    w.body_bytes = 64;
    w.time_scale = 0.002;
    w.emulate_compute = true;
    w.epoch = 10.0;
    w.items = tiny ? 40 : 400;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (saturate | trickle | adapt)");
  }
  // Messages are annotated with their real size, except on adapt, which
  // keeps the oscillating scenario's reference profile as it is.
  if (name != "adapt") {
    w.profile.msg_bytes.assign(kStages + 1,
                               static_cast<double>(kHeader + w.body_bytes));
  }
  return w;
}

core::PipelineSpec make_spec(const Workload& w, bool traced) {
  core::PipelineSpec spec;
  for (std::size_t k = 0; k < kStages; ++k) {
    spec.stage<Bytes, Bytes>(
        "s" + std::to_string(k),
        [k, traced](Bytes b) {
          if (b.size() < kHeader) {
            throw std::invalid_argument("perfbench: item shorter than header");
          }
          if (traced) store_u64(b, entry_slot(k), now_ns());
          transform(b, k);
          if (traced) store_u64(b, exit_slot(k), now_ns());
          return b;
        },
        w.profile.stage_work[k], w.profile.msg_bytes[k + 1],
        w.profile.state_bytes[k]);
  }
  spec.input_bytes(w.profile.msg_bytes[0]);
  return spec;
}

constexpr double kSimEpoch = 10.0;  // virtual s between the sim's epochs
// The DES costs about 23 µs of host time per item with adaptation on;
// 2000 items already span ~30 oscillation periods.
constexpr std::size_t kSimItems = 2000;

/// `stream` tells a run's sessions apart: each draws its own probe noise
/// (and, on the sim, its own service times) from the run's seed.
rt::RuntimeOptions make_options(const Workload& w, RuntimeKind kind,
                                std::uint64_t seed, std::uint64_t stream) {
  rt::RuntimeOptions o;
  o.time_scale = w.time_scale;
  o.emulate_compute = w.emulate_compute;
  o.adapt.epoch = kind == RuntimeKind::kSim ? kSimEpoch : w.epoch;
  o.seed = seed * 1000003 + stream;
  o.sim_config.seed = o.seed;
  o.sim_config.service_model = w.sim_service;
  return o;
}

/// The items of one run: distinct seeded bodies (one per item, or a
/// pool of 16 for large items), each framed with its id on demand.
class ItemSource {
 public:
  ItemSource(const Workload& w, std::uint64_t seed) {
    const std::size_t distinct = w.body_bytes > 4096 ? 16 : w.items;
    bodies_.resize(distinct);
    std::uint64_t state = seed * 0x2545F4914F6CDD1Dull + 1;
    for (auto& body : bodies_) {
      body.resize(w.body_bytes);
      for (std::size_t i = 0; i < body.size(); i += 8) {
        const std::uint64_t r = splitmix64(state);
        std::memcpy(body.data() + i, &r, std::min<std::size_t>(8, body.size() - i));
      }
    }
  }
  Bytes item(std::uint64_t id) const {
    const Bytes& body = bodies_[id % bodies_.size()];
    Bytes b(kHeader + body.size());
    store_u64(b, 0, id);
    std::memcpy(b.data() + kHeader, body.data(), body.size());
    return b;
  }

 private:
  std::vector<Bytes> bodies_;
};

// -------------------------------------------------- host calibration
//
// A fixed single-threaded computation of the benchmark's own: the stage
// transform and the digest over 64 KiB, 16 times. Its time follows how
// fast the shared host runs this machine at the moment, which drifts by
// about ±10% over minutes. A CPU-bound workload's figures are scaled to a
// host on which it takes kReferenceCalibrationUs (about a shared 4-core
// x86 VM), so that drift does not read as a change of the program.

constexpr double kReferenceCalibrationUs = 400.0;

double host_calibration_us() {
  Bytes b(kHeader + 65536, std::byte{1});
  volatile std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < 16; ++i) {
    transform(b, i % kStages);
    sink = sink ^ digest(b);
  }
  return us_between(t0, now_ns());
}

// --------------------------------------------------------- sessions

constexpr std::uint64_t kPollCadenceNs = 50'000;  // try_pop poll cadence
// Closed loop: items pushed but not yet popped, far above the credit
// window (2·Ns = 12), so the runtime always has admitted work queued.
constexpr std::uint64_t kBacklog = 64;
constexpr double kFailedLatencyUs = 1e12;  // a failed item misses any limit
constexpr std::size_t kTracedItemsKept = 300;  // per traced session...
constexpr std::size_t kMaxSpans = 60'000;      // ...and per run
constexpr double kStallSeconds = 60.0;  // no push or pop for this long: give up

struct Span {
  std::string name;
  std::uint64_t start = 0, end = 0;
  std::uint64_t id = 0, parent = 0, item = 0;
  int lane = 0;
};

struct SessionStats {
  RuntimeKind kind = RuntimeKind::kThreads;
  bool traced = false;
  bool probe = false;  // one-item set-up probe, not a measured session
  std::uint64_t offered = 0, failed = 0;
  double make_ms = 0, open_ms = 0, drain_ms = 0, replay_ms = 0;
  double items_per_s = 0, items_per_vs = 0;
  std::vector<double> latency_us, push_us, gen_late_us;
  double latency_p50_us = 0, latency_p99_us = 0;  // this session's own
  std::uint64_t polls = 0, hits = 0;
  CpuTimes cpu;  // deltas over the session's lifetime
  std::vector<control::EpochRecord> epochs;
  std::vector<sim::RemapEvent> remaps;
  // traced layers, µs
  std::vector<double> ingress, hop, egress, stage;
  std::string error;
};

struct Context {
  const Workload& w;
  std::uint64_t seed;
  const ItemSource& source;
  const std::vector<std::uint64_t>& expected;  // digest per item id
  bool corrupt_once;
  std::vector<Span>* spans;
  std::uint64_t next_span_id = 1;
};

std::vector<std::uint64_t> poisson_offsets(std::size_t n, double rate,
                                           std::uint64_t seed) {
  // n Poisson arrivals conditioned on their count: uniform order
  // statistics over [0, n / rate), so every session offers the same
  // mean rate while gaps stay exponential-like and bursty.
  std::mt19937_64 rng(seed);
  const double span_ns = static_cast<double>(n) / rate * 1e9;
  std::vector<std::uint64_t> out(n);
  for (auto& t : out) {
    t = static_cast<std::uint64_t>(
        std::generate_canonical<double, 53>(rng) * span_ns);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void record_item_spans(Context& ctx, RuntimeKind kind, std::uint64_t id,
                       std::uint64_t due, std::uint64_t push_ret,
                       std::uint64_t pop, const std::uint64_t* stamps) {
  const int lane = kind == RuntimeKind::kThreads ? 1 : 2;
  auto add = [&](std::string name, std::uint64_t s, std::uint64_t e,
                 std::uint64_t parent) {
    const std::uint64_t sid = ctx.next_span_id++;
    ctx.spans->push_back({std::move(name), s, e, sid, parent, id, lane});
    return sid;
  };
  const std::uint64_t root = add("item", due, pop, 0);
  add("push", due, push_ret, root);
  add("ingress", push_ret, stamps[0], root);
  for (std::size_t k = 0; k < kStages; ++k) {
    add("stage s" + std::to_string(k), stamps[2 * k], stamps[2 * k + 1], root);
    if (k + 1 < kStages) {
      add("hop s" + std::to_string(k) + "-s" + std::to_string(k + 1),
          stamps[2 * k + 1], stamps[2 * k + 2], root);
    }
  }
  add("egress", stamps[2 * kStages - 1], pop, root);
}

/// One measured (or probe) session on a live substrate.
SessionStats run_live(Context& ctx, RuntimeKind kind, bool traced,
                      std::size_t n, std::uint64_t round, bool probe) {
  const Workload& w = ctx.w;
  SessionStats st;
  st.kind = kind;
  st.traced = traced;
  st.probe = probe;
  st.offered = n;
  std::vector<std::uint64_t> due(n, 0), push_ret(n, 0), pop_at(n, 0);
  std::vector<std::uint64_t> stamps(traced ? n * 2 * kStages : 0, 0);
  st.latency_us.assign(n, kFailedLatencyUs);
  std::vector<bool> good(n, false);
  const std::vector<std::uint64_t> offsets =
      w.open_loop && !probe
          ? poisson_offsets(n, w.rate_per_s, ctx.seed * 1000003 + round)
          : std::vector<std::uint64_t>();

  const CpuTimes cpu0 = cpu_now();
  std::uint64_t expect = 0, popped = 0, first_push = 0, last_pop = 0;
  try {
    const std::uint64_t t0 = now_ns();
    auto runtime = rt::make_runtime(kind, w.grid, make_spec(w, traced),
                                    make_options(w, kind, ctx.seed, round));
    const std::uint64_t t1 = now_ns();
    auto session = runtime->open();
    const std::uint64_t t2 = now_ns();
    st.make_ms = us_between(t0, t1) / 1e3;
    st.open_ms = us_between(t1, t2) / 1e3;
    const std::uint64_t start = now_ns();
    std::uint64_t next = 0, close_at = 0, tick = start, last_progress = start;
    bool closed = false;
    while (popped < n) {
      std::uint64_t now = now_ns();
      while (next < n && (w.open_loop && !probe
                              ? start + offsets[next] <= now
                              : next - popped < kBacklog)) {
        Bytes item = ctx.source.item(next);
        const std::uint64_t ps = now_ns();
        if (w.open_loop && !probe) {
          due[next] = start + offsets[next];
          st.gen_late_us.push_back(us_between(due[next], ps));
        } else {
          due[next] = ps;
        }
        if (next == 0) first_push = due[0];
        session->push(std::any(std::move(item)));
        now = now_ns();
        push_ret[next] = last_progress = now;
        st.push_us.push_back(us_between(ps, now));
        ++next;
      }
      if (next == n && !closed) {
        close_at = now_ns();
        session->close();
        closed = true;
      }
      for (;;) {
        ++st.polls;
        std::optional<std::any> out = session->try_pop();
        if (!out) break;
        const std::uint64_t t = now_ns();
        ++st.hits;
        ++popped;
        last_progress = last_pop = t;
        Bytes* b = std::any_cast<Bytes>(&*out);
        if (!b || b->size() < kHeader) {
          ++st.failed;
          continue;
        }
        if (ctx.corrupt_once && b->size() > kHeader) {
          (*b)[b->size() - 1] ^= std::byte{0x5A};
          ctx.corrupt_once = false;
        }
        const std::uint64_t id = load_u64(*b, 0);
        if (id < expect || id >= n) {  // duplicate, reordered or foreign
          ++st.failed;
          continue;
        }
        st.failed += id - expect;  // skipped ids are missing items
        expect = id + 1;
        if (digest(*b) != ctx.expected[id]) {
          ++st.failed;
          continue;
        }
        good[id] = true;
        pop_at[id] = t;
        st.latency_us[id] = us_between(due[id], t);
        if (traced) {
          std::uint64_t* s = &stamps[id * 2 * kStages];
          for (std::size_t k = 0; k < kStages; ++k) {
            s[2 * k] = load_u64(*b, entry_slot(k));
            s[2 * k + 1] = load_u64(*b, exit_slot(k));
          }
        }
      }
      if (popped >= n) break;
      if (us_between(last_progress, now_ns()) > kStallSeconds * 1e6) {
        st.error = "no progress for " + std::to_string(kStallSeconds) + " s";
        break;
      }
      tick += kPollCadenceNs;
      const std::uint64_t after = now_ns();
      if (tick < after) tick = after;
      std::uint64_t wake = tick;
      if (w.open_loop && !probe && next < n) {
        wake = std::min(wake, start + offsets[next]);
      }
      sleep_until_ns(wake);
      // A closed loop pushes on its poll ticks: its generator is late by
      // as much as the tick's wake-up.
      if (!w.open_loop && !probe) st.gen_late_us.push_back(us_between(wake, now_ns()));
    }
    if (st.error.empty()) {
      const core::RunReport report = session->report();
      st.drain_ms = us_between(close_at, now_ns()) / 1e3;
      st.items_per_vs = report.throughput;
      st.epochs = report.epochs;
      st.remaps = report.remaps;
    }
  } catch (const std::exception& e) {
    st.error = e.what();
  }
  const CpuTimes cpu1 = cpu_now();
  st.cpu = {cpu1.self_us - cpu0.self_us, cpu1.thread_us - cpu0.thread_us,
            cpu1.children_us - cpu0.children_us};

  if (!st.error.empty()) {
    st.failed = n;  // every item of a session that threw
    std::fill(st.latency_us.begin(), st.latency_us.end(), kFailedLatencyUs);
    return st;
  }
  st.failed += n - expect;  // the missing tail
  st.latency_p50_us = percentile(st.latency_us, 0.50);
  st.latency_p99_us = percentile(st.latency_us, 0.99);
  if (last_pop > first_push) {
    st.items_per_s = static_cast<double>(n) / (us_between(first_push, last_pop) / 1e6);
  }
  if (traced) {
    std::size_t kept = 0;
    for (std::size_t id = 0; id < n; ++id) {
      if (!good[id]) continue;
      const std::uint64_t* s = &stamps[id * 2 * kStages];
      const std::uint64_t pop = pop_at[id];
      st.ingress.push_back(us_between(push_ret[id], s[0]));
      for (std::size_t k = 0; k < kStages; ++k) {
        st.stage.push_back(us_between(s[2 * k], s[2 * k + 1]));
        if (k + 1 < kStages) st.hop.push_back(us_between(s[2 * k + 1], s[2 * k + 2]));
      }
      st.egress.push_back(us_between(s[2 * kStages - 1], pop));
      if (ctx.spans && kept++ < kTracedItemsKept && ctx.spans->size() < kMaxSpans) {
        record_item_spans(ctx, kind, id, due[id], push_ret[id], pop, s);
      }
    }
  }
  return st;
}

/// The simulator session: a virtual-time feeder, so push everything,
/// then close() replays the stream through the DES.
SessionStats run_sim(Context& ctx, std::size_t n, std::uint64_t round, bool probe) {
  const Workload& w = ctx.w;
  SessionStats st;
  st.kind = RuntimeKind::kSim;
  st.probe = probe;
  st.offered = n;
  try {
    const std::uint64_t t0 = now_ns();
    auto runtime = rt::make_runtime(RuntimeKind::kSim, w.sim_grid, make_spec(w, false),
                                    make_options(w, RuntimeKind::kSim, ctx.seed, round));
    const std::uint64_t t1 = now_ns();
    auto session = runtime->open();
    const std::uint64_t t2 = now_ns();
    st.make_ms = us_between(t0, t1) / 1e3;
    st.open_ms = us_between(t1, t2) / 1e3;
    for (std::uint64_t i = 0; i < n; ++i) session->push(std::any(ctx.source.item(i)));
    const std::uint64_t c0 = now_ns();
    session->close();
    st.replay_ms = us_between(c0, now_ns()) / 1e3;
    const core::RunReport report = session->report();
    st.items_per_vs = report.throughput;
    st.epochs = report.epochs;
    st.remaps = report.remaps;
    std::uint64_t expect = 0;
    while (auto out = session->try_pop()) {
      const Bytes* b = std::any_cast<Bytes>(&*out);
      if (!b || b->size() < kHeader || load_u64(*b, 0) != expect ||
          digest(*b) != ctx.expected[expect]) {
        ++st.failed;
      }
      ++expect;
      if (expect == n) break;
    }
    st.failed += n - expect;
  } catch (const std::exception& e) {
    st.error = e.what();
    st.failed = n;
  }
  return st;
}

// ---------------------------------------------------------- metrics

/// Latency percentiles over groups of consecutive sessions holding at
/// least kTailItems items, so that ten samples or more lie beyond each
/// group's p99. A short last group is folded into the one before it. It
/// keeps at most two groups' items, so the benchmark's own footprint does
/// not grow with the number of sessions a run completes.
constexpr std::size_t kTailItems = 1000;

class TailGroups {
 public:
  void add(const std::vector<double>& latency_us) {
    if (open_.size() >= kTailItems) {
      if (!prev_.empty()) close(prev_);
      prev_ = std::move(open_);
      open_.clear();
    }
    open_.insert(open_.end(), latency_us.begin(), latency_us.end());
  }
  void finish() {
    if (open_.size() < kTailItems && !prev_.empty()) {
      prev_.insert(prev_.end(), open_.begin(), open_.end());
      open_.clear();
    }
    if (!prev_.empty()) close(prev_);
    if (!open_.empty()) close(open_);
  }
  std::vector<double> p50s, p99s;

 private:
  void close(std::vector<double>& g) {
    p50s.push_back(percentile(g, 0.50));
    p99s.push_back(percentile(g, 0.99));
    g.clear();
  }
  std::vector<double> open_, prev_;
};

/// The end-to-end statistic over a run's sessions or groups: the mean of
/// the better half (the higher values where higher is better). Load from
/// other tenants of a shared machine comes in bursts; it must cover half
/// a run to move this, while a slower program slows every session and
/// moves it fully.
double better_half_mean(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0.0;
  if (higher_is_better) {
    std::sort(v.begin(), v.end(), std::greater<>());
  } else {
    std::sort(v.begin(), v.end());
  }
  const std::size_t k = (v.size() + 1) / 2;
  double sum = 0;
  for (std::size_t i = 0; i < k; ++i) sum += v[i];
  return sum / static_cast<double>(k);
}

struct Metric {
  double value = 0.0;
  std::string unit, better;
  std::size_t samples = 0;
};

using Metrics = std::map<std::string, Metric>;

std::vector<const SessionStats*> pick(const std::vector<SessionStats>& all,
                                      RuntimeKind kind, bool traced) {
  std::vector<const SessionStats*> out;
  for (const auto& s : all) {
    if (s.kind == kind && s.traced == traced && !s.probe) out.push_back(&s);
  }
  return out;
}

template <class F>
std::vector<double> pool(const std::vector<const SessionStats*>& ss, F field) {
  std::vector<double> out;
  for (const SessionStats* s : ss) {
    const std::vector<double>& v = field(*s);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

template <class F>
std::vector<double> each(const std::vector<const SessionStats*>& ss, F field) {
  std::vector<double> out;
  for (const SessionStats* s : ss) out.push_back(field(*s));
  return out;
}

void add(Metrics& m, const std::string& name, double value, const char* unit,
         const char* better, std::size_t samples) {
  m[name] = {value, unit, better, samples};
}

constexpr RuntimeKind kLive[] = {RuntimeKind::kThreads, RuntimeKind::kProcess};
constexpr RuntimeKind kAll[] = {RuntimeKind::kSim, RuntimeKind::kThreads,
                                RuntimeKind::kProcess};

/// What the end-to-end metrics need of a run, folded in session by
/// session.
struct EndToEnd {
  std::vector<double> setup_s;
  std::map<RuntimeKind, TailGroups> latency;
  std::vector<double> peak_rss_mb;     // per measured round
  std::vector<double> calibration_us;  // per measured round
};

/// The factor that takes a rate measured in this run to the reference
/// host (a time is divided by it): 1 unless the workload is CPU-bound.
double to_reference(const Workload& w, const EndToEnd& e2e) {
  return w.cpu_bound ? median(e2e.calibration_us) / kReferenceCalibrationUs : 1.0;
}

void end_to_end(Metrics& m, const std::vector<SessionStats>& all, EndToEnd& e2e,
                double to_ref) {
  add(m, "setup_s", median(e2e.setup_s), "s", "lower", e2e.setup_s.size());
  for (RuntimeKind k : kLive) {
    const auto ss = pick(all, k, false);
    const std::string sub = rt::to_string(k);
    add(m, "items_per_s." + sub,
        to_ref * better_half_mean(each(ss, [](const SessionStats& s) { return s.items_per_s; }),
                               true),
        "1/s", "higher", ss.size());
    TailGroups& lat = e2e.latency[k];
    lat.finish();
    add(m, "latency_p50_us." + sub, better_half_mean(lat.p50s, false) / to_ref, "us", "lower",
        lat.p50s.size());
    add(m, "latency_p99_us." + sub, better_half_mean(lat.p99s, false) / to_ref, "us", "lower",
        lat.p99s.size());
  }
  for (RuntimeKind k : kAll) {
    const auto ss = pick(all, k, false);
    // The sim runs in virtual time: host speed does not enter its rate.
    const double f = k == RuntimeKind::kSim ? 1.0 : to_ref;
    add(m, std::string("items_per_vs.") + rt::to_string(k),
        f * better_half_mean(each(ss, [](const SessionStats& s) { return s.items_per_vs; }), true),
        "1/vs", "higher", ss.size());
  }
  add(m, "peak_rss_mb", median(e2e.peak_rss_mb), "MB", "lower", e2e.peak_rss_mb.size());
}

void per_layer(Metrics& m, const std::vector<SessionStats>& all,
               double inline_items_per_s, std::size_t inline_items,
               const std::vector<double>& calibration_us) {
  std::vector<double> stage_us, gen_late;
  double driver_cpu = 0, driver_items = 0;
  for (RuntimeKind k : kLive) {
    const auto ss = pick(all, k, false);
    const auto tr = pick(all, k, true);
    const std::string sub = rt::to_string(k);
    std::vector<double> opens;
    for (const auto& s : all) {
      if (s.kind == k) opens.push_back(s.open_ms);
    }
    add(m, "rt.open_ms." + sub, median(opens), "ms", "lower", opens.size());
    const auto push = pool(ss, [](const SessionStats& s) -> auto& { return s.push_us; });
    add(m, "rt.push_us_p99." + sub, percentile(push, 0.99), "us", "lower", push.size());
    add(m, "rt.drain_ms." + sub,
        median(each(ss, [](const SessionStats& s) { return s.drain_ms; })), "ms",
        "lower", ss.size());
    double polls = 0, hits = 0, host = 0, items = 0, children = 0, thread = 0;
    for (const SessionStats* s : ss) {
      polls += static_cast<double>(s->polls);
      hits += static_cast<double>(s->hits);
      host += s->cpu.self_us - s->cpu.thread_us;
      thread += s->cpu.thread_us;
      children += s->cpu.children_us;
      items += static_cast<double>(s->offered);
    }
    add(m, "rt.pop_hit_ratio." + sub, polls > 0 ? hits / polls : 0, "ratio",
        "higher", static_cast<std::size_t>(polls));
    add(m, "rt.host_cpu_us_per_item." + sub, items > 0 ? host / items : 0,
        "us", "lower", static_cast<std::size_t>(items));
    if (k == RuntimeKind::kProcess) {
      add(m, "proc.worker_cpu_us_per_item", items > 0 ? children / items : 0,
          "us", "lower", static_cast<std::size_t>(items));
    }
    driver_cpu += thread;
    driver_items += items;

    const std::string layer = k == RuntimeKind::kThreads ? "core." : "proc.";
    const auto ingress = pool(tr, [](const SessionStats& s) -> auto& { return s.ingress; });
    const auto hop = pool(tr, [](const SessionStats& s) -> auto& { return s.hop; });
    const auto egress = pool(tr, [](const SessionStats& s) -> auto& { return s.egress; });
    add(m, layer + "ingress_us_p50", percentile(ingress, 0.50), "us", "lower", ingress.size());
    add(m, layer + "ingress_us_p99", percentile(ingress, 0.99), "us", "lower", ingress.size());
    add(m, layer + "hop_us_p50", percentile(hop, 0.50), "us", "lower", hop.size());
    add(m, layer + "hop_us_p99", percentile(hop, 0.99), "us", "lower", hop.size());
    add(m, layer + "egress_us_p50", percentile(egress, 0.50), "us", "lower", egress.size());
    add(m, layer + "egress_us_p99", percentile(egress, 0.99), "us", "lower", egress.size());
    const auto st = pool(tr, [](const SessionStats& s) -> auto& { return s.stage; });
    stage_us.insert(stage_us.end(), st.begin(), st.end());

    const auto lat = pool(ss, [](const SessionStats& s) -> auto& { return s.latency_us; });
    const auto lat_tr = pool(tr, [](const SessionStats& s) -> auto& { return s.latency_us; });
    add(m, "bench.trace_overhead_us." + sub,
        percentile(lat_tr, 0.5) - percentile(lat, 0.5), "us", "lower", lat_tr.size());
    const auto late = pool(ss, [](const SessionStats& s) -> auto& { return s.gen_late_us; });
    gen_late.insert(gen_late.end(), late.begin(), late.end());
  }

  // The control layer, over every untraced session that adapted: the sim
  // on every workload, and the live substrates on adapt.
  double sessions = 0, epochs = 0, remaps = 0, pause = 0, searched = 0;
  std::vector<double> probe, forecast, map, gate, remap;
  for (const auto& s : all) {
    if (s.probe || s.traced || s.epochs.empty()) continue;
    ++sessions;
    epochs += static_cast<double>(s.epochs.size());
    remaps += static_cast<double>(s.remaps.size());
    for (const auto& r : s.remaps) pause += r.pause;
    for (const auto& e : s.epochs) {
      searched += e.reason.searched ? 1 : 0;
      probe.push_back(e.phases.monitor * 1e6);
      forecast.push_back(e.phases.forecast * 1e6);
      map.push_back(e.phases.map * 1e6);
      gate.push_back(e.phases.gate * 1e6);
      if (e.remapped) remap.push_back(e.phases.remap * 1e6);
    }
  }
  const auto per_session = [sessions](double v) { return sessions > 0 ? v / sessions : 0; };
  const auto n_sessions = static_cast<std::size_t>(sessions);
  add(m, "control.epochs", per_session(epochs), "count", "lower", n_sessions);
  add(m, "control.remaps", per_session(remaps), "count", "lower", n_sessions);
  add(m, "control.pause_vs", per_session(pause), "vs", "lower", n_sessions);
  add(m, "control.remaps_per_search", searched > 0 ? remaps / searched : 0, "ratio",
      "higher", static_cast<std::size_t>(searched));
  add(m, "monitor.probe_us_p50", percentile(probe, 0.5), "us", "lower", probe.size());
  add(m, "monitor.forecast_us_p50", percentile(forecast, 0.5), "us", "lower",
      forecast.size());
  add(m, "sched.map_us_p50", percentile(map, 0.5), "us", "lower", map.size());
  add(m, "sched.map_us_p99", percentile(map, 0.99), "us", "lower", map.size());
  add(m, "control.gate_us_p50", percentile(gate, 0.5), "us", "lower", gate.size());
  add(m, "control.remap_us_p50", percentile(remap, 0.5), "us", "lower", remap.size());
  const auto sims = pick(all, RuntimeKind::kSim, false);
  add(m, "sim.replay_ms",
      median(each(sims, [](const SessionStats& s) { return s.replay_ms; })), "ms",
      "lower", sims.size());
  add(m, "bench.stage_us_p50", percentile(stage_us, 0.5), "us", "lower", stage_us.size());
  add(m, "bench.gen_late_us_p99", percentile(gen_late, 0.99), "us", "lower",
      gen_late.size());
  add(m, "bench.driver_cpu_us_per_item", driver_items > 0 ? driver_cpu / driver_items : 0,
      "us", "lower", static_cast<std::size_t>(driver_items));
  add(m, "bench.inline_items_per_s", inline_items_per_s, "1/s", "higher", inline_items);
  add(m, "bench.calibration_us", median(calibration_us), "us", "lower",
      calibration_us.size());
}

// ----------------------------------------------------------- output

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"threads\"}},"
        "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"process\"}}";
  const std::uint64_t t0 = spans.empty() ? 0 : std::min_element(
      spans.begin(), spans.end(),
      [](const Span& a, const Span& b) { return a.start < b.start; })->start;
  os << std::setprecision(15);
  for (const Span& s : spans) {
    const double dur = s.end > s.start ? static_cast<double>(s.end - s.start) / 1e3 : 0.0;
    os << ",{\"name\":\"" << s.name << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":"
       << s.lane << ",\"tid\":" << (s.item % 128)
       << ",\"ts\":" << static_cast<double>(s.start - t0) / 1e3 << ",\"dur\":" << dur
       << ",\"args\":{\"item\":" << s.item << ",\"span\":" << s.id
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "]}\n";
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Metrics& m) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    const double v = std::isfinite(metric.value) ? metric.value : kFailedLatencyUs;
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false, tiny = false, corrupt = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = value() != "0";
    else if (flag == "--tiny") a.tiny = true;
    else if (flag == "--corrupt") a.corrupt = true;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed, args.tiny);
  const ItemSource source(w, args.seed);

  // Reference outputs, and the single-threaded baseline over the same
  // items: the whole pipeline inline, one item after another.
  const core::PipelineSpec reference = make_spec(w, false);
  std::vector<std::uint64_t> expected(w.items);
  const std::uint64_t r0 = now_ns();
  for (std::uint64_t i = 0; i < w.items; ++i) {
    expected[i] = digest(std::any_cast<Bytes>(reference.run_inline(std::any(source.item(i)))));
  }
  const double inline_items_per_s =
      static_cast<double>(w.items) / (us_between(r0, now_ns()) / 1e6);

  std::vector<Span> spans;
  Context ctx{w, args.seed, source, expected, args.corrupt,
              args.trace ? &spans : nullptr};
  std::vector<SessionStats> all;
  std::uint64_t attempted = 0, failed = 0;
  std::cout << "workload " << w.name << " seed " << args.seed << " trace "
            << args.trace << "\n";

  // Every session is counted and printed as it ends. Without --trace the
  // per-layer records are not needed: a session's per-item latencies are
  // folded into the end-to-end statistics and its records dropped, so the
  // benchmark's own footprint does not grow with the sessions it runs.
  EndToEnd e2e;
  auto finish = [&](SessionStats s) {
    attempted += s.offered;
    failed += s.failed;
    if (!s.probe) {
      std::cout << "session " << rt::to_string(s.kind) << (s.traced ? " traced" : "")
                << " items " << s.offered << " failed " << s.failed
                << " items/s " << s.items_per_s << " items/vs " << s.items_per_vs
                << " lat_p50_us " << s.latency_p50_us
                << " lat_p99_us " << s.latency_p99_us
                << " remaps " << s.remaps.size()
                << (s.error.empty() ? "" : " error: " + s.error) << "\n";
    }
    if (!s.probe && !s.traced && s.kind != RuntimeKind::kSim) {
      e2e.latency[s.kind].add(s.latency_us);
    }
    if (!args.trace) {
      // Assigning {} would keep the capacity; swapping frees it.
      std::vector<double>().swap(s.latency_us);
      std::vector<double>().swap(s.push_us);
      std::vector<double>().swap(s.gen_late_us);
      std::vector<control::EpochRecord>().swap(s.epochs);
      std::vector<sim::RemapEvent>().swap(s.remaps);
    }
    all.push_back(std::move(s));
  };

  // Set-up probes: make_runtime + open() on every substrate, one item
  // each; setup_s is the median probe round's sum. The host's speed
  // changes from one second to the next (the median of 60 rounds made in
  // a row ranged 0.9-1.6 ms), so the rounds are spread over the run:
  // after each measured round, one per 200 ms that round took (4 to 30).
  auto probe_rounds = [&](int n) {
    // Fork time grows with the parent's resident set. Hand the memory the
    // last sessions freed back to the system first, so that the probes do
    // not depend on how much memory those sessions happened to leave.
    malloc_trim(0);
    for (int r = 0; r < n; ++r) {
      double sum = 0;
      for (RuntimeKind k : kAll) {
        SessionStats s = k == RuntimeKind::kSim ? run_sim(ctx, 1, 0, true)
                                                : run_live(ctx, k, false, 1, 0, true);
        sum += (s.make_ms + s.open_ms) / 1e3;
        finish(std::move(s));
      }
      e2e.setup_s.push_back(sum);
    }
  };

  // Measured rounds, one session per substrate each, until --seconds
  // have passed. With --trace 1, rounds alternate untraced / traced.
  // peak_rss_mb is the median round's peak resident set.
  const std::uint64_t start = now_ns();
  const int min_rounds = args.trace ? 2 : 1;
  for (int r = 0;; ++r) {
    if (r >= min_rounds && us_between(start, now_ns()) >= args.seconds * 1e6) break;
    const bool traced = args.trace && (r % 2 == 1);
    const std::uint64_t round_start = now_ns();
    const bool hwm_reset = reset_peak_rss();
    e2e.calibration_us.push_back(host_calibration_us());
    const auto round = static_cast<std::uint64_t>(r);
    if (!traced) finish(run_sim(ctx, std::min(w.items, kSimItems), round, false));
    for (RuntimeKind k : kLive) finish(run_live(ctx, k, traced, w.items, round, false));
    e2e.peak_rss_mb.push_back(hwm_reset ? peak_rss_mb() : max_rss_mb());
    const auto round_ms = static_cast<int>(us_between(round_start, now_ns()) / 1e3);
    probe_rounds(args.tiny ? 1 : std::clamp(round_ms / 200, 4, 30));
  }
  std::cout << "setup_ms";
  for (double v : e2e.setup_s) std::cout << ' ' << v * 1e3;
  std::cout << "\nround_peak_rss_mb";
  for (double v : e2e.peak_rss_mb) std::cout << ' ' << v;
  std::cout << "\nround_calibration_us";
  for (double v : e2e.calibration_us) std::cout << ' ' << v;
  std::cout << "\nto_reference " << to_reference(w, e2e)
            << (w.cpu_bound ? " (rates times it, latencies over it)" : " (not CPU-bound)")
            << "\n";

  Metrics m;
  if (args.trace) {
    per_layer(m, all, inline_items_per_s, w.items, e2e.calibration_us);
    std::filesystem::create_directories(".bench_out");
    const std::string path = ".bench_out/" + w.name + "-seed" +
                             std::to_string(args.seed) + ".trace.json";
    write_chrome_trace(path, spans);
    std::cout << "trace " << path << " (" << spans.size() << " spans)\n";
  } else {
    end_to_end(m, all, e2e, to_reference(w, e2e));
  }
  for (const auto& [name, metric] : m) {
    std::cout << std::left << std::setw(36) << name << ' ' << std::setw(14)
              << metric.value << ' ' << std::setw(6) << metric.unit << ' '
              << metric.better << " n=" << metric.samples << "\n";
  }
  std::cout << "fail_frac " << (attempted ? static_cast<double>(failed) / attempted : 0)
            << " (" << failed << " of " << attempted << ")\n";
  print_json(failed == 0, attempted, failed, m);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "gridpipe_perfbench: " << e.what() << "\n";
    return 2;
  }
}
