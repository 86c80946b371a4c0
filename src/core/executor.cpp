#include "core/executor.hpp"

#include <algorithm>
#include <bit>

namespace gridpipe::core {

namespace {
std::chrono::steady_clock::duration to_real(double virtual_seconds,
                                            double time_scale) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(virtual_seconds * time_scale));
}
}  // namespace

Executor::Executor(const grid::Grid& grid, PipelineSpec spec,
                   sched::Mapping initial_mapping, ExecutorConfig config)
    : grid_(grid),
      spec_(std::move(spec)),
      profile_(spec_.to_profile()),
      config_(config),
      mapping_(std::move(initial_mapping)),
      rng_(config.seed) {
  mapping_.validate(grid_.num_nodes());
  if (mapping_.num_stages() != spec_.num_stages()) {
    throw std::invalid_argument("Executor: mapping/spec stage mismatch");
  }
  if (config_.time_scale <= 0.0) {
    throw std::invalid_argument("Executor: time_scale <= 0");
  }
  if (config_.window == 0) {
    config_.window = std::max<std::size_t>(4, 2 * spec_.num_stages());
  }
  if (config_.drain_batch == 0) config_.drain_batch = 1;
  router_.reset(spec_.num_stages());
  for (std::size_t n = 0; n < grid_.num_nodes(); ++n) {
    workers_.push_back(std::make_unique<NodeWorker>());
  }
  obs_metrics_.bind(config_.obs.metrics);
  controller_ = make_controller();
  try {
    flight_ = obs::FlightRecorder(grid_.num_nodes() + 1,
                                  config_.flight_events);
  } catch (const std::runtime_error&) {
    // mmap failure: run without the forensic ring (every handle inert).
  }
  {
    util::MutexLock lock(routing_mutex_);
    ctl_flight_ = flight_.ring(0);
  }
}

Executor::~Executor() {
  if (stream_active_) {
    try {
      stream_close();
      stream_finish();
    } catch (...) {
      // Destructor best-effort teardown; the stream's items had already
      // been accepted, so draining them is the only safe exit.
    }
  }
}

std::unique_ptr<control::AdaptationController> Executor::make_controller() {
  return std::make_unique<control::AdaptationController>(
      grid_, profile_, config_.adapt,
      static_cast<control::AdaptationHost&>(*this),
      control::AdaptationController::Mode::kPolicy, config_.obs);
}

double Executor::virtual_now() const {
  return std::chrono::duration<double>(Clock::now() - start_).count() /
         config_.time_scale;
}

sched::Mapping Executor::deployed_mapping() const {
  util::MutexLock lock(routing_mutex_);
  return mapping_;
}

grid::NodeId Executor::pick_replica_locked(std::size_t stage) {
  return router_.pick(mapping_, stage);
}

void Executor::admit_locked(std::uint64_t index, std::any payload,
                            double pushed_at) {
  RtTask task;
  task.stage = 0;
  task.item = index;
  task.payload = std::move(payload);
  task.deliver_at = Clock::now();
  ++admitted_;
  const double vnow = virtual_now();
  if (obs_metrics_.admit_wait) {
    obs_metrics_.admit_wait->record(vnow - pushed_at);
  }
  admit_time_[index] = vnow;
  ctl_flight_.record(obs::FlightKind::kAdmit, vnow, 0, index);
  if (admitted_ - completed_count_.load() >= config_.window) {
    // The credit window just filled: the next push will queue.
    ctl_flight_.record(obs::FlightKind::kCredit, vnow, 0,
                       admitted_ - completed_count_.load(), config_.window);
  }
  obs::record_span(config_.obs.tracer, obs::SpanKind::kAdmit, "admit", vnow,
                   0.0, 0, index);
  const grid::NodeId node = pick_replica_locked(0);
  NodeWorker& w = *workers_[node];
  {
    util::MutexLock node_lock(w.mutex);
    w.queue.push_back(std::move(task));
  }
  w.cv.notify_one();
}

std::vector<Executor::RtTask> Executor::next_tasks(grid::NodeId node,
                                                   std::size_t max_n,
                                                   std::uint64_t& gen_out) {
  NodeWorker& w = *workers_[node];
  std::vector<RtTask> out;
  util::MutexLock lock(w.mutex);
  for (;;) {
    // Snapshot the remap generation at extraction time, under w.mutex:
    // a remap that fully completed while this worker was blocked has
    // already redistributed the queue, so the batch taken below reflects
    // it and must not trigger a spurious mid-batch requeue.
    gen_out = remap_gen_.load(std::memory_order_acquire);
    if (done_.load()) return out;
    const auto now = Clock::now();
    const auto freeze = Clock::time_point(
        Clock::duration(freeze_until_.load(std::memory_order_acquire)));
    if (now >= freeze) {
      // Take every deliverable task in FIFO order, up to max_n, with one
      // stable compaction pass over the queue.
      auto keep = w.queue.begin();
      for (auto it = w.queue.begin(); it != w.queue.end(); ++it) {
        if (out.size() < max_n && it->deliver_at <= now) {
          out.push_back(std::move(*it));
        } else {
          if (keep != it) *keep = std::move(*it);
          ++keep;
        }
      }
      w.queue.erase(keep, w.queue.end());
      if (!out.empty()) return out;
    }
    // Sleep until something could change: a wakeup, the freeze end, or
    // the earliest pending delivery.
    auto deadline = Clock::time_point::max();
    if (freeze > now) deadline = freeze;
    for (const RtTask& t : w.queue) {
      deadline = std::min(deadline, std::max(t.deliver_at, freeze));
    }
    if (deadline == Clock::time_point::max()) {
      w.cv.wait(w.mutex);
    } else {
      w.cv.wait_until(w.mutex, deadline);
    }
  }
}

void Executor::worker_loop(grid::NodeId node) {
  try {
    worker_loop_impl(node);
  } catch (...) {
    // A throwing stage function ends the stream: capture the first
    // error (Session::report rethrows it), stop every worker, and wake
    // the controller out of its completion wait. stream_error_ is
    // stored under result_mutex_ before the notify, so the controller's
    // predicate cannot miss it.
    {
      util::MutexLock lock(result_mutex_);
      if (!stream_error_) stream_error_ = std::current_exception();
    }
    result_cv_.notify_all();
    signal_done();
  }
}

void Executor::worker_loop_impl(grid::NodeId node) {
  // Single writer for this lane: this thread is the only one ever
  // executing tasks for `node` while the stream is live.
  obs::FlightRing flight = flight_.ring(1 + node);
  for (;;) {
    std::uint64_t gen = 0;
    auto tasks = next_tasks(node, config_.drain_batch, gen);
    if (tasks.empty()) return;

    for (std::size_t i = 0; i < tasks.size(); ++i) {
      // A remap that lands mid-batch reclaims the unprocessed remainder.
      // apply_remap cannot see tasks held in this local vector, so hand
      // them to requeue_per_mapping, which routes them under
      // routing_mutex_: either before apply_remap's drain (it
      // redistributes them) or after (they go straight to the new
      // mapping). The generation check catches remaps whose freeze
      // window already expired.
      if (i > 0) {
        const auto freeze = Clock::time_point(
            Clock::duration(freeze_until_.load(std::memory_order_acquire)));
        if (remap_gen_.load(std::memory_order_acquire) != gen ||
            Clock::now() < freeze) {
          std::vector<RtTask> rest;
          rest.reserve(tasks.size() - i);
          std::move(tasks.begin() + static_cast<std::ptrdiff_t>(i),
                    tasks.end(), std::back_inserter(rest));
          requeue_per_mapping(std::move(rest));
          break;
        }
      }
      RtTask& task = tasks[i];
      const auto t0 = Clock::now();
      const double v0 = virtual_now();
      flight.record(obs::FlightKind::kTaskStart, v0,
                    static_cast<std::uint32_t>(task.stage), task.item);
      std::any result = spec_.at(task.stage).fn(std::move(task.payload));

      if (config_.emulate_compute) {
        const double service_virtual =
            profile_.stage_work[task.stage] / grid_.effective_speed(node, v0);
        std::this_thread::sleep_until(
            t0 + to_real(service_virtual, config_.time_scale));
      }
      const double duration_virtual =
          std::chrono::duration<double>(Clock::now() - t0).count() /
          config_.time_scale;
      flight.record(obs::FlightKind::kTaskDone, v0 + duration_virtual,
                    static_cast<std::uint32_t>(task.stage), task.item,
                    std::bit_cast<std::uint64_t>(duration_virtual));

      {
        util::MutexLock lock(metrics_mutex_);
        metrics_.on_service(task.stage, duration_virtual);
      }
      obs::record_span(config_.obs.tracer, obs::SpanKind::kStage,
                       spec_.at(task.stage).name.c_str(), v0, duration_virtual,
                       static_cast<std::uint32_t>(1 + node), task.item,
                       static_cast<std::uint32_t>(task.stage));
      if (obs_metrics_.stage_service) {
        obs_metrics_.stage_service->record(duration_virtual);
      }
      if (duration_virtual > 0.0) {
        controller_->record_observation(
            {monitor::SensorKind::kNodeSpeed, node, 0},
            profile_.stage_work[task.stage] / duration_virtual);
      }

      task.payload = std::move(result);
      route_onward(node, std::move(task));
    }
  }
}

void Executor::requeue_per_mapping(std::vector<RtTask> tasks) {
  // Lock order: routing, then node — same nesting as apply_remap.
  // Reverse iteration + push_front keeps the remainder's order and puts
  // it at queue fronts (the old handback's placement): these are the
  // oldest in-flight items, already delayed by the remap, and must not
  // queue behind admissions that arrived while they were held.
  util::MutexLock routing_lock(routing_mutex_);
  for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) {
    const grid::NodeId node = pick_replica_locked(it->stage);
    NodeWorker& w = *workers_[node];
    {
      util::MutexLock node_lock(w.mutex);
      w.queue.push_front(std::move(*it));
    }
    w.cv.notify_one();
  }
}

void Executor::route_onward(grid::NodeId from, RtTask task) {
  const std::size_t next_stage = task.stage + 1;
  if (next_stage == spec_.num_stages()) {
    complete_item(task.item, std::move(task.payload));
    return;
  }
  grid::NodeId dst;
  {
    util::MutexLock lock(routing_mutex_);
    dst = pick_replica_locked(next_stage);
  }
  const double vnow = virtual_now();
  const double delay_virtual =
      grid_.transfer_time(from, dst, profile_.msg_bytes[next_stage], vnow);
  obs::record_span(config_.obs.tracer, obs::SpanKind::kWire, "hop", vnow,
                   delay_virtual, static_cast<std::uint32_t>(1 + dst),
                   task.item, static_cast<std::uint32_t>(next_stage));
  task.stage = next_stage;
  task.deliver_at = Clock::now() + to_real(delay_virtual, config_.time_scale);
  NodeWorker& w = *workers_[dst];
  {
    util::MutexLock node_lock(w.mutex);
    w.queue.push_back(std::move(task));
  }
  w.cv.notify_one();
}

void Executor::complete_item(std::uint64_t item, std::any output) {
  double created_at = 0.0;
  {
    util::MutexLock lock(routing_mutex_);
    if (auto it = admit_time_.find(item); it != admit_time_.end()) {
      created_at = it->second;
      admit_time_.erase(it);
    }
  }
  const double vnow = virtual_now();
  {
    util::MutexLock lock(metrics_mutex_);
    metrics_.on_item_completed(item, vnow, created_at);
  }
  obs::record_span(config_.obs.tracer, obs::SpanKind::kItem, "item",
                   created_at, vnow - created_at, 0, item);
  if (obs_metrics_.items_completed) {
    obs_metrics_.items_completed->add(1);
    obs_metrics_.item_latency->record(vnow - created_at);
  }
  {
    util::MutexLock lock(result_mutex_);
    out_buffer_.emplace(item, std::move(output));
    if (config_.obs.tracer) completed_at_.emplace(item, vnow);
    completed_count_.fetch_add(1);
  }
  // Wake the controller (completion predicate) and any output poller.
  result_cv_.notify_all();
  // A completion frees one unit of in-flight credit: admit the oldest
  // pending push, if any.
  util::MutexLock lock(routing_mutex_);
  ctl_flight_.record(obs::FlightKind::kComplete, vnow, 0, item);
  while (!pending_.empty() &&
         admitted_ - completed_count_.load() < config_.window) {
    Pending entry = std::move(pending_.front());
    pending_.pop_front();
    admit_locked(entry.index, std::move(entry.payload), entry.pushed_at);
  }
}

void Executor::record_probes(double vnow) {
  if (!config_.monitor_all) return;
  for (grid::NodeId n = 0; n < grid_.num_nodes(); ++n) {
    const double noise = std::max(0.1, 1.0 + 0.02 * util::normal(rng_, 0, 1));
    controller_->record_observation(
        {monitor::SensorKind::kNodeSpeed, n, 0},
        std::max(1e-9, grid_.effective_speed(n, vnow) * noise));
  }
  for (grid::NodeId a = 0; a < grid_.num_nodes(); ++a) {
    for (grid::NodeId b = 0; b < grid_.num_nodes(); ++b) {
      if (a == b) continue;
      const double noise = std::max(0.1, 1.0 + 0.02 * util::normal(rng_, 0, 1));
      controller_->record_observation(
          {monitor::SensorKind::kLinkInflation, a, b},
          std::max(0.01,
                   (1.0 + grid_.link(a, b).congestion_at(vnow)) * noise));
    }
  }
}

void Executor::apply_remap(const sched::Mapping& to, double pause_virtual) {
  // Lock order: routing, then nodes in id order (route_onward uses the
  // same routing -> node order, never the reverse while holding a node).
  util::MutexLock routing_lock(routing_mutex_);
  const auto now = Clock::now();
  const auto freeze_end = now + to_real(pause_virtual, config_.time_scale);
  freeze_until_.store(freeze_end.time_since_epoch().count(),
                      std::memory_order_release);

  sim::RemapEvent event;
  event.time = virtual_now();
  event.pause = pause_virtual;
  event.from = mapping_.to_string();
  event.to = to.to_string();
  ctl_flight_.record(obs::FlightKind::kRemap, event.time);
  {
    util::MutexLock lock(metrics_mutex_);
    metrics_.on_remap(std::move(event));
  }

  // Seqlock-style generation: bump before draining and again after
  // redistributing. A worker batch extracted at any point that this
  // remap's drain could miss — before the first bump, or between the
  // bumps while its queue had not been drained yet — snapshots a
  // generation that differs from the final value, so its mid-batch check
  // reclaims the remainder. Only a batch extracted after the second bump
  // snapshots the final generation, and by then redistribution is done.
  remap_gen_.fetch_add(1, std::memory_order_release);

  // Drain all queues, switch the mapping, redistribute.
  std::vector<RtTask> pending;
  for (auto& worker : workers_) {
    util::MutexLock node_lock(worker->mutex);
    std::move(worker->queue.begin(), worker->queue.end(),
              std::back_inserter(pending));
    worker->queue.clear();
  }
  std::sort(pending.begin(), pending.end(),
            [](const RtTask& a, const RtTask& b) { return a.item < b.item; });
  mapping_ = to;
  router_.reset(spec_.num_stages());
  for (RtTask& task : pending) {
    const grid::NodeId node = pick_replica_locked(task.stage);
    NodeWorker& w = *workers_[node];
    util::MutexLock node_lock(w.mutex);
    w.queue.push_back(std::move(task));
  }
  remap_gen_.fetch_add(1, std::memory_order_release);  // second seqlock bump
  for (auto& worker : workers_) worker->cv.notify_all();
}

void Executor::signal_done() {
  done_.store(true);
  for (auto& worker : workers_) {
    util::MutexLock node_lock(worker->mutex);
    worker->cv.notify_all();
  }
}

void Executor::controller_loop() {
  if (config_.adapt.epoch <= 0.0) {
    // No adaptation: just wait for end-of-stream.
    util::MutexLock lock(result_mutex_);
    while (!stream_done_locked()) result_cv_.wait(result_mutex_);
    return;
  }
  const auto epoch_real = to_real(config_.adapt.epoch, config_.time_scale);

  for (;;) {
    {
      const auto deadline = Clock::now() + epoch_real;
      util::MutexLock lock(result_mutex_);
      bool stream_done = false;
      while (!(stream_done = stream_done_locked())) {
        if (result_cv_.wait_until(result_mutex_, deadline) ==
            std::cv_status::timeout) {
          stream_done = stream_done_locked();
          break;
        }
      }
      if (stream_done) return;
    }
    const control::EpochRecord record = controller_->run_epoch();
    {
      // Lane 0 has multiple potential writers (pushers, workers, this
      // thread); routing_mutex_ serializes them all.
      util::MutexLock lock(routing_mutex_);
      ctl_flight_.record(
          obs::FlightKind::kEpoch, record.time,
          (record.decided ? 1u : 0u) | (record.remapped ? 2u : 0u));
    }
  }
}

void Executor::stream_begin() {
  if (stream_active_) {
    throw std::logic_error("Executor: a stream is already active");
  }
  // Fresh controller per stream: the virtual clock restarts at 0, so gate
  // snapshots, hysteresis streaks and registry timestamps from a
  // previous stream would all be stale.
  controller_ = make_controller();

  {
    util::MutexLock lock(result_mutex_);
    out_buffer_.clear();
    completed_at_.clear();
    next_out_ = 0;
    completed_count_.store(0);
    stream_error_ = nullptr;
  }
  done_.store(false);
  freeze_until_.store(0);
  {
    // Metrics restart with the virtual clock (their time series require
    // monotonic timestamps).
    util::MutexLock lock(metrics_mutex_);
    metrics_ = sim::SimMetrics{};
  }
  {
    util::MutexLock lock(routing_mutex_);
    pending_.clear();
    admit_time_.clear();
    admitted_ = 0;
    pushed_.store(0);
    closed_.store(false);
    initial_mapping_str_ = mapping_.to_string();
  }
  start_ = Clock::now();
  stream_active_ = true;

  threads_.reserve(workers_.size());
  for (grid::NodeId n = 0; n < workers_.size(); ++n) {
    threads_.emplace_back([this, n] { worker_loop(n); });
  }
  controller_thread_ = std::thread([this] { controller_loop(); });
}

void Executor::stream_push(std::any item) {
  util::MutexLock lock(routing_mutex_);
  if (!stream_active_ || closed_.load()) {
    throw std::logic_error("Executor: push on a closed stream");
  }
  const std::uint64_t index = pushed_.fetch_add(1);
  if (obs_metrics_.items_pushed) obs_metrics_.items_pushed->add(1);
  const double pushed_at = obs_metrics_.admit_wait ? virtual_now() : 0.0;
  if (admitted_ - completed_count_.load() < config_.window) {
    admit_locked(index, std::move(item), pushed_at);
  } else {
    pending_.push_back({index, std::move(item), pushed_at});
  }
}

std::optional<std::any> Executor::stream_try_pop() {
  util::MutexLock lock(result_mutex_);
  auto it = out_buffer_.find(next_out_);
  if (it == out_buffer_.end()) return std::nullopt;
  std::any out = std::move(it->second);
  out_buffer_.erase(it);
  if (config_.obs.tracer) {
    if (auto done = completed_at_.find(next_out_);
        done != completed_at_.end()) {
      const double vnow = virtual_now();
      obs::record_span(config_.obs.tracer, obs::SpanKind::kWait, "wait",
                       done->second, vnow - done->second, 0, next_out_);
      completed_at_.erase(done);
    }
  }
  ++next_out_;
  return out;
}

void Executor::stream_close() {
  {
    util::MutexLock lock(routing_mutex_);
    ctl_flight_.record(obs::FlightKind::kClose, virtual_now());
  }
  // closed_ participates in the controller's completion predicate, so
  // the store must happen under result_mutex_: otherwise the controller
  // can read closed_ == false in the predicate, miss this notify while
  // still between predicate and re-block, and sleep forever (no further
  // completion will ever notify again).
  util::MutexLock lock(result_mutex_);
  closed_.store(true);
  result_cv_.notify_all();
}

RunReport Executor::stream_finish() {
  if (!stream_active_) {
    throw std::logic_error("Executor: no active stream to finish");
  }
  if (!closed_.load()) {
    throw std::logic_error("Executor: stream_close() before stream_finish()");
  }
  controller_thread_.join();

  signal_done();
  for (auto& thread : threads_) thread.join();
  threads_.clear();
  stream_active_ = false;
  {
    util::MutexLock lock(result_mutex_);
    if (stream_error_) std::rethrow_exception(stream_error_);
  }

  const double wall =
      std::chrono::duration<double>(Clock::now() - start_).count();
  sim::SimMetrics metrics_taken;
  {
    // Every thread is joined by now; the lock is only for form. Move,
    // don't copy — the metric series are O(items). stream_begin resets
    // the moved-from member.
    util::MutexLock lock(metrics_mutex_);
    metrics_taken = std::move(metrics_);
  }
  std::string final_mapping;
  {
    util::MutexLock lock(routing_mutex_);
    final_mapping = mapping_.to_string();
  }
  RunReport report;
  finalize_stream_report(report, completed_count_.load(), wall,
                         config_.time_scale, std::move(metrics_taken),
                         controller_->take_epochs(),
                         std::move(initial_mapping_str_),
                         std::move(final_mapping));
  return report;
}

util::Json Executor::status() const {
  util::Json doc = util::Json::object();
  doc["substrate"] = "threads";
  doc["virtual_time"] = virtual_now();
  doc["window"] = static_cast<std::uint64_t>(config_.window);
  std::uint64_t admitted = 0;
  {
    util::MutexLock lock(routing_mutex_);
    admitted = admitted_;
    doc["mapping"] = mapping_.to_string();
    doc["pushed"] = pushed_.load();
    doc["admitted"] = admitted_;
    doc["pending"] = static_cast<std::uint64_t>(pending_.size());
    doc["closed"] = closed_.load();
  }
  // completed_count_ is read after admitted_, so clamp: completions that
  // landed between the two reads must not underflow in_flight.
  const std::uint64_t completed = completed_count_.load();
  doc["completed"] = completed;
  doc["in_flight"] = admitted - std::min(completed, admitted);
  {
    util::MutexLock lock(result_mutex_);
    doc["buffered_out"] = static_cast<std::uint64_t>(out_buffer_.size());
    doc["next_out"] = next_out_;
  }
  util::Json workers = util::Json::array();
  for (std::size_t n = 0; n < workers_.size(); ++n) {
    util::Json w = util::Json::object();
    w["node"] = static_cast<std::uint64_t>(n);
    {
      util::MutexLock lock(workers_[n]->mutex);
      w["queue_depth"] =
          static_cast<std::uint64_t>(workers_[n]->queue.size());
    }
    workers.push_back(std::move(w));
  }
  doc["workers"] = std::move(workers);
  return doc;
}

RunReport Executor::run(std::vector<std::any> inputs) {
  return run_stream_batch(*this, std::move(inputs));
}

}  // namespace gridpipe::core
