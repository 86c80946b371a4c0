#include "proc/child.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include "obs/health.hpp"
#include "obs/telemetry.hpp"
#include "sched/replica_router.hpp"

namespace gridpipe::proc {

namespace {

using comm::wire::FrameKind;
using comm::wire::FrameView;

double virtual_now(const ChildContext& ctx) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       ctx.start)
             .count() /
         ctx.time_scale;
}

[[noreturn]] void child_main(FrameSocket& socket, const ChildContext& ctx) {
  const std::vector<core::DistStage>& stages = *ctx.stages;
  const grid::Grid& grid = *ctx.grid;
  const auto self = static_cast<std::uint32_t>(ctx.node);
  // Our forensic lane in the parent's MAP_SHARED mapping: everything
  // recorded here outlives this process, which is the whole point.
  obs::FlightRing flight = ctx.flight;

  // Socket writes pass MSG_NOSIGNAL, but a doorbell write to a crashed
  // sibling's pipe has no such flag — it must come back as EPIPE, not a
  // process-killing SIGPIPE. The disposition is ours to set: this is a
  // forked worker, not a host application thread.
  ::signal(SIGPIPE, SIG_IGN);

  // The child's own buffer pool: frames compose into recycled buffers,
  // the socket returns fully-sent ones. (Each process has its own pool —
  // the buffers themselves never cross an address space.)
  comm::wire::BufferPool pool;
  socket.set_pool(&pool);
  // Nonblocking so one poll loop multiplexes socket + doorbell; the
  // FrameSocket send paths poll-wait internally when the kernel buffer
  // is momentarily full.
  socket.set_nonblocking(true);

  // Ring handles, cached per peer: in_rings[src] carries src → self,
  // out_rings[dst] carries self → dst. The diagonal (self → self) is a
  // real ring too, so a self-hop skips the parent without special
  // casing. Each incoming ring is a byte stream, so it gets its own
  // FrameReader to reassemble frames split across the wrap point.
  std::vector<ShmRing> in_rings;
  std::vector<ShmRing> out_rings;
  std::vector<comm::wire::FrameReader> ring_readers;
  if (ctx.rings != nullptr && ctx.rings->valid()) {
    const std::size_t nodes = ctx.rings->nodes();
    in_rings.reserve(nodes);
    out_rings.reserve(nodes);
    ring_readers.resize(nodes);
    for (std::size_t peer = 0; peer < nodes; ++peer) {
      in_rings.push_back(ctx.rings->ring(peer, ctx.node));
      out_rings.push_back(ctx.rings->ring(ctx.node, peer));
    }
  }

  const auto ding = [&](std::size_t dst) {
    if (ctx.doorbell_wr == nullptr || dst >= ctx.doorbell_wr->size()) return;
    const int fd = (*ctx.doorbell_wr)[dst];
    if (fd < 0) return;
    const char byte = 1;
    // EAGAIN means the pipe already holds a pending wakeup — good
    // enough; EPIPE means the peer died and the ring push that
    // preceded this will start failing on its own.
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  };

  const auto orderly_exit = [&] {
    flight.record(obs::FlightKind::kClose, virtual_now(ctx));
    // Mark our side of every incoming ring closed so a straggling
    // producer fails fast to the socket path instead of filling pages
    // nobody will drain.
    for (ShmRing& ring : in_rings) ring.close_consumer();
    _exit(0);
  };

  // Local routing table, eventually consistent: kRemap overwrites it.
  // Ring-borne tasks may overtake socket-queued ones (two transports,
  // no common order), which is fine for the same reason stale tables
  // are: items are independent and the parent re-orders outputs.
  sched::Mapping mapping = ctx.initial_mapping;
  sched::ReplicaRouter router(stages.size());

  // Telemetry rides the socket: spans buffer locally and flush as one
  // kTelemetry frame every few tasks (and at exit), so the hot path
  // stays one vector push per task.
  obs::TelemetryBatch spans;
  std::uint64_t executed = 0;
  constexpr std::size_t kFlushEvents = 16;
  const auto flush_telemetry = [&] {
    if (!ctx.telemetry) return;
    if (executed) spans.counters.push_back({"stage_executions", executed});
    executed = 0;
    if (spans.empty()) return;
    core::Bytes frame = pool.acquire();
    const std::size_t off =
        comm::wire::begin_frame(frame, FrameKind::kTelemetry, self);
    obs::encode_telemetry_into(frame, spans);
    comm::wire::end_frame(frame, off);
    spans = obs::TelemetryBatch{};
    if (!socket.send_buffer(std::move(frame))) orderly_exit();
  };

  // Health: one 48-byte kHealth frame every health_interval virtual
  // seconds, sent from the idle poll loop (bounded timeout below) or
  // right after a batch of work — so both a busy and an idle worker keep
  // proving liveness. queue_depth is 0 by construction here: tasks are
  // handled synchronously as they arrive, so nothing queues locally.
  double last_progress = 0.0;
  std::uint64_t tasks_total = 0;
  double last_health = virtual_now(ctx);
  const auto send_health = [&](double vnow) {
    last_health = vnow;
    obs::HealthRecord record;
    record.node = self;
    record.time = vnow;
    record.last_progress = last_progress;
    record.tasks_executed = tasks_total;
    record.queue_depth = 0;
    std::uint64_t ring_bytes = 0;
    for (ShmRing& ring : in_rings) {
      if (ring.valid()) ring_bytes += ring.readable();
    }
    record.ring_bytes = ring_bytes;
    record.rss_kb = obs::self_rss_kb();
    flight.record(obs::FlightKind::kHeartbeat, vnow, 0, tasks_total,
                  record.queue_depth);
    core::Bytes frame = pool.acquire();
    const std::size_t off =
        comm::wire::begin_frame(frame, FrameKind::kHealth, self);
    obs::encode_health_into(frame, record);
    comm::wire::end_frame(frame, off);
    if (!socket.send_buffer(std::move(frame))) orderly_exit();
  };

  const auto handle_task = [&](comm::wire::ByteSpan wire) {
    const comm::wire::TaskView task = comm::wire::decode_task(wire);
    const std::uint64_t item = task.item;
    const std::uint32_t stage = task.stage;
    if (stage >= stages.size()) _exit(2);
    if (ctx.faults != nullptr &&
        ctx.faults->should_die(self, item, stage, ctx.incarnation)) {
      // Injected node loss: leave a note in the shared flight lane, then
      // die exactly like a real crash — no flush, no orderly exit, no
      // chance for buffered state to escape.
      flight.record(obs::FlightKind::kDeath, virtual_now(ctx), self, item);
      ::kill(::getpid(), SIGKILL);
    }
    // Recorded before the stage runs: if the stage kills us, the parent's
    // post-mortem shows exactly which (stage, item) we died in.
    flight.record(obs::FlightKind::kTaskStart, virtual_now(ctx), stage, item);

    // Route before running: the frame header (kind + destination) goes
    // at the front of the buffer the stage appends into.
    const bool last = stage + 1 == stages.size();
    const std::uint32_t dst =
        last ? self
             : static_cast<std::uint32_t>(router.pick(mapping, stage + 1));

    const auto t0 = std::chrono::steady_clock::now();
    const double v0 = virtual_now(ctx);
    // One pooled buffer holds the complete next-hop frame: wire frame
    // header, task header, then the stage's output appended in place.
    core::Bytes next = pool.acquire();
    const std::size_t frame_off = comm::wire::begin_frame(
        next, last ? FrameKind::kResult : FrameKind::kTask, last ? self : dst);
    comm::wire::encode_task_header_into(next, item, stage + 1);
    stages[stage].fn(task.payload, next);
    comm::wire::end_frame(next, frame_off);
    if (ctx.emulate_compute) {
      const double service =
          stages[stage].work / grid.effective_speed(ctx.node, v0);
      std::this_thread::sleep_until(
          t0 +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(service * ctx.time_scale)));
    }
    const double duration =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() /
        ctx.time_scale;
    const double vdone = v0 + duration;
    flight.record(obs::FlightKind::kTaskDone, vdone, stage, item,
                  std::bit_cast<std::uint64_t>(duration));
    last_progress = vdone;
    ++tasks_total;

    if (ctx.telemetry) {
      ++executed;
      obs::TraceEvent span;
      span.name = stages[stage].name;
      span.kind = obs::SpanKind::kStage;
      span.start = v0;
      span.duration = duration;
      span.tid = static_cast<std::uint32_t>(1 + ctx.node);
      span.item = item;
      span.stage = stage;
      spans.events.push_back(std::move(span));
      if (spans.events.size() >= kFlushEvents) flush_telemetry();
    }

    // Fast path: a non-final hop goes straight into the destination
    // sibling's ring (the parent never sees the payload). All-or-nothing
    // push — a full ring or dead peer falls back to the socket relay.
    bool ring_sent = false;
    if (!last && dst < out_rings.size() && out_rings[dst].valid()) {
      if (out_rings[dst].push(next)) {
        ring_sent = true;
        flight.record(obs::FlightKind::kRingPush, vdone, dst, next.size());
        if (dst != self) ding(dst);
      } else {
        flight.record(obs::FlightKind::kRingFallback, vdone, dst,
                      next.size());
      }
    }

    // Everything socket-bound from this task leaves as one train (one
    // syscall): the speed observation, plus the next-hop frame when the
    // ring did not take it.
    core::Bytes train = pool.acquire();
    if (duration > 0.0) {
      const std::size_t obs_off =
          comm::wire::begin_frame(train, FrameKind::kSpeedObs, self);
      comm::wire::encode_f64_into(train, stages[stage].work / duration);
      comm::wire::end_frame(train, obs_off);
    }
    if (!ring_sent) {
      // An injected duplicate delivery repeats the result frame verbatim.
      const bool dup = last && ctx.faults != nullptr &&
                       ctx.faults->should_duplicate(self, item);
      for (int copy = 0; copy < (dup ? 2 : 1); ++copy) {
        const std::size_t off = train.size();
        train.resize(off + next.size());
        std::memcpy(train.data() + off, next.data(), next.size());
      }
      flight.record(
          obs::FlightKind::kFrameSend, vdone,
          static_cast<std::uint32_t>(last ? FrameKind::kResult
                                          : FrameKind::kTask),
          next.size());
    }
    pool.release(std::move(next));
    if (train.empty()) {
      pool.release(std::move(train));
    } else if (!socket.send_buffer(std::move(train))) {
      orderly_exit();
    }
  };

  const auto handle_frame = [&](const FrameView& frame) {
    flight.record(obs::FlightKind::kFrameRecv, virtual_now(ctx),
                  static_cast<std::uint32_t>(frame.kind),
                  frame.payload.size());
    switch (frame.kind) {
      case FrameKind::kShutdown:
        flush_telemetry();
        orderly_exit();
        break;
      case FrameKind::kRemap: {
        // decode_mapping only checks the bytes; validate the structure
        // too (stage count, non-empty replica sets, known nodes) before
        // routing through it — a corrupt table must be a clean _exit(2)
        // via the catch-all, not out-of-bounds UB on the next pick.
        sched::Mapping next_mapping = comm::wire::decode_mapping(frame.payload);
        next_mapping.validate(grid.num_nodes());
        if (next_mapping.num_stages() != stages.size()) {
          throw std::invalid_argument("child: remap stage-count mismatch");
        }
        mapping = std::move(next_mapping);
        router.reset(stages.size());
        break;
      }
      case FrameKind::kTask:
        handle_task(frame.payload);
        break;
      case FrameKind::kResult:
      case FrameKind::kSpeedObs:
      case FrameKind::kTelemetry:
      case FrameKind::kHealth:
        break;  // parent-bound kinds; ignore if misdelivered
    }
  };

  const auto drain_rings = [&]() -> bool {
    bool any = false;
    for (std::size_t src = 0; src < in_rings.size(); ++src) {
      ShmRing& ring = in_rings[src];
      if (!ring.valid()) continue;
      std::byte chunk[4096];
      while (const std::size_t n = ring.pop(chunk, sizeof(chunk))) {
        ring_readers[src].feed(chunk, n);
        any = true;
      }
      while (auto view = ring_readers[src].next_view()) handle_frame(*view);
    }
    return any;
  };

  for (;;) {
    bool worked = drain_rings();
    if (!socket.pump_reads()) {
      flush_telemetry();
      orderly_exit();  // parent closed the pair: run is over
    }
    while (auto view = socket.next_frame_view()) {
      handle_frame(*view);
      worked = true;
    }
    if (ctx.health_interval > 0.0) {
      const double vnow = virtual_now(ctx);
      if (vnow - last_health >= ctx.health_interval) send_health(vnow);
    }
    if (worked) continue;

    pollfd pfds[2];
    pfds[0] = {socket.fd(), POLLIN, 0};
    nfds_t nfds = 1;
    if (ctx.doorbell_rd >= 0) {
      pfds[1] = {ctx.doorbell_rd, POLLIN, 0};
      nfds = 2;
    }
    // Heartbeats bound the idle wait; without them the loop is purely
    // event-driven and poll can sleep forever.
    int timeout_ms = -1;
    if (ctx.health_interval > 0.0) {
      const double left_real =
          (last_health + ctx.health_interval - virtual_now(ctx)) *
          ctx.time_scale;
      timeout_ms = std::clamp(static_cast<int>(left_real * 1e3) + 1, 1, 60000);
    }
    if (::poll(pfds, nfds, timeout_ms) < 0 && errno != EINTR) _exit(2);
    if (nfds == 2 && (pfds[1].revents & POLLIN) != 0) {
      // Swallow every pending doorbell byte; the ring drain at the top
      // of the loop happens after this read, so a push published before
      // the ding is never missed.
      char bytes[64];
      while (::read(ctx.doorbell_rd, bytes, sizeof(bytes)) > 0) {
      }
    }
  }
}

}  // namespace

void run_child_loop(FrameSocket socket, const ChildContext& ctx) {
  try {
    child_main(socket, ctx);
  } catch (...) {
    // Malformed frame, bad_alloc, a throwing stage fn... the parent sees
    // EOF plus exit status 2 and reports the crash.
    _exit(2);
  }
}

}  // namespace gridpipe::proc
