#include "ipfw/pipe.hpp"

#include <utility>

#include "common/assert.hpp"

namespace p2plab::ipfw {

PipeMetrics PipeMetrics::resolve(metrics::Registry& reg) {
  PipeMetrics m;
  m.segments_in = reg.counter("ipfw.pipe.segments_in");
  m.segments_out = reg.counter("ipfw.pipe.segments_out");
  m.bytes_in = reg.counter("ipfw.pipe.bytes_in");
  m.bytes_out = reg.counter("ipfw.pipe.bytes_out");
  m.drops_loss = reg.counter("ipfw.pipe.drops_loss");
  m.drops_burst = reg.counter("ipfw.pipe.drops_burst");
  m.drops_down = reg.counter("ipfw.pipe.drops_down");
  m.drops_overflow = reg.counter("ipfw.pipe.drops_overflow");
  // Buckets up to the default 50-frame queue bound and beyond (custom
  // limits may exceed it).
  m.queue_bytes = reg.histogram(
      "ipfw.pipe.queue_bytes",
      {0, 1500, 4500, 15000, 37500, 75000, 150000, 600000});
  return m;
}

Pipe::Pipe(sim::Simulation& sim, PipeConfig config, Rng rng)
    : sim_(sim), config_(config), rng_(rng) {
  P2PLAB_ASSERT(config_.loss_rate >= 0.0 && config_.loss_rate <= 1.0);
}

bool Pipe::enqueue(Segment&& seg) {
  metrics_.segments_in.inc();
  metrics_.bytes_in.inc(seg.size.count_bytes());
  metrics_.queue_bytes.record(static_cast<double>(queued_bytes_));

  if (down_) {
    metrics_.drops_down.inc();
    return false;
  }

  if (config_.loss_rate > 0.0 && rng_.chance(config_.loss_rate)) {
    metrics_.drops_loss.inc();
    return false;
  }

  if (config_.burst_loss.enabled()) {
    // Advance the two-state chain once per arrival, then lose by state.
    const GilbertElliott& ge = config_.burst_loss;
    if (burst_bad_) {
      if (rng_.chance(ge.p_bad_to_good)) burst_bad_ = false;
    } else {
      if (rng_.chance(ge.p_good_to_bad)) burst_bad_ = true;
    }
    const double p = burst_bad_ ? ge.loss_bad : ge.loss_good;
    if (p > 0.0 && rng_.chance(p)) {
      metrics_.drops_burst.inc();
      return false;
    }
  }

  // Pure delay element: no queueing, no serialization.
  if (config_.bandwidth.is_unlimited()) {
    depart(std::move(seg));
    return true;
  }

  if (queued_bytes_ + seg.size.count_bytes() >
          config_.queue_limit.count_bytes() &&
      busy_) {
    // Queue full (the in-service segment does not count against the queue).
    metrics_.drops_overflow.inc();
    return false;
  }

  if (!busy_) {
    // Idle server: begin service immediately, bypassing the queue.
    start_service(std::move(seg));
    return true;
  }

  queued_bytes_ += seg.size.count_bytes();
  // FIFO mode is DRR over a single flow: the service loop takes no
  // simulated time, so one flow is served in exact arrival order.
  const FlowId id = config_.fair_queue ? seg.flow : 0;
  const std::uint32_t node = alloc_node(std::move(seg));
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    Flow& flow = ring_[i];
    if (flow.id == id) {
      slab_[flow.tail].next = node;
      flow.tail = node;
      return true;
    }
  }
  ring_.push_back(Flow{.id = id, .head = node, .tail = node});
  return true;
}

std::uint32_t Pipe::alloc_node(Segment&& seg) {
  if (free_ == kNil) {
    slab_.push_back(Node{.seg = std::move(seg)});
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }
  const std::uint32_t index = free_;
  Node& node = slab_[index];
  free_ = node.next;
  node.seg = std::move(seg);
  node.next = kNil;
  return index;
}

void Pipe::serve_next() {
  P2PLAB_ASSERT(busy_);
  if (ring_.empty()) {
    busy_ = false;
    return;
  }
  // Deficit round robin: visit flows in ring order, topping up the deficit
  // until the head segment fits. Bounded: each visit adds a quantum.
  for (;;) {
    Flow& flow = ring_.front();
    const std::uint32_t index = flow.head;
    Node& node = slab_[index];
    const std::uint64_t head_bytes = node.seg.size.count_bytes();
    if (flow.deficit_bytes >= head_bytes) {
      flow.deficit_bytes -= head_bytes;
      queued_bytes_ -= head_bytes;
      flow.head = node.next;
      if (flow.head == kNil) {
        // An emptied flow leaves the ring and forfeits its deficit (classic
        // DRR: prevents a returning flow from bursting). It returns at the
        // back with a fresh record, so no state outlives the backlog.
        ring_.pop_front();
      }
      start_service(std::move(node.seg));
      node.next = free_;
      free_ = index;
      return;
    }
    flow.deficit_bytes += kDrrQuantumBytes;
    ring_.rotate();
  }
}

void Pipe::start_service(Segment&& seg) {
  busy_ = true;
  const Duration service = config_.bandwidth.transmission_time(seg.size);
  // The in-service segment waits inside the pipe itself, so the completion
  // event captures one pointer. depart() is done with it before
  // serve_next() parks the next segment here.
  in_service_ = std::move(seg);
  sim_.schedule_after(service, [this] {
    depart(std::move(in_service_));
    serve_next();
  });
}

void Pipe::depart(Segment&& seg) {
  metrics_.segments_out.inc();
  metrics_.bytes_out.inc(seg.size.count_bytes());
  // on_exit runs (or is scheduled) straight from the segment. Running it
  // in place is safe even from in_service_: busy_ is still set, so a
  // re-entrant enqueue on this pipe only queues.
  if (seg.defer_delay != nullptr) {
    *seg.defer_delay += config_.delay;
    seg.on_exit();
  } else if (config_.delay == Duration::zero()) {
    seg.on_exit();
  } else {
    sim_.schedule_after(config_.delay, std::move(seg.on_exit));
  }
}

}  // namespace p2plab::ipfw
