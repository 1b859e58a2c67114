#include "ipfw/pipe.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "metrics/registry.hpp"

namespace p2plab::ipfw {
namespace {

class PipeTest : public ::testing::Test {
 protected:
  metrics::Registry registry;
  PipeMetrics metrics = PipeMetrics::resolve(registry);
  sim::Simulation sim;
  Rng rng{1};

  Pipe::Segment seg(DataSize size, FlowId flow, std::vector<SimTime>* exits) {
    return Pipe::Segment{
        .size = size, .flow = flow,
        .on_exit = [this, exits] { exits->push_back(sim.now()); }};
  }

  /// (flow, per-flow index) in service-completion order.
  using Order = std::vector<std::pair<FlowId, int>>;

  Pipe::Segment tagged(std::uint64_t bytes, FlowId flow, int index,
                       Order* order) {
    return Pipe::Segment{
        .size = DataSize::bytes(bytes), .flow = flow,
        .on_exit = [order, flow, index] { order->emplace_back(flow, index); }};
  }

  /// 8 Mb/s: one byte serializes in exactly one microsecond.
  static PipeConfig byte_per_us() {
    return {.bandwidth = Bandwidth::mbps(8), .queue_limit = DataSize::mib(10)};
  }
};

TEST_F(PipeTest, PureDelayElement) {
  Pipe pipe(sim, {.bandwidth = Bandwidth::unlimited(),
                  .delay = Duration::ms(400)},
            rng);
  std::vector<SimTime> exits;
  pipe.enqueue(seg(DataSize::kib(16), 1, &exits));
  pipe.enqueue(seg(DataSize::kib(16), 1, &exits));
  sim.run();
  ASSERT_EQ(exits.size(), 2u);
  // No serialization: both exit at exactly the delay.
  EXPECT_EQ(exits[0], SimTime::zero() + Duration::ms(400));
  EXPECT_EQ(exits[1], SimTime::zero() + Duration::ms(400));
}

TEST_F(PipeTest, BandwidthSerializes) {
  // 128 kb/s uplink: a 16 KiB block takes 1.024 s on the wire.
  Pipe pipe(sim, {.bandwidth = Bandwidth::kbps(128)}, rng);
  std::vector<SimTime> exits;
  pipe.enqueue(seg(DataSize::kib(16), 1, &exits));
  pipe.enqueue(seg(DataSize::kib(16), 1, &exits));
  sim.run();
  ASSERT_EQ(exits.size(), 2u);
  EXPECT_NEAR(exits[0].to_seconds(), 1.024, 1e-6);
  EXPECT_NEAR(exits[1].to_seconds(), 2.048, 1e-6);
}

TEST_F(PipeTest, BandwidthPlusDelay) {
  // The paper's DSL model: shaping then propagation delay.
  Pipe pipe(sim, {.bandwidth = Bandwidth::mbps(2), .delay = Duration::ms(30)},
            rng);
  std::vector<SimTime> exits;
  pipe.enqueue(seg(DataSize::kib(16), 1, &exits));
  sim.run();
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_NEAR(exits[0].to_seconds(), 16384.0 * 8 / 2e6 + 0.030, 1e-6);
}

TEST_F(PipeTest, DrrSharesBandwidthAcrossFlows) {
  // Two flows, equal backlog: each should get ~half the link.
  Pipe pipe(sim, {.bandwidth = Bandwidth::mbps(1),
                  .queue_limit = DataSize::mib(10)},
            rng);
  std::vector<SimTime> exits_a;
  std::vector<SimTime> exits_b;
  for (int i = 0; i < 20; ++i) {
    pipe.enqueue(seg(DataSize::kib(4), 1, &exits_a));
    pipe.enqueue(seg(DataSize::kib(4), 2, &exits_b));
  }
  sim.run();
  ASSERT_EQ(exits_a.size(), 20u);
  ASSERT_EQ(exits_b.size(), 20u);
  // Total: 160 KiB at 1 Mb/s = ~1.31 s. Each flow's last segment should
  // leave near the end (fair interleaving), not one flow first.
  const double total = 160.0 * 1024 * 8 / 1e6;
  EXPECT_NEAR(exits_a.back().to_seconds(), total, 0.1);
  EXPECT_NEAR(exits_b.back().to_seconds(), total, 0.1);
}

TEST_F(PipeTest, FifoServesInArrivalOrder) {
  Pipe pipe(sim, {.bandwidth = Bandwidth::mbps(1),
                  .queue_limit = DataSize::mib(10), .fair_queue = false},
            rng);
  std::vector<SimTime> exits_a;
  std::vector<SimTime> exits_b;
  for (int i = 0; i < 10; ++i) pipe.enqueue(seg(DataSize::kib(4), 1, &exits_a));
  for (int i = 0; i < 10; ++i) pipe.enqueue(seg(DataSize::kib(4), 2, &exits_b));
  sim.run();
  // FIFO: flow 1 drains completely before flow 2's last segments.
  EXPECT_LT(exits_a.back().to_seconds(), exits_b.front().to_seconds() + 0.04);
}

TEST_F(PipeTest, QueueOverflowDrops) {
  Pipe pipe(sim, {.bandwidth = Bandwidth::kbps(64),
                  .queue_limit = DataSize::bytes(3000)},
            rng);
  pipe.bind_metrics(metrics);
  int dropped = 0;
  std::vector<SimTime> exits;
  for (int i = 0; i < 10; ++i) {
    if (!pipe.enqueue(seg(DataSize::bytes(1500), 1, &exits))) ++dropped;
  }
  sim.run();
  // 1 in service + 2 queued fit; the rest drop.
  EXPECT_EQ(dropped, 7);
  EXPECT_EQ(exits.size(), 3u);
  EXPECT_EQ(registry.value("ipfw.pipe.drops_overflow"), 7.0);
}

TEST_F(PipeTest, RandomLossDropsExpectedFraction) {
  Pipe pipe(sim, {.bandwidth = Bandwidth::unlimited(), .loss_rate = 0.2}, rng);
  int delivered = 0;
  int dropped = 0;
  for (int i = 0; i < 5000; ++i) {
    if (!pipe.enqueue(Pipe::Segment{.size = DataSize::bytes(100), .flow = 1,
                                    .on_exit = [&delivered] { ++delivered; }})) {
      ++dropped;
    }
  }
  sim.run();
  EXPECT_EQ(delivered + dropped, 5000);
  EXPECT_NEAR(static_cast<double>(dropped) / 5000.0, 0.2, 0.02);
}

TEST_F(PipeTest, StatsAccounting) {
  Pipe pipe(sim, {.bandwidth = Bandwidth::mbps(1)}, rng);
  pipe.bind_metrics(metrics);
  std::vector<SimTime> exits;
  pipe.enqueue(seg(DataSize::kib(1), 1, &exits));
  pipe.enqueue(seg(DataSize::kib(2), 1, &exits));
  sim.run();
  EXPECT_EQ(registry.value("ipfw.pipe.segments_in"), 2.0);
  EXPECT_EQ(registry.value("ipfw.pipe.segments_out"), 2.0);
  EXPECT_EQ(registry.value("ipfw.pipe.bytes_in"), 3.0 * 1024);
  EXPECT_EQ(registry.value("ipfw.pipe.bytes_out"), 3.0 * 1024);
  EXPECT_EQ(registry.value("ipfw.pipe.drops_loss") +
                registry.value("ipfw.pipe.drops_overflow"),
            0.0);
}

TEST_F(PipeTest, ReconfigureChangesRate) {
  Pipe pipe(sim, {.bandwidth = Bandwidth::kbps(128)}, rng);
  std::vector<SimTime> exits;
  pipe.enqueue(seg(DataSize::kib(16), 1, &exits));
  sim.run();
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_NEAR(exits[0].to_seconds(), 1.024, 1e-6);

  pipe.reconfigure({.bandwidth = Bandwidth::kbps(256)});
  pipe.enqueue(seg(DataSize::kib(16), 1, &exits));
  sim.run();
  ASSERT_EQ(exits.size(), 2u);
  EXPECT_NEAR((exits[1] - exits[0]).to_seconds(), 0.512, 1e-6);
}

TEST_F(PipeTest, ZeroDelayZeroBandwidthDeliversImmediately) {
  Pipe pipe(sim, {}, rng);
  bool delivered = false;
  pipe.enqueue(Pipe::Segment{.size = DataSize::bytes(64), .flow = 1,
                             .on_exit = [&] { delivered = true; }});
  EXPECT_TRUE(delivered);  // synchronous: no events needed
}

TEST_F(PipeTest, ManyFlowsAllComplete) {
  Pipe pipe(sim, {.bandwidth = Bandwidth::mbps(10),
                  .queue_limit = DataSize::mib(100)},
            rng);
  int exits = 0;
  for (FlowId f = 1; f <= 50; ++f) {
    for (int i = 0; i < 4; ++i) {
      pipe.enqueue(Pipe::Segment{.size = DataSize::kib(8), .flow = f,
                                 .on_exit = [&exits] { ++exits; }});
    }
  }
  sim.run();
  EXPECT_EQ(exits, 200);
}

TEST_F(PipeTest, DrrServiceOrderMatchesHandComputedSequence) {
  // Flow 9 takes the idle server; four flows queue behind it and fill the
  // initial four-slot ring. Quantum 4096 B. Hand trace (deficits after
  // each visit, "rot" = rotate to the tail):
  //   1: 1 0->4096 rot, 2 0->4096 rot, 3 0->4096 rot, 4 0->4096 rot
  //      (every rotation on a full ring), 1 serves 3000 (1096 left)
  //   2: 1 ->5192 rot, 2 ->8192 rot, 3 serves 1000 and empties at the head
  //   3: 4 serves 2000 and empties at the head
  //   4: 1 serves 3000 (2192 left)
  //   5: 1 ->6288 rot, 2 serves 5000 (3192 left)
  //   6: 2 serves 1000 and empties
  //   7: 1 serves 3000 and empties
  Pipe pipe(sim, byte_per_us(), rng);
  Order order;
  pipe.enqueue(tagged(1000, 9, 0, &order));
  pipe.enqueue(tagged(3000, 1, 0, &order));
  pipe.enqueue(tagged(5000, 2, 0, &order));
  pipe.enqueue(tagged(1000, 3, 0, &order));
  pipe.enqueue(tagged(2000, 4, 0, &order));
  pipe.enqueue(tagged(3000, 1, 1, &order));
  pipe.enqueue(tagged(1000, 2, 1, &order));
  pipe.enqueue(tagged(3000, 1, 2, &order));
  sim.run();
  EXPECT_EQ(order, (Order{{9, 0}, {1, 0}, {3, 0}, {4, 0}, {1, 1}, {2, 0},
                          {2, 1}, {1, 2}}));
}

TEST_F(PipeTest, ReturningFlowStartsWithZeroDeficit) {
  // Flow 1 is served with 3096 B of deficit left and empties, forfeiting
  // it. It returns (3000 B) behind flow 2 (5000 B, deficit 4096). Had it
  // kept its deficit it would go first; with a fresh zero deficit flow 2
  // reaches 8192 before flow 1 reaches 4096.
  Pipe pipe(sim, byte_per_us(), rng);
  Order order;
  pipe.enqueue(tagged(1000, 9, 0, &order));  // service [0, 1 ms)
  pipe.enqueue(tagged(1000, 1, 0, &order));  // service [1, 2 ms)
  pipe.enqueue(tagged(5000, 2, 0, &order));
  sim.schedule_at(SimTime::zero() + Duration::us(1500), [&] {
    pipe.enqueue(tagged(3000, 1, 1, &order));
  });
  sim.run();
  EXPECT_EQ(order, (Order{{9, 0}, {1, 0}, {2, 0}, {1, 1}}));
}

TEST_F(PipeTest, RingAndSlabGrowthKeepOrder) {
  // Three flows of two 4096 B segments start the ring; while flow 2's
  // first segment is in service (the ring head is mid-buffer), 256 more
  // flows arrive and grow the ring from 4 to 512 slots and the slab to
  // ~500 nodes. With segment == quantum every visit serves exactly one
  // segment, so the hand-computed order is round robin: flows 1..3
  // finish their first DRR round, then the newcomers go round by round.
  constexpr std::uint64_t kSeg = 4096;
  constexpr FlowId kLate = 256;
  Pipe pipe(sim, byte_per_us(), rng);
  pipe.bind_metrics(metrics);
  Order order;
  pipe.enqueue(tagged(kSeg, 0, 0, &order));  // service [0, 4.096 ms)
  for (int i = 0; i < 2; ++i) {
    for (FlowId f = 1; f <= 3; ++f) pipe.enqueue(tagged(kSeg, f, i, &order));
  }
  // 1a serves [4.096, 8.192), 2a serves [8.192, 12.288).
  sim.schedule_at(SimTime::zero() + Duration::ms(10), [&] {
    for (int i = 0; i < 2; ++i) {
      for (FlowId f = 4; f < 4 + kLate; ++f) {
        pipe.enqueue(tagged(kSeg, f, i, &order));
      }
    }
  });
  sim.run();
  Order expected{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {1, 1}, {2, 1}, {3, 1}};
  for (int i = 0; i < 2; ++i) {
    for (FlowId f = 4; f < 4 + kLate; ++f) expected.emplace_back(f, i);
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(pipe.queued(), DataSize::zero());
  EXPECT_EQ(registry.value("ipfw.pipe.segments_out"),
            static_cast<double>(expected.size()));
}

TEST_F(PipeTest, SlabRecyclesAcrossBusyPeriods) {
  // Many short busy periods on one pipe reuse the same slab nodes; the
  // per-flow order holds across every refill.
  Pipe pipe(sim, byte_per_us(), rng);
  Order order;
  int next[3] = {0, 0, 0};
  for (int burst = 0; burst < 50; ++burst) {
    for (int k = 0; k < 6; ++k) {
      const FlowId f = static_cast<FlowId>(k % 3);
      pipe.enqueue(tagged(500 + 700 * f, f, next[f]++, &order));
    }
    sim.run();
  }
  ASSERT_EQ(order.size(), 300u);
  int seen[3] = {0, 0, 0};
  for (const auto& [flow, index] : order) EXPECT_EQ(index, seen[flow]++);
}

}  // namespace
}  // namespace p2plab::ipfw
