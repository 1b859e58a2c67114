// The unit of traffic through the emulated network.
//
// A Packet models one transport segment (up to a whole application message;
// the pipes serialize it proportionally to wire_size, which approximates a
// burst of MTU-sized frames back to back). Delivery is a closure carried by
// the packet itself: the simulation has no global demultiplexer at this
// layer — the sockets layer installs one per port.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/ipv4.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "ipfw/pipe.hpp"

namespace p2plab::net {

class PacketPool;

/// Transport-level packet kinds; opaque to the network layer.
enum class PacketKind : std::uint8_t {
  kDatagram = 0,  // fire-and-forget (ping probes, raw sends)
  kSyn,
  kSynAck,
  kData,
  kAck,
  kFin,
  kRst,  // no endpoint at the destination port (ECONNRESET/ECONNREFUSED)
};

struct Packet {
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  /// Bytes on the wire (payload plus modeled header overhead).
  DataSize wire_size = DataSize::bytes(64);
  /// Flow identity for fair queueing within pipes (connection id).
  ipfw::FlowId flow = 0;

  PacketKind kind = PacketKind::kDatagram;
  /// Application message tag of `body` (sockets::Message::type), carried
  /// beside it so the receiver rebuilds the message without a box. Sits in
  /// the padding after `kind`.
  std::uint32_t body_type = 0;
  std::uint64_t conn = 0;  // connection id (stream transport)
  std::uint64_t seq = 0;   // sequence / cumulative-ack number

  /// Application payload, if any. Stored type-erased; the receiving layer
  /// knows the concrete type from its protocol context (for socket
  /// messages, `body_type`; the payload size is wire_size minus the
  /// transport header).
  std::shared_ptr<const void> body;

  /// Invoked at the destination host once the packet has traversed the
  /// full emulated path. Not invoked for dropped packets.
  std::function<void(Packet&&)> on_deliver;

  /// Deliver through the destination network's registered socket demux
  /// instead of `on_deliver`. The sockets layer sets this: a closure would
  /// capture the *source* host's socket manager, which under the parallel
  /// engine may live on another shard — the flag makes delivery resolve
  /// against destination-shard state only.
  bool socket_demux = false;

  /// Fixed pipe delay accumulated but not yet served (parallel engine
  /// only). Source-side pipes defer their config delay into the packet so
  /// the cross-shard handoff stamp carries it; it is spent when the
  /// destination shard schedules the arrival. Zero on the legacy path.
  Duration deferred_delay = Duration::zero();

  /// Stamped by Network::send; used for RTT estimation and diagnostics.
  SimTime sent_at;

  /// Pool bookkeeping (see net/packet_pool.hpp): the pool owning this cell,
  /// maintained by PacketPool::acquire and cleared when the pool dies first.
  /// Null for stack-constructed packets. Not for application use.
  PacketPool* origin_pool = nullptr;
};

}  // namespace p2plab::net
