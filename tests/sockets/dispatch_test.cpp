// Handler dispatch: handlers that replace or clear themselves mid-call,
// and sockets whose handlers capture the socket itself.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sockets/socket.hpp"

namespace p2plab::sockets {
namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }

class DispatchTest : public ::testing::Test {
 protected:
  DispatchTest() {
    hostA = &network.add_host("node1", ip("192.168.38.1"));
    hostB = &network.add_host("node2", ip("192.168.38.2"));
    vnA = std::make_unique<vnode::VirtualNode>(*hostA, 1, ip("10.0.0.1"));
    vnB = std::make_unique<vnode::VirtualNode>(*hostB, 2, ip("10.0.0.51"));
    procA = std::make_unique<vnode::Process>(*vnA);
    procB = std::make_unique<vnode::Process>(*vnB);
    apiA = std::make_unique<SocketApi>(mgr, *procA);
    apiB = std::make_unique<SocketApi>(mgr, *procB);
  }

  static Message text(const std::string& s) {
    return Message{.type = 1,
                   .size = DataSize::bytes(s.size()),
                   .body = std::make_shared<const std::string>(s)};
  }

  /// Connect A -> B and run until both ends are established.
  void connect_pair() {
    listener = apiB->listen(6881, [this](StreamSocketPtr s) { server = s; });
    apiA->connect(ip("10.0.0.51"), 6881,
                  [this](StreamSocketPtr s) { client = s; });
    sim.run();
    ASSERT_TRUE(client && server);
  }

  sim::Simulation sim;
  net::Network network{sim, Rng{1}};
  SocketManager mgr{network};
  net::Host* hostA = nullptr;
  net::Host* hostB = nullptr;
  std::unique_ptr<vnode::VirtualNode> vnA;
  std::unique_ptr<vnode::VirtualNode> vnB;
  std::unique_ptr<vnode::Process> procA;
  std::unique_ptr<vnode::Process> procB;
  std::unique_ptr<SocketApi> apiA;
  std::unique_ptr<SocketApi> apiB;
  ListenerPtr listener;
  StreamSocketPtr client;
  StreamSocketPtr server;
};

// Each "old" handler captures `canary`; `watch` observes its lifetime. The
// old callable must outlive its own call even after it replaced or
// cleared itself, and be released once that call returns.

TEST_F(DispatchTest, OnMessageReplacesItselfMidDispatch) {
  connect_pair();
  std::vector<std::string> log;
  auto canary = std::make_shared<std::string>("old:");
  std::weak_ptr<std::string> watch = canary;
  server->on_message([&, canary](Message&& m) {
    server->on_message(
        [&](Message&& next) { log.push_back("new:" + next.as<std::string>()); });
    EXPECT_FALSE(watch.expired());
    log.push_back(*canary + m.as<std::string>());
  });
  canary.reset();
  client->send(text("a"));
  client->send(text("b"));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"old:a", "new:b"}));
  EXPECT_TRUE(watch.expired());
}

TEST_F(DispatchTest, OnMessageClearsItselfMidDispatch) {
  connect_pair();
  std::vector<std::string> log;
  auto canary = std::make_shared<std::string>("old:");
  std::weak_ptr<std::string> watch = canary;
  server->on_message([&, canary](Message&& m) {
    server->on_message(nullptr);
    EXPECT_FALSE(watch.expired());
    log.push_back(*canary + m.as<std::string>());
  });
  canary.reset();
  client->send(text("a"));
  client->send(text("b"));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"old:a"}));
  EXPECT_TRUE(watch.expired());
  // The transport still took the second message; nobody was listening.
  EXPECT_EQ(server->bytes_received(), 2u);
}

TEST_F(DispatchTest, OnWritableReplacesItselfMidDispatch) {
  connect_pair();
  int old_calls = 0;
  int new_calls = 0;
  auto canary = std::make_shared<int>(1);
  std::weak_ptr<int> watch = canary;
  client->on_writable(DataSize::zero(), [&, canary] {
    client->on_writable(DataSize::zero(), [&] { ++new_calls; });
    EXPECT_FALSE(watch.expired());
    old_calls += *canary;
  });
  canary.reset();
  client->send(text("a"));
  sim.run();
  EXPECT_EQ(old_calls, 1);
  EXPECT_EQ(new_calls, 0);
  EXPECT_TRUE(watch.expired());
  client->send(text("b"));
  sim.run();
  EXPECT_EQ(old_calls, 1);
  EXPECT_EQ(new_calls, 1);
}

TEST_F(DispatchTest, OnWritableClearsItselfMidDispatch) {
  connect_pair();
  int old_calls = 0;
  auto canary = std::make_shared<int>(1);
  std::weak_ptr<int> watch = canary;
  client->on_writable(DataSize::zero(), [&, canary] {
    client->on_writable(DataSize::zero(), nullptr);
    EXPECT_FALSE(watch.expired());
    old_calls += *canary;
  });
  canary.reset();
  client->send(text("a"));
  sim.run();
  client->send(text("b"));
  sim.run();
  EXPECT_EQ(old_calls, 1);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(client->unsent_bytes(), 0u);
}

TEST_F(DispatchTest, DatagramHandlerReplacesItselfMidDispatch) {
  auto receiver = apiB->udp_bind(5000);
  auto sender = apiA->udp_bind();
  std::vector<std::string> log;
  auto canary = std::make_shared<std::string>("old:");
  std::weak_ptr<std::string> watch = canary;
  receiver->on_message([&, canary](Message&& m, Ipv4Addr, std::uint16_t) {
    receiver->on_message([&](Message&& next, Ipv4Addr, std::uint16_t) {
      log.push_back("new:" + next.as<std::string>());
    });
    EXPECT_FALSE(watch.expired());
    log.push_back(*canary + m.as<std::string>());
  });
  canary.reset();
  sender->send_to(ip("10.0.0.51"), 5000, text("a"));
  sim.run();
  sender->send_to(ip("10.0.0.51"), 5000, text("b"));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"old:a", "new:b"}));
  EXPECT_TRUE(watch.expired());
}

TEST_F(DispatchTest, DatagramHandlerClearsItselfMidDispatch) {
  auto receiver = apiB->udp_bind(5000);
  auto sender = apiA->udp_bind();
  std::vector<std::string> log;
  auto canary = std::make_shared<std::string>("old:");
  std::weak_ptr<std::string> watch = canary;
  receiver->on_message([&, canary](Message&& m, Ipv4Addr, std::uint16_t) {
    receiver->on_message(nullptr);
    EXPECT_FALSE(watch.expired());
    log.push_back(*canary + m.as<std::string>());
  });
  canary.reset();
  sender->send_to(ip("10.0.0.51"), 5000, text("a"));
  sim.run();
  sender->send_to(ip("10.0.0.51"), 5000, text("b"));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"old:a"}));
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(receiver->datagrams_received(), 2u);
}

TEST_F(DispatchTest, DatagramKeepsTypeSizeAndBody) {
  auto receiver = apiB->udp_bind(5000);
  auto sender = apiA->udp_bind();
  Message got;
  receiver->on_message(
      [&](Message&& m, Ipv4Addr, std::uint16_t) { got = std::move(m); });
  sender->send_to(ip("10.0.0.51"), 5000,
                  Message{.type = 42,
                          .size = DataSize::bytes(300),
                          .body = std::make_shared<const std::string>("x")});
  sim.run();
  EXPECT_EQ(got.type, 42u);
  EXPECT_EQ(got.size, DataSize::bytes(300));
  ASSERT_TRUE(got.body);
  EXPECT_EQ(got.as<std::string>(), "x");
}

// The echo probe behind Figs 6 and 7: the destination's stack answers it
// with no socket bound there, and each reply completes its own ping once —
// also when the callback starts the next ping.
TEST_F(DispatchTest, EchoIsAnsweredByTheStack) {
  std::vector<Duration> rtts;
  mgr.ping(ip("10.0.0.1"), ip("10.0.0.51"), DataSize::bytes(64),
           [&](Duration first) {
             rtts.push_back(first);
             mgr.ping(ip("10.0.0.1"), ip("10.0.0.51"), DataSize::bytes(64),
                      [&](Duration second) { rtts.push_back(second); });
           });
  sim.run();
  ASSERT_EQ(rtts.size(), 2u);
  EXPECT_GT(rtts[0], Duration::zero());
  EXPECT_EQ(rtts[0], rtts[1]);  // the same idle path both times
}

TEST_F(DispatchTest, SelfCapturingSocketsAreFreedAfterClose) {
  // Both ends' handlers own their socket, the pattern of the tracker's
  // accept handler and Client::announce. Teardown drops the handlers, so
  // close() on one end and the FIN on the other free both sockets.
  std::weak_ptr<StreamSocket> client_watch;
  std::weak_ptr<StreamSocket> server_watch;
  auto accept = apiB->listen(6881, [&](StreamSocketPtr s) {
    server_watch = s;
    s->on_message([s](Message&&) {});
    s->on_close([s] {});
  });
  StreamSocketPtr mine;
  apiA->connect(ip("10.0.0.51"), 6881, [&](StreamSocketPtr s) {
    s->on_message([s](Message&&) {});
    s->on_writable(DataSize::zero(), [s] {});
    mine = std::move(s);
  });
  sim.run();
  ASSERT_TRUE(mine);
  ASSERT_FALSE(server_watch.expired());
  client_watch = mine;
  mine->close();
  mine.reset();
  EXPECT_TRUE(client_watch.expired());
  sim.run();
  EXPECT_TRUE(server_watch.expired());
  EXPECT_EQ(accept->connection_count(), 0u);
}

}  // namespace
}  // namespace p2plab::sockets
