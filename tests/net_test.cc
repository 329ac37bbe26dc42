#include <gtest/gtest.h>

#include "net/simulator.h"

namespace mqp::net {
namespace {

class Recorder : public PeerNode {
 public:
  explicit Recorder(Simulator* sim) : sim_(sim) { id_ = sim->Register(this); }
  void HandleMessage(const Message& msg) override {
    received.push_back(msg);
    times.push_back(sim_->now());
  }
  PeerId id() const { return id_; }
  std::vector<Message> received;
  std::vector<double> times;

 private:
  Simulator* sim_;
  PeerId id_;
};

TEST(SimulatorTest, AddressRoundTrip) {
  Simulator sim;
  Recorder a(&sim), b(&sim);
  EXPECT_EQ(Simulator::AddressOf(a.id()), "10.0.0.0:9020");
  auto found = sim.Lookup("10.0.0.1:9020");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, b.id());
  EXPECT_FALSE(sim.Lookup("10.0.0.99:9020").ok());
  EXPECT_FALSE(sim.Lookup("garbage").ok());
  EXPECT_FALSE(sim.Lookup("10.0.0.1").ok());
}

TEST(SimulatorTest, DeliveryLatencyGrowsWithSize) {
  Simulator sim;
  Recorder a(&sim), b(&sim);
  sim.Send({a.id(), b.id(), "k", std::string(1000, 'x'), 0});
  sim.Run();
  ASSERT_EQ(b.received.size(), 1u);
  const double t_small = b.times[0];
  sim.Send({a.id(), b.id(), "k", std::string(1000000, 'x'), 0});
  sim.Run();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_GT(b.times[1] - t_small, 0.5);  // ~0.8s at 1.25 MB/s
}

TEST(SimulatorTest, FifoForEqualTimes) {
  Simulator sim;
  Recorder a(&sim), b(&sim);
  for (int i = 0; i < 5; ++i) {
    sim.Send({a.id(), b.id(), "k", std::to_string(i), 1});
  }
  sim.Run();
  ASSERT_EQ(b.received.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(b.received[static_cast<size_t>(i)].body(), std::to_string(i));
  }
}

TEST(SimulatorTest, StatsAccumulateByKind) {
  Simulator sim;
  Recorder a(&sim), b(&sim);
  sim.Send({a.id(), b.id(), "mqp", "12345", 0});
  sim.Send({a.id(), b.id(), "result", "123", 0});
  sim.Send({a.id(), b.id(), "mqp", "1", 0});
  sim.Run();
  EXPECT_EQ(sim.stats().messages, 3u);
  EXPECT_EQ(sim.stats().bytes, 9u);
  EXPECT_EQ(sim.stats().messages_by_kind.at("mqp"), 2u);
  EXPECT_EQ(sim.stats().bytes_by_kind.at("result"), 3u);
  sim.stats().Clear();
  EXPECT_EQ(sim.stats().messages, 0u);
}

TEST(SimulatorTest, FailedPeerDropsMessages) {
  Simulator sim;
  Recorder a(&sim), b(&sim);
  sim.Fail(b.id());
  sim.Send({a.id(), b.id(), "k", "x", 0});
  sim.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(sim.stats().messages, 1u);  // counted as sent
  sim.Recover(b.id());
  sim.Send({a.id(), b.id(), "k", "x", 0});
  sim.Run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(SimulatorTest, FailedSenderOriginatesNothing) {
  // A down peer must not leak traffic (e.g. a gossip tick scheduled
  // before the failure firing after it).
  Simulator sim;
  Recorder a(&sim), b(&sim);
  sim.Fail(a.id());
  sim.Send({a.id(), b.id(), "k", "x", 0});
  sim.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(sim.stats().messages, 1u);  // counted as sent, like to-failed
  EXPECT_EQ(sim.stats().drops_from_failed, 1u);
  EXPECT_EQ(sim.stats().drops_to_failed, 0u);
  sim.Recover(a.id());
  sim.Send({a.id(), b.id(), "k", "x", 0});
  sim.Run();
  EXPECT_EQ(b.received.size(), 1u);
  // External probes (from == kNoPeer) are unaffected by the sender check.
  sim.Send({kNoPeer, b.id(), "k", "x", 0});
  sim.Run();
  EXPECT_EQ(b.received.size(), 2u);
}

TEST(SimulatorTest, FailureInTransitDropsDelivery) {
  Simulator sim;
  Recorder a(&sim), b(&sim);
  sim.Send({a.id(), b.id(), "k", "x", 0});
  sim.Fail(b.id());  // fails before the event fires
  sim.Run();
  EXPECT_TRUE(b.received.empty());
  // The in-transit skip is accounted, not silent (parity with the
  // threaded runtime's in-flight drop counting — DESIGN.md §9).
  EXPECT_EQ(sim.stats().drops_to_failed, 1u);
}

TEST(SimulatorTest, ScheduleRunsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(3.0, [&] { order.push_back(3); });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(2.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, RunStopsAtMaxTime) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] { ++fired; });
  sim.Schedule(100.0, [&] { ++fired; });
  sim.Run(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.Idle());
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorTest, EventsCascadeFromHandlers) {
  Simulator sim;
  // A handler that forwards once.
  class Forwarder : public PeerNode {
   public:
    Forwarder(Simulator* sim, PeerId* next) : sim_(sim), next_(next) {
      id_ = sim->Register(this);
    }
    void HandleMessage(const Message& msg) override {
      ++hops;
      if (*next_ != kNoPeer) {
        sim_->Send({id_, *next_, msg.kind, msg.payload, 0});
      }
    }
    PeerId id_;
    int hops = 0;

   private:
    Simulator* sim_;
    PeerId* next_;
  };
  PeerId second_target = kNoPeer;
  PeerId none = kNoPeer;
  Forwarder f1(&sim, &second_target);
  Forwarder f2(&sim, &none);
  second_target = f2.id_;
  sim.Send({kNoPeer, f1.id_, "k", "x", 0});
  sim.Run();
  EXPECT_EQ(f1.hops, 1);
  EXPECT_EQ(f2.hops, 1);
}

}  // namespace
}  // namespace mqp::net
