// Steady-state allocation counting for the reliable channel's acked hops.
//
// The single-hop acked transfer (TAG parent links) is the reliability
// layer's hottest path.  Its transfers live in the channel's slab, its
// closures capture a slot pointer and fit the kernel's inline buffers, and
// the simulator reuses its event slots, so once warmed a stream of acked
// hops must not touch the heap at all.  This binary replaces the global
// operator new to count allocations, which is why it is its own test
// executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "sim/simulator.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pgrid {
namespace {

/// Runs `chains` concurrent chains of acked hops between two neighbours,
/// each completion sending the chain's next hop, until every chain has
/// sent `hops`.
struct AckedChains {
  sim::Simulator sim;
  net::Network network{sim, common::Rng(3)};
  net::ReliableChannel channel{network, {}, common::Rng(4)};
  net::NodeId a = 0;
  net::NodeId b = 0;
  std::size_t delivered = 0;

  AckedChains() {
    net::NodeConfig node;
    node.kind = net::NodeKind::kSensor;
    node.radio = net::LinkClass::sensor_radio();
    node.unlimited_energy = true;
    node.pos = {0.0, 0.0, 0.0};
    a = network.add_node(node);
    node.pos = {10.0, 0.0, 0.0};
    b = network.add_node(node);
  }

  void send(std::size_t left) {
    channel.acked_transmit(a, b, 32, net::Budget::unlimited(),
                           [this, left](bool ok) {
                             delivered += ok ? 1 : 0;
                             if (left > 1) send(left - 1);
                           });
  }

  void run(std::size_t chains, std::size_t hops) {
    for (std::size_t c = 0; c < chains; ++c) send(hops);
    sim.run();
  }
};

TEST(SteadyStateAllocation, WarmedAckedHopsAllocateNothing) {
  AckedChains chains;
  chains.run(4, 64);  // warm-up: slab, event slots, ledger rows
  ASSERT_EQ(chains.channel.in_flight(), 0u);

  const std::size_t before = g_allocations.load();
  const std::size_t delivered_before = chains.delivered;
  chains.run(4, 500);
  const std::size_t allocations = g_allocations.load() - before;

  EXPECT_GT(chains.delivered - delivered_before, 1000u);
  EXPECT_EQ(allocations, 0u)
      << "warmed single-hop acked transfers must not allocate";
  EXPECT_EQ(chains.channel.in_flight(), 0u);
  EXPECT_LE(chains.channel.transfer_slots(),
            net::ReliableChannel::kIdleSlots);
}

}  // namespace
}  // namespace pgrid
