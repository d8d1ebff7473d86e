// Heap-allocation contract of sim::Network (sim/network.h): once a
// Network has run, a further fault-free serial run with no registry
// attached performs no heap allocation. Global operator new is replaced
// by a counting one, so this lives in its own executable and the main
// test binary keeps the standard allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "graph/generators.h"
#include "mis/luby.h"
#include "mis/metivier.h"
#include "obs/registry.h"
#include "sim/network.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace arbmis {
namespace {

/// Allocations made by a second run of a fresh `Algo` on a Network that
/// has already run one, serial and with no registry attached.
template <typename Algo>
std::uint64_t second_run_allocations(const graph::Graph& g) {
  EXPECT_EQ(obs::registry(), nullptr);
  sim::NetworkOptions options;
  options.num_threads = 0;
  sim::Network net(g, /*seed=*/9, options);
  Algo first(g);
  const sim::RunStats warm = net.run(first, 1u << 12);
  EXPECT_TRUE(warm.all_halted);
  Algo second(g);
  const std::uint64_t before = g_allocations.load();
  const sim::RunStats stats = net.run(second, 1u << 12);
  const std::uint64_t made = g_allocations.load() - before;
  EXPECT_TRUE(stats.all_halted);
  EXPECT_GT(stats.messages, 0u);
  return made;
}

graph::Graph forests() {
  util::Rng rng(5);
  return graph::gen::union_of_random_forests(2000, 2, rng);
}

TEST(RunAllocations, CounterSeesAllocations) {
  const std::uint64_t before = g_allocations.load();
  const graph::Graph g = forests();
  EXPECT_GT(g_allocations.load(), before);
}

TEST(RunAllocations, SecondLubyRunAllocatesNothing) {
  EXPECT_EQ(second_run_allocations<mis::LubyBMis>(forests()), 0u);
}

TEST(RunAllocations, SecondMetivierRunAllocatesNothing) {
  EXPECT_EQ(second_run_allocations<mis::MetivierMis>(forests()), 0u);
}

}  // namespace
}  // namespace arbmis
