#include "engine/partition.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"

namespace p2plab::engine {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Refinement is O(pnodes^2) with an O(pnodes^2) affinity matrix; beyond
/// this the greedy result stands on its own (clusters that large fold many
/// vnodes per pnode anyway, which already coarsens the graph).
constexpr std::size_t kMaxRefinePnodes = 512;

}  // namespace

std::vector<std::size_t> topo_partition(const topology::Topology& topo,
                                        std::size_t pnodes, std::size_t shards,
                                        std::uint64_t seed) {
  P2PLAB_ASSERT_MSG(shards >= 1 && shards <= pnodes,
                    "a shard owns whole physical nodes");
  const std::size_t n = topo.total_nodes();
  const std::size_t fold = (n + pnodes - 1) / pnodes;
  const std::size_t zones = topo.zones().size();

  // Zone composition of each pnode under the platform's contiguous vnode
  // folding (Platform::pnode_of_vnode = vnode / folding_ratio).
  std::vector<std::vector<std::uint32_t>> cnt(
      pnodes, std::vector<std::uint32_t>(zones, 0));
  for (std::size_t v = 0; v < n; ++v) {
    ++cnt[v / fold][topo.zone_of_node(v)];
  }
  // Affinity = co-zone vnode pairing capacity: how much same-zone (dense,
  // low-latency neighborhood) traffic co-locating p and q internalizes.
  auto affinity = [&](std::size_t p, std::size_t q) {
    std::uint64_t w = 0;
    for (std::size_t z = 0; z < zones; ++z) {
      w += std::min(cnt[p][z], cnt[q][z]);
    }
    return w;
  };

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> shard_of(pnodes, kNone);
  // Balanced capacities, the first pnodes % shards groups one larger.
  std::vector<std::size_t> capacity(shards, pnodes / shards);
  for (std::size_t k = 0; k < pnodes % shards; ++k) ++capacity[k];

  // Greedy graph growing: seed each shard at the lowest-index unassigned
  // pnode, then repeatedly absorb the unassigned pnode with the highest
  // accumulated affinity to the shard (ties -> lowest index, which keeps
  // the homogeneous case contiguous). All tie-breaks are on indices, so
  // the result is deterministic for a fixed input.
  std::vector<std::uint64_t> gain(pnodes, 0);
  std::size_t next_seed = 0;
  for (std::size_t k = 0; k < shards; ++k) {
    while (shard_of[next_seed] != kNone) ++next_seed;
    std::size_t grown = 0;
    std::size_t pick = next_seed;
    std::fill(gain.begin(), gain.end(), 0);
    while (grown < capacity[k]) {
      shard_of[pick] = k;
      ++grown;
      if (grown == capacity[k]) break;
      std::size_t best = kNone;
      for (std::size_t q = 0; q < pnodes; ++q) {
        if (shard_of[q] != kNone) continue;
        gain[q] += affinity(pick, q);
        if (best == kNone || gain[q] > gain[best]) best = q;
      }
      P2PLAB_ASSERT(best != kNone);
      pick = best;
    }
  }

  // Seed-keyed local refinement: one pass of pairwise swaps that strictly
  // reduce the cut (equivalently: strictly increase internal affinity).
  // The visit order is a Fisher-Yates shuffle keyed on the seed — the only
  // place the seed enters, so equal-affinity plateaus resolve differently
  // across seeds while any fixed (spec, seed) stays deterministic.
  if (shards > 1 && pnodes <= kMaxRefinePnodes) {
    std::vector<std::vector<std::uint64_t>> aff(
        pnodes, std::vector<std::uint64_t>(pnodes, 0));
    for (std::size_t p = 0; p < pnodes; ++p) {
      for (std::size_t q = p + 1; q < pnodes; ++q) {
        aff[p][q] = aff[q][p] = affinity(p, q);
      }
    }
    // internal[p][k] = total affinity between p and shard k's members.
    std::vector<std::vector<std::uint64_t>> internal(
        pnodes, std::vector<std::uint64_t>(shards, 0));
    for (std::size_t p = 0; p < pnodes; ++p) {
      for (std::size_t r = 0; r < pnodes; ++r) {
        internal[p][shard_of[r]] += aff[p][r];
      }
    }
    std::vector<std::size_t> order(pnodes);
    std::iota(order.begin(), order.end(), 0);
    std::uint64_t state = seed ^ 0x70327472616ab055ull;
    for (std::size_t i = pnodes - 1; i > 0; --i) {
      std::swap(order[i], order[splitmix64(state) % (i + 1)]);
    }
    for (const std::size_t p : order) {
      for (const std::size_t q : order) {
        const std::size_t a = shard_of[p];
        const std::size_t b = shard_of[q];
        if (a == b) continue;
        const std::int64_t gain_pq =
            static_cast<std::int64_t>(internal[p][b] + internal[q][a]) -
            static_cast<std::int64_t>(internal[p][a] + internal[q][b]) -
            2 * static_cast<std::int64_t>(aff[p][q]);
        if (gain_pq <= 0) continue;
        shard_of[p] = b;
        shard_of[q] = a;
        for (std::size_t r = 0; r < pnodes; ++r) {
          internal[r][a] += aff[r][q] - aff[r][p];
          internal[r][b] += aff[r][p] - aff[r][q];
        }
      }
    }
  }
  return shard_of;
}

}  // namespace p2plab::engine
