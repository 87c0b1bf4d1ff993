#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>
#include <tuple>
#include <vector>

#include "mpi/collectives.hpp"
#include "mpi/cost.hpp"
#include "mpi/mailbox.hpp"
#include "mpi/world.hpp"

namespace dnnperf::mpi {
namespace {

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

TEST(P2P, SendRecvMovesBytes) {
  World::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const int value = 12345;
      comm.send(&value, sizeof(value), 1, 7);
    } else {
      int got = 0;
      comm.recv(&got, sizeof(got), 0, 7);
      EXPECT_EQ(got, 12345);
    }
  });
}

TEST(P2P, MessagesAreFifoPerSourceAndTag) {
  World::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send(&i, sizeof(i), 1, 3);
    } else {
      for (int i = 0; i < 10; ++i) {
        int got = -1;
        comm.recv(&got, sizeof(got), 0, 3);
        EXPECT_EQ(got, i);
      }
    }
  });
}

TEST(P2P, TagsAreIndependent) {
  World::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const int a = 1, b = 2;
      comm.send(&a, sizeof(a), 1, 10);
      comm.send(&b, sizeof(b), 1, 20);
    } else {
      int got = 0;
      comm.recv(&got, sizeof(got), 0, 20);  // receive the later tag first
      EXPECT_EQ(got, 2);
      comm.recv(&got, sizeof(got), 0, 10);
      EXPECT_EQ(got, 1);
    }
  });
}

TEST(P2P, SizeMismatchThrows) {
  EXPECT_THROW(World::run(2,
                          [](Comm& comm) {
                            if (comm.rank() == 0) {
                              const std::int64_t big = 7;
                              comm.send(&big, sizeof(big), 1, 1);
                            } else {
                              int small = 0;
                              comm.recv(&small, sizeof(small), 0, 1);
                            }
                          }),
               std::length_error);
}

TEST(P2P, BadRankThrows) {
  EXPECT_THROW(World::run(1,
                          [](Comm& comm) {
                            int x = 0;
                            comm.send(&x, sizeof(x), 5, 0);
                          }),
               std::out_of_range);
}

TEST(Barrier, AllRanksPass) {
  for (int p : {1, 2, 3, 5, 8}) {
    std::atomic<int> before{0};
    World::run(p, [&](Comm& comm) {
      ++before;
      comm.barrier();
      EXPECT_EQ(before.load(), p);  // nobody exits before everyone arrived
    });
  }
}

// ---------------------------------------------------------------------------
// Collectives, parameterized over (algorithm, ranks, count)
// ---------------------------------------------------------------------------

using AllreduceCase = std::tuple<AllreduceAlgo, int, int>;

class AllreduceParam : public ::testing::TestWithParam<AllreduceCase> {};

TEST_P(AllreduceParam, SumMatchesSerialReference) {
  const auto [algo, ranks, count] = GetParam();
  World::run(ranks, [&, algo = algo, ranks = ranks, count = count](Comm& comm) {
    std::vector<double> data(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
      data[static_cast<std::size_t>(i)] = comm.rank() * 1000.0 + i;
    allreduce(comm, std::span<double>(data), ReduceOp::Sum, algo);
    for (int i = 0; i < count; ++i) {
      // sum over r of (r*1000 + i) = 1000*r(r-1)/2 ... over all ranks.
      const double expected = 1000.0 * ranks * (ranks - 1) / 2.0 + i * ranks;
      ASSERT_DOUBLE_EQ(data[static_cast<std::size_t>(i)], expected) << "element " << i;
    }
  });
}

TEST_P(AllreduceParam, MaxMatchesSerialReference) {
  const auto [algo, ranks, count] = GetParam();
  World::run(ranks, [&, algo = algo, ranks = ranks, count = count](Comm& comm) {
    std::vector<double> data(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
      data[static_cast<std::size_t>(i)] = (comm.rank() * 7 + i) % 13;
    allreduce(comm, std::span<double>(data), ReduceOp::Max, algo);
    for (int i = 0; i < count; ++i) {
      double expected = 0.0;
      for (int r = 0; r < ranks; ++r) expected = std::max(expected, double((r * 7 + i) % 13));
      ASSERT_DOUBLE_EQ(data[static_cast<std::size_t>(i)], expected);
    }
  });
}

std::string allreduce_case_name(const ::testing::TestParamInfo<AllreduceCase>& info) {
  static const char* const kNames[] = {"Auto", "Ring", "RecDoubling", "Rabenseifner"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) + "_p" +
         std::to_string(std::get<1>(info.param)) + "_n" + std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsByRanksBySizes, AllreduceParam,
    ::testing::Combine(::testing::Values(AllreduceAlgo::Ring, AllreduceAlgo::RecursiveDoubling,
                                         AllreduceAlgo::Rabenseifner, AllreduceAlgo::Auto),
                       ::testing::Values(1, 2, 3, 4, 5, 8),
                       ::testing::Values(1, 7, 64, 1000)),
    allreduce_case_name);

TEST(Collectives, AllreduceIntMinProd) {
  World::run(4, [](Comm& comm) {
    std::vector<std::int32_t> mins{comm.rank() + 1, 10 - comm.rank()};
    allreduce(comm, std::span<std::int32_t>(mins), ReduceOp::Min, AllreduceAlgo::RecursiveDoubling);
    EXPECT_EQ(mins[0], 1);
    EXPECT_EQ(mins[1], 7);

    std::vector<std::int32_t> prods{2};
    allreduce(comm, std::span<std::int32_t>(prods), ReduceOp::Prod, AllreduceAlgo::Ring);
    EXPECT_EQ(prods[0], 16);  // 2^4
  });
}

class BcastParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BcastParam, EveryRankGetsRootData) {
  const auto [ranks, root] = GetParam();
  if (root >= ranks) GTEST_SKIP();
  World::run(ranks, [&, root = root](Comm& comm) {
    std::vector<float> data(33, comm.rank() == root ? 42.5f : 0.0f);
    bcast(comm, std::span<float>(data), root);
    for (float v : data) ASSERT_EQ(v, 42.5f);
  });
}

INSTANTIATE_TEST_SUITE_P(RanksByRoot, BcastParam,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                                            ::testing::Values(0, 1, 4)));

TEST(Collectives, AllgatherOrdersByRank) {
  for (int ranks : {1, 2, 4, 6}) {
    World::run(ranks, [ranks](Comm& comm) {
      std::vector<int> mine{comm.rank() * 2, comm.rank() * 2 + 1};
      std::vector<int> all(static_cast<std::size_t>(2 * ranks));
      allgather(comm, std::span<const int>(mine), std::span<int>(all));
      for (int i = 0; i < 2 * ranks; ++i) ASSERT_EQ(all[static_cast<std::size_t>(i)], i);
    });
  }
}

TEST(Collectives, ReduceToEveryRoot) {
  const int ranks = 5;
  for (int root = 0; root < ranks; ++root) {
    World::run(ranks, [root, ranks](Comm& comm) {
      std::vector<double> data{static_cast<double>(comm.rank()), 1.0};
      reduce(comm, std::span<double>(data), ReduceOp::Sum, root);
      if (comm.rank() == root) {
        EXPECT_DOUBLE_EQ(data[0], ranks * (ranks - 1) / 2.0);
        EXPECT_DOUBLE_EQ(data[1], ranks);
      }
    });
  }
}

TEST(Collectives, BackToBackCollectivesDoNotInterfere) {
  World::run(4, [](Comm& comm) {
    for (int iter = 0; iter < 20; ++iter) {
      std::vector<double> x{1.0};
      allreduce(comm, std::span<double>(x), ReduceOp::Sum, AllreduceAlgo::Ring);
      ASSERT_DOUBLE_EQ(x[0], 4.0);
      std::vector<float> y(3, comm.rank() == 0 ? float(iter) : -1.0f);
      bcast(comm, std::span<float>(y), 0);
      ASSERT_EQ(y[2], float(iter));
      comm.barrier();
    }
  });
}

TEST(Collectives, ErrorsPropagateFromRankThreads) {
  EXPECT_THROW(World::run(3,
                          [](Comm& comm) {
                            std::vector<float> data(4);
                            bcast(comm, std::span<float>(data), 9);  // bad root
                          }),
               std::out_of_range);
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(CostModel, MonotoneInBytes) {
  CollectiveCostModel cost(net::Topology(8, 4, hw::FabricKind::InfiniBandEDR));
  double prev = 0.0;
  for (double bytes : {1e3, 1e5, 1e7, 1e9}) {
    const double t = cost.allreduce_time(bytes);
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_THROW(cost.allreduce_time(-1.0), std::invalid_argument);
}

TEST(CostModel, SingleRankIsFree) {
  CollectiveCostModel cost(net::Topology(1, 1, hw::FabricKind::InfiniBandEDR));
  EXPECT_EQ(cost.allreduce_time(1e6), 0.0);
  EXPECT_EQ(cost.barrier_time(), 0.0);
}

TEST(CostModel, HierarchicalBeatsFlatRingForLatencySensitiveSizes) {
  // 8 nodes x 16 ppn: a flat ring pays 2*(127) synchronized steps, each with
  // an inter-node hop; for small/medium payloads the hierarchical scheme
  // (shared-memory reduce, ring over 8 leaders, shared-memory bcast) wins.
  CollectiveCostModel cost(net::Topology(8, 16, hw::FabricKind::InfiniBandEDR));
  for (double bytes : {1e3, 64e3, 1e6})
    EXPECT_LT(cost.hierarchical_allreduce_time(bytes), cost.ring_allreduce_time_flat(bytes))
        << bytes;
}

TEST(CostModel, RecursiveDoublingWinsForSmallMessages) {
  CollectiveCostModel cost(net::Topology(16, 4, hw::FabricKind::InfiniBandEDR));
  EXPECT_LE(cost.recursive_doubling_time(64.0), cost.ring_allreduce_time_flat(64.0));
  // Auto never exceeds either candidate strategy.
  for (double bytes : {64.0, 1e5, 1e8}) {
    EXPECT_LE(cost.allreduce_time(bytes),
              cost.hierarchical_allreduce_time(bytes) + 1e-15);
    EXPECT_LE(cost.allreduce_time(bytes), cost.recursive_doubling_time(bytes) + 1e-15);
  }
}

TEST(CostModel, BandwidthTermDominatesAtLargeSize) {
  CollectiveCostModel cost(net::Topology(4, 1, hw::FabricKind::InfiniBandEDR));
  // Ring allreduce moves ~2 * bytes per rank; at 12 GB/s, 1.2 GB takes ~0.15 s.
  const double t = cost.allreduce_time(1.2e9, AllreduceAlgo::Ring);
  EXPECT_GT(t, 0.1);
  EXPECT_LT(t, 0.5);
}

TEST(CostModel, MoreNodesCostMore) {
  const double bytes = 240e6;  // ResNet-152 gradients
  double prev = 0.0;
  for (int nodes : {2, 8, 32, 128}) {
    CollectiveCostModel cost(net::Topology(nodes, 4, hw::FabricKind::OmniPath));
    const double t = cost.allreduce_time(bytes);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CostModel, StagedPlanMatchesStagedTime) {
  // Three levels: 4 nodes x 16 ppn in 2 NUMA domains of 8 ranks each.
  CollectiveCostModel cost(net::Topology(4, 16, hw::FabricKind::OmniPath,
                                         net::shared_memory_params(), 2,
                                         net::numa_local_params()));
  for (double bytes : {8.0, 64e3, 1e6, 1e9}) {
    const HierarchyPlan plan = cost.plan_staged_allreduce(bytes);
    EXPECT_EQ(plan.total_s, cost.staged_allreduce_time(bytes)) << bytes;
    ASSERT_EQ(plan.levels.size(), 2u);
    EXPECT_EQ(plan.levels[0].group_size, 8);
    EXPECT_EQ(plan.levels[1].group_size, 2);
    EXPECT_EQ(plan.top_ranks, 4);
    // The search's summation order: the top level, then the stages outward-in.
    EXPECT_EQ(plan.top_s + plan.levels[1].stage_s + plan.levels[0].stage_s, plan.total_s)
        << bytes;
  }
  // Latency-bound payloads take the tree, bandwidth-bound ones the ring,
  // whose shard shrinks by each group size on the way up.
  EXPECT_EQ(cost.plan_staged_allreduce(8.0).levels[0].algo, StageAlgo::Tree);
  const HierarchyPlan big = cost.plan_staged_allreduce(1e9);
  EXPECT_EQ(big.levels[0].algo, StageAlgo::RingReduceScatter);
  EXPECT_EQ(big.levels[1].algo, StageAlgo::RingReduceScatter);
  EXPECT_EQ(big.top_bytes, 1e9 / 8 / 2);
  EXPECT_THROW(cost.staged_allreduce_time(-1.0), std::invalid_argument);
  EXPECT_THROW(cost.plan_staged_allreduce(-1.0), std::invalid_argument);

  // Without a NUMA level there is one intra-node stage; with one rank per
  // node, none.
  const CollectiveCostModel two(net::Topology(4, 16, hw::FabricKind::OmniPath));
  EXPECT_EQ(two.plan_staged_allreduce(1e6).levels.size(), 1u);
  const CollectiveCostModel flat(net::Topology(4, 1, hw::FabricKind::OmniPath));
  const HierarchyPlan top_only = flat.plan_staged_allreduce(1e6);
  EXPECT_TRUE(top_only.levels.empty());
  EXPECT_EQ(top_only.total_s, top_only.top_s);
  EXPECT_EQ(top_only.total_s, flat.staged_allreduce_time(1e6));
}


// ---------------------------------------------------------------------------
// Communicator splitting and the collectives built on it
// ---------------------------------------------------------------------------

TEST(Split, GroupsByColorOrderedByKey) {
  World::run(6, [](Comm& comm) {
    // Even/odd split, keyed by descending rank.
    auto sub = comm.split(comm.rank() % 2, -comm.rank());
    ASSERT_TRUE(sub.has_value());
    EXPECT_EQ(sub->size(), 3);
    // key = -rank sorts descending: global ranks {4,2,0} / {5,3,1}.
    const int expected_rank = 2 - comm.rank() / 2;
    EXPECT_EQ(sub->rank(), expected_rank);
    EXPECT_EQ(sub->global_rank(), comm.rank());
  });
}

TEST(Split, UndefinedColorGetsNoCommunicator) {
  World::run(4, [](Comm& comm) {
    auto sub = comm.split(comm.rank() == 0 ? 0 : Comm::kUndefinedColor, 0);
    EXPECT_EQ(sub.has_value(), comm.rank() == 0);
    if (sub) {
      EXPECT_EQ(sub->size(), 1);
    }
  });
}

TEST(Split, SubCommunicatorCollectivesWork) {
  World::run(8, [](Comm& comm) {
    auto sub = comm.split(comm.rank() / 4, comm.rank());  // two groups of 4
    ASSERT_TRUE(sub.has_value());
    std::vector<double> x{1.0};
    allreduce(*sub, std::span<double>(x), ReduceOp::Sum, AllreduceAlgo::Ring);
    EXPECT_DOUBLE_EQ(x[0], 4.0);  // only the 4 group members contribute
    sub->barrier();

    // Parent communicator still works concurrently with the child.
    std::vector<double> y{1.0};
    allreduce(comm, std::span<double>(y), ReduceOp::Sum, AllreduceAlgo::Ring);
    EXPECT_DOUBLE_EQ(y[0], 8.0);
  });
}

TEST(Split, NestedSplits) {
  World::run(8, [](Comm& comm) {
    auto half = comm.split(comm.rank() / 4, comm.rank());
    ASSERT_TRUE(half.has_value());
    auto quarter = half->split(half->rank() / 2, half->rank());
    ASSERT_TRUE(quarter.has_value());
    EXPECT_EQ(quarter->size(), 2);
    std::vector<int> v{1};
    allreduce(*quarter, std::span<int>(v), ReduceOp::Sum, AllreduceAlgo::RecursiveDoubling);
    EXPECT_EQ(v[0], 2);
  });
}

TEST(Collectives, GatherToEveryRoot) {
  const int ranks = 5;
  for (int root = 0; root < ranks; ++root) {
    World::run(ranks, [root, ranks](Comm& comm) {
      std::vector<int> mine{comm.rank() * 10, comm.rank() * 10 + 1};
      std::vector<int> all(comm.rank() == root ? static_cast<std::size_t>(2 * ranks) : 0u);
      if (comm.rank() == root) {
        gather(comm, std::span<const int>(mine), std::span<int>(all), root);
        for (int r = 0; r < ranks; ++r) {
          ASSERT_EQ(all[static_cast<std::size_t>(2 * r)], r * 10);
          ASSERT_EQ(all[static_cast<std::size_t>(2 * r + 1)], r * 10 + 1);
        }
      } else {
        gather(comm, std::span<const int>(mine), std::span<int>(all), root);
      }
    });
  }
}

TEST(Collectives, ScatterFromEveryRoot) {
  const int ranks = 4;
  for (int root = 0; root < ranks; ++root) {
    World::run(ranks, [root, ranks](Comm& comm) {
      std::vector<float> all;
      if (comm.rank() == root)
        for (int i = 0; i < 3 * ranks; ++i) all.push_back(static_cast<float>(i));
      std::vector<float> mine(3);
      scatter(comm, std::span<const float>(all), std::span<float>(mine), root);
      for (int i = 0; i < 3; ++i)
        ASSERT_EQ(mine[static_cast<std::size_t>(i)], static_cast<float>(comm.rank() * 3 + i));
    });
  }
}

TEST(Collectives, GatherScatterRoundTrip) {
  World::run(6, [](Comm& comm) {
    std::vector<int> mine{comm.rank() + 100};
    std::vector<int> all(comm.rank() == 0 ? 6u : 0u);
    gather(comm, std::span<const int>(mine), std::span<int>(all), 0);
    std::vector<int> back(1);
    scatter(comm, std::span<const int>(all), std::span<int>(back), 0);
    EXPECT_EQ(back[0], comm.rank() + 100);
  });
}

class AlltoallParam : public ::testing::TestWithParam<int> {};

TEST_P(AlltoallParam, TransposesBlocks) {
  const int ranks = GetParam();
  World::run(ranks, [ranks](Comm& comm) {
    const std::size_t count = 3;
    std::vector<int> send(count * static_cast<std::size_t>(ranks));
    for (int d = 0; d < ranks; ++d)
      for (std::size_t i = 0; i < count; ++i)
        send[static_cast<std::size_t>(d) * count + i] =
            comm.rank() * 1000 + d * 10 + static_cast<int>(i);
    std::vector<int> recv(send.size());
    alltoall(comm, std::span<const int>(send), std::span<int>(recv), count);
    for (int src = 0; src < ranks; ++src)
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(recv[static_cast<std::size_t>(src) * count + i],
                  src * 1000 + comm.rank() * 10 + static_cast<int>(i));
  });
}

INSTANTIATE_TEST_SUITE_P(PowersAndOdd, AlltoallParam, ::testing::Values(1, 2, 4, 8, 3, 6));

class HierarchicalParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HierarchicalParam, MatchesFlatAllreduce) {
  const auto [nodes, rpn] = GetParam();
  const int ranks = nodes * rpn;
  World::run(ranks, [&, rpn = rpn, ranks = ranks](Comm& comm) {
    std::vector<double> hier(32), flat(32);
    for (std::size_t i = 0; i < hier.size(); ++i)
      hier[i] = flat[i] = comm.rank() * 3.0 + static_cast<double>(i);
    allreduce_hierarchical(comm, std::span<double>(hier), ReduceOp::Sum, rpn);
    allreduce(comm, std::span<double>(flat), ReduceOp::Sum, AllreduceAlgo::Ring);
    for (std::size_t i = 0; i < hier.size(); ++i) ASSERT_DOUBLE_EQ(hier[i], flat[i]);
  });
}

INSTANTIATE_TEST_SUITE_P(NodesByPpn, HierarchicalParam,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------------
// Exhaustive small-(p, n) oracle: every algorithm vs a serial reduction
// ---------------------------------------------------------------------------

/// Deterministic per-(rank, element) test value: small integers so Sum and
/// Prod stay exact in 64 bits across 8 ranks, signed so Min/Max differ.
long long oracle_value(int rank, int i, ReduceOp /*op*/) {
  return (rank * 31 + i * 7) % 23 - 11;
}

long long serial_reduce(ReduceOp op, int ranks, int i) {
  long long acc = oracle_value(0, i, op);
  for (int r = 1; r < ranks; ++r) {
    const long long v = oracle_value(r, i, op);
    switch (op) {
      case ReduceOp::Sum: acc += v; break;
      case ReduceOp::Max: acc = std::max(acc, v); break;
      case ReduceOp::Min: acc = std::min(acc, v); break;
      case ReduceOp::Prod: acc *= v; break;
    }
  }
  return acc;
}

constexpr int kOracleSizes[] = {0, 1, 2, 3, 5, 7, 8, 13};

TEST(CollectivesOracle, EveryAllreduceAlgorithmOnDegenerateGrids) {
  // The grid deliberately covers the paths the large-payload tests never
  // exercise: size 0, size < ranks (empty ring chunks), non-power-of-two
  // rank counts through the recursive-doubling fold, and the Rabenseifner
  // ring fallback (size < p, p not a power of two).
  for (int p = 1; p <= 8; ++p) {
    for (int n : kOracleSizes) {
      World::run(p, [&, p = p, n = n](Comm& comm) {
        for (AllreduceAlgo algo : {AllreduceAlgo::Ring, AllreduceAlgo::RecursiveDoubling,
                                   AllreduceAlgo::Rabenseifner, AllreduceAlgo::Auto}) {
          for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod}) {
            std::vector<long long> data(static_cast<std::size_t>(n));
            for (int i = 0; i < n; ++i)
              data[static_cast<std::size_t>(i)] = oracle_value(comm.rank(), i, op);
            allreduce(comm, std::span<long long>(data), op, algo);
            for (int i = 0; i < n; ++i)
              ASSERT_EQ(data[static_cast<std::size_t>(i)], serial_reduce(op, p, i))
                  << "p=" << p << " n=" << n << " algo=" << static_cast<int>(algo)
                  << " op=" << static_cast<int>(op) << " i=" << i;
          }
        }
      });
    }
  }
}

TEST(CollectivesOracle, ReduceScatterThenAllgatherComposeToAllreduce) {
  for (int p = 1; p <= 8; ++p) {
    for (int n : kOracleSizes) {
      World::run(p, [&, p = p, n = n](Comm& comm) {
        std::vector<long long> data(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
          data[static_cast<std::size_t>(i)] = oracle_value(comm.rank(), i, ReduceOp::Sum);
        reduce_scatter_ring(comm, std::span<long long>(data), ReduceOp::Sum);
        // After reduce-scatter, rank r owns chunk r fully reduced.
        const auto mine = detail::chunk_range(static_cast<std::size_t>(n), p, comm.rank());
        for (std::size_t i = mine.begin; i < mine.end; ++i)
          ASSERT_EQ(data[i], serial_reduce(ReduceOp::Sum, p, static_cast<int>(i)))
              << "p=" << p << " n=" << n << " owned element " << i;
        allgather_ring_chunks(comm, std::span<long long>(data));
        for (int i = 0; i < n; ++i)
          ASSERT_EQ(data[static_cast<std::size_t>(i)], serial_reduce(ReduceOp::Sum, p, i))
              << "p=" << p << " n=" << n << " i=" << i;
      });
    }
  }
}

TEST(CollectivesOracle, HierarchicalStagesMatchSerialForEveryFactorization) {
  for (int p = 1; p <= 8; ++p) {
    // Every one- and two-level stage list whose product divides p; the
    // remaining factor is the top-level allreduce.
    std::vector<std::vector<int>> stagings{{}};
    for (int g = 1; g <= p; ++g) {
      if (p % g != 0) continue;
      stagings.push_back({g});
      for (int h = 1; h <= p / g; ++h)
        if ((p / g) % h == 0) stagings.push_back({g, h});
    }
    for (const auto& stages : stagings) {
      for (int n : {0, 1, 3, 13}) {
        World::run(p, [&, p = p, n = n](Comm& comm) {
          for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Max}) {
            std::vector<long long> data(static_cast<std::size_t>(n));
            for (int i = 0; i < n; ++i)
              data[static_cast<std::size_t>(i)] = oracle_value(comm.rank(), i, op);
            allreduce_hierarchical_stages(comm, std::span<long long>(data), op,
                                          std::span<const int>(stages));
            for (int i = 0; i < n; ++i)
              ASSERT_EQ(data[static_cast<std::size_t>(i)], serial_reduce(op, p, i))
                  << "p=" << p << " n=" << n << " stages=" << stages.size();
          }
        });
      }
    }
  }
}

TEST(CollectivesOracle, HierarchicalStagesRejectNonDivisorGroup) {
  World::run(6, [](Comm& comm) {
    std::vector<double> x(8, 1.0);
    const std::vector<int> bad{4};  // 4 does not divide 6
    EXPECT_THROW(allreduce_hierarchical_stages(comm, std::span<double>(x), ReduceOp::Sum,
                                               std::span<const int>(bad)),
                 std::invalid_argument);
    const std::vector<int> zero{0};
    EXPECT_THROW(allreduce_hierarchical_stages(comm, std::span<double>(x), ReduceOp::Sum,
                                               std::span<const int>(zero)),
                 std::invalid_argument);
  });
}

TEST(Collectives, BcastAndReduceRejectBadRootEvenOnSingleRank) {
  // Regression: the p == 1 early return used to precede root validation, so
  // a bad root was silently accepted on single-rank communicators only.
  World::run(1, [](Comm& comm) {
    std::vector<double> x(2, 1.0);
    EXPECT_THROW(bcast(comm, std::span<double>(x), 3), std::out_of_range);
    EXPECT_THROW(reduce(comm, std::span<double>(x), ReduceOp::Sum, -1), std::out_of_range);
  });
}

TEST(Collectives, HierarchicalRejectsBadPpn) {
  World::run(4, [](Comm& comm) {
    std::vector<double> x(4, 1.0);
    EXPECT_THROW(allreduce_hierarchical(comm, std::span<double>(x), ReduceOp::Sum, 3),
                 std::invalid_argument);
  });
}

TEST(P2P, UserTagRangeEnforced) {
  World::run(1, [](Comm& comm) {
    int x = 0;
    EXPECT_THROW(comm.send(&x, sizeof(x), 0, -1), std::invalid_argument);
    EXPECT_THROW(comm.send(&x, sizeof(x), 0, 1 << 16), std::invalid_argument);
  });
}

// ---------------------------------------------------------------------------
// Mailbox: poll for kPollBudget, then park
// ---------------------------------------------------------------------------

std::vector<std::byte> bytes_of(int v) {
  std::vector<std::byte> b(sizeof(v));
  std::memcpy(b.data(), &v, sizeof(v));
  return b;
}

int int_of(const std::vector<std::byte>& b) {
  int v = 0;
  EXPECT_EQ(b.size(), sizeof(v));
  std::memcpy(&v, b.data(), std::min(b.size(), sizeof(v)));
  return v;
}

TEST(Mailbox, ReceiveSatisfiedWhilePolling) {
  // The sender pushes as soon as the receiver announces its pop, well within
  // the poll budget. A receiver descheduled past the budget parks instead,
  // so the test asks only that some of many rounds never parked.
  constexpr int kRounds = 200;
  Mailbox box;
  std::atomic<int> announced{-1};
  std::thread sender([&] {
    for (int i = 0; i < kRounds; ++i) {
      while (announced.load(std::memory_order_acquire) != i) std::this_thread::yield();
      box.push(0, 9, bytes_of(i));
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    announced.store(i, std::memory_order_release);
    EXPECT_EQ(int_of(box.pop(0, 9)), i);
  }
  sender.join();
  EXPECT_LT(box.parks(), static_cast<std::uint64_t>(kRounds));
}

TEST(Mailbox, ReceivePastBudgetParksAndIsWoken) {
  // The sender sleeps far past the poll budget, then pushes a message for
  // another key first: the parked receiver wakes, finds nothing of its own,
  // parks on, and is woken again by its own message.
  Mailbox box;
  std::atomic<bool> announced{false};
  std::thread sender([&] {
    while (!announced.load(std::memory_order_acquire)) std::this_thread::yield();
    std::this_thread::sleep_for(Mailbox::kPollBudget * 400);
    box.push(1, 9, bytes_of(-1));
    std::this_thread::sleep_for(Mailbox::kPollBudget * 4);
    box.push(0, 9, bytes_of(42));
  });
  announced.store(true, std::memory_order_release);
  EXPECT_EQ(int_of(box.pop(0, 9)), 42);
  sender.join();
  EXPECT_EQ(box.parks(), 1u);
  EXPECT_EQ(int_of(box.pop(1, 9)), -1);  // already queued: no poll, no park
  EXPECT_EQ(box.parks(), 1u);
}

TEST(Mailbox, FifoPerSourceAndTagAcrossPollAndPark) {
  // Ranks 0 and 2 send to 1 and 3 on the world communicator (tags 5 and 6)
  // and on their two-rank sub-communicator (tag 5 again), interleaved, with
  // pauses past the poll budget so receives both poll and park. Receivers
  // drain the queues in a different order; each (source, tag, communicator)
  // stream must arrive in send order.
  constexpr int kMessages = 48;
  World world(4);
  std::vector<std::thread> ranks;
  for (int g = 0; g < 4; ++g) {
    ranks.emplace_back([&world, g] {
      Comm comm(world, g);
      auto pair = comm.split(g / 2, g);
      const int peer = g ^ 1;
      if (g % 2 == 0) {
        for (int i = 0; i < kMessages; ++i) {
          const int a = i, b = 1000 + i, c = 2000 + i;
          comm.send(&a, sizeof(a), peer, 5);
          pair->send(&c, sizeof(c), 1, 5);
          comm.send(&b, sizeof(b), peer, 6);
          if (i % 8 == 7) std::this_thread::sleep_for(Mailbox::kPollBudget * 4);
        }
      } else {
        int got = -1;
        for (int i = 0; i < kMessages; ++i) {
          pair->recv(&got, sizeof(got), 0, 5);
          EXPECT_EQ(got, 2000 + i);
          comm.recv(&got, sizeof(got), peer, 6);
          EXPECT_EQ(got, 1000 + i);
        }
        for (int i = 0; i < kMessages; ++i) {
          comm.recv(&got, sizeof(got), peer, 5);
          EXPECT_EQ(got, i);
        }
      }
    });
  }
  for (auto& t : ranks) t.join();
  EXPECT_GT(world.mailbox(1).parks() + world.mailbox(3).parks(), 0u);
}

}  // namespace
}  // namespace dnnperf::mpi
