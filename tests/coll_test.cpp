// Collective algorithms: correctness across rank counts (TEST_P) and the
// expected performance asymmetries (ring is bandwidth-optimal; recursive
// doubling is latency-optimal).
#include <gtest/gtest.h>

#include <cmath>

#include "coll/algorithms.hpp"
#include "simnet/platform.hpp"

namespace mrl::coll {
namespace {

simnet::Platform plat() { return simnet::Platform::perlmutter_cpu(); }

class CollRanks : public ::testing::TestWithParam<int> {};

TEST_P(CollRanks, RecursiveDoublingAllreduceSums) {
  const int p = GetParam();
  runtime::Engine eng(plat(), p);
  const auto r = mpi::World::run(eng, [&](mpi::Comm& c) {
    std::vector<double> v(17);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<double>(c.rank() + 1) * (i + 1);
    }
    rd_allreduce_sum(c, v.data(), v.size());
    const double ranksum = p * (p + 1) / 2.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_DOUBLE_EQ(v[i], ranksum * (i + 1)) << i;
    }
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
}

TEST_P(CollRanks, RingAllreduceSums) {
  const int p = GetParam();
  runtime::Engine eng(plat(), p);
  const auto r = mpi::World::run(eng, [&](mpi::Comm& c) {
    std::vector<double> v(64);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<double>(c.rank() + 1) * (i + 1);
    }
    ring_allreduce_sum(c, v.data(), v.size());
    const double ranksum = p * (p + 1) / 2.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_NEAR(v[i], ranksum * (i + 1), 1e-9) << i;
    }
  });
  ASSERT_TRUE(r.ok()) << r.status.to_string();
}

INSTANTIATE_TEST_SUITE_P(Ranks, CollRanks,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16));

TEST(CollShmem, RingAllreduceOnGpuPlatforms) {
  for (auto make :
       {&simnet::Platform::perlmutter_gpu, &simnet::Platform::frontier_gpu}) {
    const simnet::Platform p = make();
    const int npes = p.max_ranks();
    runtime::Engine eng(p, npes);
    const auto r = shmem::World::run(eng, [&](shmem::Ctx& s) {
      std::vector<double> v(128);
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = static_cast<double>(s.pe() + 1) * (i + 1);
      }
      shmem_ring_allreduce_sum(s, v.data(), v.size());
      const double ranksum = npes * (npes + 1) / 2.0;
      for (std::size_t i = 0; i < v.size(); ++i) {
        ASSERT_NEAR(v[i], ranksum * (i + 1), 1e-9) << i;
      }
    });
    ASSERT_TRUE(r.ok()) << p.name() << ": " << r.status.to_string();
  }
}

TEST(CollPerf, RingBeatsRecursiveDoublingForLargeVectors) {
  // Ring moves 2(P-1)/P of the data per rank; recursive doubling moves
  // log2(P) full copies — ring must win once vectors are big.
  const int p = 8;
  runtime::Engine eng(plat(), p);
  double t_ring = 0, t_rd = 0;
  const auto r = mpi::World::run(eng, [&](mpi::Comm& c) {
    std::vector<double> v(1 << 18, 1.0);  // 2 MiB
    c.barrier();
    double t0 = c.now();
    ring_allreduce_sum(c, v.data(), v.size());
    c.barrier();
    if (c.rank() == 0) t_ring = c.now() - t0;
    t0 = c.now();
    rd_allreduce_sum(c, v.data(), v.size());
    c.barrier();
    if (c.rank() == 0) t_rd = c.now() - t0;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_LT(t_ring, t_rd);
}

TEST(CollPerf, RecursiveDoublingWinsForTinyVectors) {
  const int p = 8;
  runtime::Engine eng(plat(), p);
  double t_ring = 0, t_rd = 0;
  const auto r = mpi::World::run(eng, [&](mpi::Comm& c) {
    std::vector<double> v(8, 1.0);
    c.barrier();
    double t0 = c.now();
    ring_allreduce_sum(c, v.data(), v.size());
    c.barrier();
    if (c.rank() == 0) t_ring = c.now() - t0;
    t0 = c.now();
    rd_allreduce_sum(c, v.data(), v.size());
    c.barrier();
    if (c.rank() == 0) t_rd = c.now() - t0;
  });
  ASSERT_TRUE(r.ok());
  // 2(P-1) = 14 latency steps for the ring vs log2(8) = 3 rounds.
  EXPECT_LT(t_rd, t_ring);
}

}  // namespace
}  // namespace mrl::coll
