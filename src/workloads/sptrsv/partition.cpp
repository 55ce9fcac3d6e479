// 2D block-cyclic partitioning and the precomputed solve plan.
#include <algorithm>
#include <set>

#include "util/status.hpp"
#include "workloads/sptrsv/sptrsv.hpp"
#include "workloads/stencil/stencil.hpp"

namespace mrl::workloads::sptrsv {

int SolvePlan::x_slot(int rank, int J) const {
  const auto& cols = x_cols[static_cast<std::size_t>(rank)];
  const auto it = std::lower_bound(cols.begin(), cols.end(), J);
  MRL_CHECK(it != cols.end() && *it == J);
  return static_cast<int>(it - cols.begin());
}

int SolvePlan::lsum_slot(int rank, int I, int src) const {
  const auto& pairs = lsum_pairs[static_cast<std::size_t>(rank)];
  const auto it =
      std::lower_bound(pairs.begin(), pairs.end(), std::make_pair(I, src));
  MRL_CHECK(it != pairs.end() && it->first == I && it->second == src);
  return static_cast<int>(x_cols[static_cast<std::size_t>(rank)].size() +
                          (it - pairs.begin()));
}

SolvePlan SolvePlan::build(const SupernodalMatrix& L, int nranks, int me) {
  SolvePlan plan;
  // The stencil's near-square grid: rows of ranks pr, columns pc.
  stencil::choose_grid(nranks, &plan.grid.pc, &plan.grid.pr);
  plan.me = me;
  const int S = L.num_supernodes();
  plan.col_blocks.resize(static_cast<std::size_t>(S));
  plan.row_remaining.assign(static_cast<std::size_t>(S), 0);
  plan.deps.assign(static_cast<std::size_t>(S), 0);
  plan.fanout.resize(static_cast<std::size_t>(S));
  plan.x_cols.resize(static_cast<std::size_t>(nranks));
  plan.lsum_pairs.resize(static_cast<std::size_t>(nranks));

  std::vector<std::set<int>> contributors(static_cast<std::size_t>(S));
  for (int J = 0; J < S; ++J) {
    const int d = plan.grid.owner(J, J);
    std::set<int> col_owners;
    for (const SupernodalMatrix::Block& blk : L.col(J)) {
      const int o = plan.grid.owner(blk.I, J);
      col_owners.insert(o);
      contributors[static_cast<std::size_t>(blk.I)].insert(o);
      if (o == me) {
        plan.col_blocks[static_cast<std::size_t>(J)].push_back(
            static_cast<int>(plan.my_blocks.size()));
        plan.my_blocks.push_back(LocalBlock{blk.I, J, &blk});
        ++plan.row_remaining[static_cast<std::size_t>(blk.I)];
      }
    }
    if (d == me) plan.my_diag.push_back(J);
    for (int o : col_owners) {
      if (o == d) continue;  // the diagonal owner uses its x locally
      plan.fanout[static_cast<std::size_t>(J)].push_back(o);
      plan.x_cols[static_cast<std::size_t>(o)].push_back(J);
      if (o == me) ++plan.expected_x;
    }
  }
  for (int I = 0; I < S; ++I) {
    const int d = plan.grid.owner(I, I);
    bool local_contrib = false;
    for (int c : contributors[static_cast<std::size_t>(I)]) {
      if (c == d) {
        local_contrib = true;
        continue;
      }
      plan.lsum_pairs[static_cast<std::size_t>(d)].emplace_back(I, c);
      if (d == me) ++plan.expected_lsum;
      if (d == me) ++plan.deps[static_cast<std::size_t>(I)];
    }
    if (d == me && local_contrib) ++plan.deps[static_cast<std::size_t>(I)];
  }
  // x_cols are filled in ascending J; lsum_pairs in ascending (I, src)
  // because the outer loop ascends over I and sets iterate in order.
  return plan;
}

}  // namespace mrl::workloads::sptrsv
