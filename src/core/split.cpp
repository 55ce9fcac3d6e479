#include "core/split.hpp"

#include <algorithm>
#include <map>

#include "shmem/shmem.hpp"
#include "util/status.hpp"
#include "util/units.hpp"
#include "util/zero_bytes.hpp"

namespace mrl::core {

SplitConfig SplitConfig::defaults() {
  SplitConfig cfg;
  for (std::uint64_t v = 1024; v <= (16ull << 20); v *= 2) {
    cfg.volumes.push_back(v);
  }
  cfg.ways = {1, 2, 4, 8};
  return cfg;
}

std::vector<SplitPoint> run_split_sweep(const simnet::Platform& platform,
                                        const SplitConfig& cfg) {
  MRL_CHECK(!cfg.volumes.empty() && !cfg.ways.empty());
  std::vector<SplitPoint> out;
  for (std::uint64_t volume : cfg.volumes) {
    for (int ways : cfg.ways) {
      MRL_CHECK(ways >= 1);
      const std::uint64_t chunk = volume / static_cast<std::uint64_t>(ways);
      MRL_CHECK_MSG(chunk > 0, "volume smaller than split ways");

      runtime::Engine eng(platform, cfg.nranks);
      double elapsed = 0;
      shmem::World::Options opt;
      opt.heap_bytes = std::max<std::uint64_t>(volume + 64 * 8, 1u << 20);
      opt.capture_payloads = false;  // timing-only transfers
      const auto res = shmem::World::run(
          eng,
          [&](shmem::Ctx& s) {
            auto data = s.allocate<std::byte>(volume);
            auto sig = s.allocate<std::uint64_t>(
                static_cast<std::uint64_t>(ways));
            util::ZeroBytes origin(s.pe() == cfg.sender ? chunk : 0);
            s.barrier_all();
            const double t0 = s.now();
            if (s.pe() == cfg.sender) {
              for (int it = 0; it < cfg.iters; ++it) {
                for (int j = 0; j < ways; ++j) {
                  s.put_signal_nbi(
                      data.at(static_cast<std::uint64_t>(j) * chunk),
                      origin.data(), chunk,
                      sig.at(static_cast<std::uint64_t>(j)), 1, cfg.receiver);
                }
                s.quiet();
              }
              elapsed = s.now() - t0;
            }
            s.barrier_all();
          },
          opt);
      MRL_CHECK_MSG(res.ok(), res.status.message().c_str());

      SplitPoint pt;
      pt.volume_bytes = volume;
      pt.ways = ways;
      pt.time_us = elapsed / cfg.iters;
      pt.gbs = bytes_per_us_to_gbs(
          static_cast<double>(volume) * cfg.iters, elapsed);
      out.push_back(pt);
    }
  }
  // Fill speedups relative to the unsplit (ways == 1) time per volume.
  std::map<std::uint64_t, double> base;
  for (const SplitPoint& p : out) {
    if (p.ways == 1) base[p.volume_bytes] = p.time_us;
  }
  for (SplitPoint& p : out) {
    const auto it = base.find(p.volume_bytes);
    if (it != base.end() && p.time_us > 0) {
      p.speedup_vs_1 = it->second / p.time_us;
    }
  }
  return out;
}

}  // namespace mrl::core
