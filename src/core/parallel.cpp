#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.hpp"

namespace mrl::core {

namespace {

int hardware_jobs() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

std::atomic<int> g_default_jobs{0};  // 0 = not overridden yet

}  // namespace

int default_jobs() {
  const int j = g_default_jobs.load(std::memory_order_relaxed);
  return j >= 1 ? j : hardware_jobs();
}

void set_default_jobs(int jobs) {
  g_default_jobs.store(jobs >= 1 ? jobs : 0, std::memory_order_relaxed);
}

int resolve_jobs(int jobs) { return jobs >= 1 ? jobs : default_jobs(); }

void parallel_for_indexed(std::size_t n, int jobs,
                          const std::function<void(int, std::size_t)>& fn) {
  MRL_CHECK(static_cast<bool>(fn));
  jobs = resolve_jobs(jobs);
  if (n == 0) return;
  if (jobs == 1 || n == 1) {
    // One job: every index on the caller's thread, in ascending order.
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }

  const int nworkers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs), n));
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto work = [&](int worker) {
    for (;;) {
      if (failed.load(std::memory_order_acquire)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(worker, i);
      } catch (...) {
        {
          std::lock_guard lk(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_release);
        return;
      }
    }
  };

  // Worker 0 is the calling thread, so jobs == N spins up N-1 extra threads
  // and the pool degrades gracefully when the grid is small.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nworkers - 1));
  for (int w = 1; w < nworkers; ++w) {
    threads.emplace_back(work, w);
  }
  work(0);
  for (auto& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mrl::core
