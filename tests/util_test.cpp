// util: stats, rng, units, table, csv, histogram, flags, zero bytes,
// realloc-grown vectors.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "core/cli.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/function_ref.hpp"
#include "util/histogram.hpp"
#include "util/indexed_heap.hpp"
#include "util/pair_map.hpp"
#include "util/parse.hpp"
#include "util/pod_vector.hpp"
#include "util/rng.hpp"
#include "util/sorted_run.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "util/zero_bytes.hpp"

namespace mrl {
namespace {

TEST(Status, OkAndError) {
  EXPECT_TRUE(Status::ok().is_ok());
  const Status s(ErrorCode::kInvalidArgument, "bad");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.to_string(), "INVALID_ARGUMENT: bad");
}

TEST(Result, ValueAndStatusPaths) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status(ErrorCode::kNotFound, "missing"));
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(Percentile, InterpolatesOrderStatistics) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(median(v), 5.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 3.25);
}

TEST(Geomean, Basic) {
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamsAreIndependentlySeeded) {
  Xoshiro256 a = Xoshiro256::for_stream(1, 0);
  Xoshiro256 b = Xoshiro256::for_stream(1, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformBounds) {
  Xoshiro256 g(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(g.uniform(10), 10u);
    const double u = g.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto v = g.uniform_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(bytes_per_us_to_gbs(32000.0, 1.0), 32.0);
  EXPECT_DOUBLE_EQ(gbs_to_us_per_byte(32.0) * 32e9, 1e6);
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_bytes(24), "24 B");
  EXPECT_EQ(format_bytes(131072), "128 KiB");
  EXPECT_EQ(format_bytes(2u << 20), "2 MiB");
  EXPECT_EQ(format_time_us(3.3), "3.30 us");
  EXPECT_EQ(format_time_us(1234.0), "1.23 ms");
  EXPECT_EQ(format_gbs(32.0), "32.00 GB/s");
  EXPECT_EQ(format_count(1000000), "1M");
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"a", "bb"});
  t.add_row({"x", "1"});
  t.add_separator();
  t.add_row({"longer", "2"});
  const std::string out = t.render("title");
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("| longer |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"a", "b,c"});
  EXPECT_EQ(os.str(), "a,\"b,c\"\n");
}

TEST(Csv, WriteToUnwritablePathSurfacesStatus) {
  const Status st = write_csv_file("/nonexistent-dir-for-msgroof/x.csv",
                                   {{"a", "b"}, {"1", "2"}});
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kNotFound);
  EXPECT_NE(st.message().find("x.csv"), std::string::npos) << st.message();
}

TEST(Csv, WriteToValidPathSucceeds) {
  const std::string path =
      std::filesystem::temp_directory_path() / "msgroof_csv_test.csv";
  const Status st = write_csv_file(path, {{"h1", "h2"}, {"1", "2,3"}});
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), "h1,h2\n1,\"2,3\"\n");
  std::filesystem::remove(path);
}

TEST(Histogram, BucketsPowersOfTwo) {
  Log2Histogram h;
  h.add(1);    // bucket 0
  h.add(3);    // bucket 1
  h.add(1024); // bucket 10
  h.add_n(1025, 2);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(10), 3u);
  EXPECT_EQ(h.min_bucket(), 0);
  EXPECT_EQ(h.max_bucket(), 10);
  EXPECT_NE(h.render("B").find("1024"), std::string::npos);
}

TEST(Histogram, BucketZeroLabelCoversZero) {
  // Bucket 0 absorbs everything in [0, 2) — including exact zeros — so its
  // label must not claim a lower edge of 1.
  EXPECT_EQ(Log2Histogram::bucket_label(0), "[0, 2)");
  EXPECT_EQ(Log2Histogram::bucket_label(1), "[2, 4)");
  EXPECT_EQ(Log2Histogram::bucket_label(10), "[1024, 2048)");
}

TEST(Histogram, ZeroValueLandsInBucketZero) {
  Log2Histogram h;
  h.add(0.0);
  h.add(0.5);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_NE(h.render().find("[0, 2)"), std::string::npos);
}

TEST(Histogram, RareBucketStillDrawsABar) {
  Log2Histogram h;
  h.add_n(1.0, 100000);
  h.add(1024.0);  // 1e-5 of the peak: proportional width rounds to 0
  const std::string out = h.render();
  std::istringstream is(out);
  std::string line;
  bool saw_rare = false;
  while (std::getline(is, line)) {
    if (line.find("[1024, 2048)") == std::string::npos) continue;
    saw_rare = true;
    EXPECT_NE(line.find('#'), std::string::npos)
        << "non-empty bucket rendered without a bar: " << line;
  }
  EXPECT_TRUE(saw_rare) << out;
}

TEST(Histogram, MergeAddsBucketwise) {
  Log2Histogram a, b;
  a.add_n(1.0, 3);
  a.add(100.0);
  b.add_n(1.0, 2);
  b.add(5000.0);
  a.merge(b);
  EXPECT_EQ(a.total(), 7u);
  EXPECT_EQ(a.bucket_count(0), 5u);
  EXPECT_EQ(a.bucket_count(6), 1u);   // 100 in [64, 128)
  EXPECT_EQ(a.bucket_count(12), 1u);  // 5000 in [4096, 8192)
  Log2Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.total(), 7u);
}

TEST(Stats, PercentileRejectsNaNSample) {
  // Sorting a NaN-containing range is UB; the check must fire before sort.
  EXPECT_DEATH(
      percentile({1.0, std::numeric_limits<double>::quiet_NaN(), 3.0}, 50.0),
      "NaN");
}

TEST(Parse, I64AcceptsCanonicalIntegers) {
  EXPECT_EQ(parse_i64("42").value(), 42);
  EXPECT_EQ(parse_i64("-7").value(), -7);
  EXPECT_EQ(parse_i64("0").value(), 0);
}

TEST(Parse, I64RejectsGarbage) {
  EXPECT_FALSE(parse_i64(""));
  EXPECT_FALSE(parse_i64("banana"));
  EXPECT_FALSE(parse_i64("12x"));   // atoi would return 12
  EXPECT_FALSE(parse_i64(" 42"));   // no leading whitespace
  EXPECT_FALSE(parse_i64("42 "));
  EXPECT_FALSE(parse_i64("4.2"));
  EXPECT_FALSE(parse_i64("0x10"));  // base 10 only
}

TEST(Parse, U64HandlesFullRangeAndBases) {
  EXPECT_EQ(parse_u64("18446744073709551615").value(), UINT64_MAX);
  EXPECT_FALSE(parse_u64("-1"));
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_EQ(parse_u64("0x10", 0).value(), 16u);
}

TEST(Parse, F64RejectsNonFiniteAndTrailingJunk) {
  EXPECT_DOUBLE_EQ(parse_f64("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(parse_f64("1e3").value(), 1000.0);
  EXPECT_FALSE(parse_f64("nan"));
  EXPECT_FALSE(parse_f64("inf"));
  EXPECT_FALSE(parse_f64("1.5x"));
  EXPECT_FALSE(parse_f64(""));
}

TEST(Parse, CliIntEnforcesMinimum) {
  EXPECT_EQ(parse_cli_int("8", 1, "rank count").value(), 8);
  EXPECT_FALSE(parse_cli_int("0", 1, "rank count"));
  EXPECT_FALSE(parse_cli_int("banana", 1, "rank count"));
}

TEST(Parse, CliIntRejectsValuesAboveIntMaxInsteadOfNarrowing) {
  EXPECT_EQ(parse_cli_int("2147483647", 1, "rank count").value(), INT_MAX);
  // 2^32 + 4 would narrow to 4 through a cast to int.
  EXPECT_FALSE(parse_cli_int("2147483648", 1, "rank count"));
  EXPECT_FALSE(parse_cli_int("4294967300", 1, "rank count"));
  std::string error;
  EXPECT_FALSE(parse_min_int("4294967300", 1, "rank count", &error));
  EXPECT_EQ(error,
            "invalid rank count '4294967300' (need an integer in "
            "[1, 2147483647])");
  // A caller that stores the value in 64 bits widens the bound.
  EXPECT_EQ(parse_min_int("4294967300", 1, "insert count", &error, LLONG_MAX)
                .value(),
            4294967300LL);
}

// ---------------------------------------------------------------------------
// IndexedMinHeap — the scheduler's ready queue (DESIGN.md §10)
// ---------------------------------------------------------------------------

TEST(IndexedMinHeap, PopsInKeyOrder) {
  util::IndexedMinHeap<double> h;
  h.reset(8);
  const double keys[8] = {5.0, 1.0, 7.0, 3.0, 0.5, 6.0, 2.0, 4.0};
  for (int id = 0; id < 8; ++id) h.push(id, keys[id]);
  EXPECT_EQ(h.size(), 8);
  double prev = -1.0;
  for (int i = 0; i < 8; ++i) {
    const int id = h.top();
    EXPECT_EQ(h.top_key(), keys[id]);
    EXPECT_GE(keys[id], prev);
    prev = keys[id];
    h.pop();
  }
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.top(), -1);
}

TEST(IndexedMinHeap, DuplicateKeysBreakTiesTowardLowestId) {
  // The engine's documented contract: at equal wake time the LOWEST rank id
  // runs first — the heap's top must equal what an ascending-id linear scan
  // would pick, including when every key is identical.
  util::IndexedMinHeap<double> h;
  h.reset(16);
  for (int id = 15; id >= 0; --id) h.push(id, 2.5);  // adversarial order
  for (int id = 0; id < 16; ++id) {
    EXPECT_EQ(h.top(), id);
    h.pop();
  }
}

TEST(IndexedMinHeap, UpdateMovesKeysBothWays) {
  util::IndexedMinHeap<int> h;
  h.reset(4);
  for (int id = 0; id < 4; ++id) h.push(id, 10 + id);
  EXPECT_EQ(h.top(), 0);
  h.update(3, 1);  // decrease-key: jumps to the front
  EXPECT_EQ(h.top(), 3);
  EXPECT_EQ(h.key_of(3), 1);
  h.update(3, 99);  // increase-key: sinks to the back
  EXPECT_EQ(h.top(), 0);
  h.update(0, 10);  // no-op update keeps position
  EXPECT_EQ(h.top(), 0);
}

TEST(IndexedMinHeap, EraseArbitraryIdAndReuse) {
  util::IndexedMinHeap<int> h;
  h.reset(6);
  for (int id = 0; id < 6; ++id) h.push(id, id);
  EXPECT_TRUE(h.contains(2));
  h.erase(2);
  EXPECT_FALSE(h.contains(2));
  EXPECT_EQ(h.size(), 5);
  h.push(2, -1);  // ids are reusable after erase
  EXPECT_EQ(h.top(), 2);
  h.reset(6);
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.contains(0));
}

TEST(IndexedMinHeap, MatchesLinearScanOracle) {
  // Randomized equivalence against the structure it replaced: a linear scan
  // picking the (key, id)-lexicographic minimum.
  util::IndexedMinHeap<std::uint64_t> h;
  const int n = 64;
  h.reset(n);
  SplitMix64 rng(0xBADC0FFEEULL);
  std::vector<std::uint64_t> keys(n, 0);
  std::vector<bool> present(n, false);
  for (int step = 0; step < 2000; ++step) {
    const int id = static_cast<int>(rng.next() % n);
    const std::uint64_t key = rng.next() % 8;  // few values => many ties
    if (!present[static_cast<std::size_t>(id)]) {
      h.push(id, key);
      keys[static_cast<std::size_t>(id)] = key;
      present[static_cast<std::size_t>(id)] = true;
    } else if (rng.next() % 2 == 0) {
      h.update(id, key);
      keys[static_cast<std::size_t>(id)] = key;
    } else {
      h.erase(id);
      present[static_cast<std::size_t>(id)] = false;
    }
    int best = -1;
    for (int i = 0; i < n; ++i) {
      if (!present[static_cast<std::size_t>(i)]) continue;
      if (best == -1 ||
          keys[static_cast<std::size_t>(i)] < keys[static_cast<std::size_t>(best)]) {
        best = i;
      }
    }
    EXPECT_EQ(h.top(), best) << "step " << step;
  }
}

// ---------------------------------------------------------------------------
// SortedRunQueue — the ready queue's sorted-run front for same-time waves
// (DESIGN.md §10). It must reproduce IndexedMinHeap's exact order.
// ---------------------------------------------------------------------------

TEST(SortedRunQueue, AscendingWaveStaysOnTheRun) {
  // A wave: every id queued at one time in id order, then each granted id
  // re-queued one step later. Every push orders after the last one.
  util::SortedRunQueue<double> q;
  const int n = 32;
  q.reset(n);
  for (int id = 0; id < n; ++id) EXPECT_TRUE(q.push(id, 0.0));
  for (int step = 0; step < 3 * n; ++step) {
    const int id = q.top();
    EXPECT_EQ(id, step % n);
    EXPECT_EQ(q.top_key(), static_cast<double>(step / n));
    q.erase(id);
    EXPECT_TRUE(q.push(id, static_cast<double>(step / n + 1)));
    EXPECT_EQ(q.size(), n);
  }
}

TEST(SortedRunQueue, OutOfOrderPushesMergeWithTheRun) {
  util::SortedRunQueue<int> q;
  q.reset(8);
  EXPECT_TRUE(q.push(2, 5));
  EXPECT_TRUE(q.push(6, 5));   // same key, higher id: still in order
  EXPECT_FALSE(q.push(4, 5));  // same key, lower id than the last: heap
  EXPECT_FALSE(q.push(7, 1));  // earlier key: heap
  EXPECT_TRUE(q.push(0, 9));
  const int want[5] = {7, 2, 4, 6, 0};
  for (const int id : want) {
    EXPECT_EQ(q.top(), id);
    q.erase(id);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.top(), -1);
}

TEST(SortedRunQueue, ErasedRunEntriesNeverSurface) {
  // Erasing an id behind the front leaves a tombstone; a re-push of that id
  // must not resurrect the old slot.
  util::SortedRunQueue<int> q;
  q.reset(8);
  for (int id = 0; id < 8; ++id) q.push(id, 0);
  q.erase(3);
  q.erase(5);
  EXPECT_FALSE(q.contains(3));
  EXPECT_EQ(q.size(), 6);
  q.push(3, 0);  // orders before the run's last entry: heap
  q.push(5, 7);  // after it: appended behind its own tombstone
  const int want[8] = {0, 1, 2, 3, 4, 6, 7, 5};
  for (const int id : want) {
    ASSERT_EQ(q.top(), id);
    q.erase(id);
  }
  EXPECT_TRUE(q.empty());
}

TEST(SortedRunQueue, MatchesIndexedMinHeapOracle) {
  // Randomized push/erase streams against IndexedMinHeap, the structure the
  // engine used before: waves (grant the top, re-queue it later), random
  // pushes with few distinct keys (ties), erases of ids other than the top,
  // and a reset between runs. Long waves drive the run through many
  // compactions.
  const int n = 48;
  util::SortedRunQueue<std::uint64_t> q;
  util::IndexedMinHeap<std::uint64_t> oracle;
  SplitMix64 rng(0x5EED5EEDULL);
  std::uint64_t run_pushes = 0;
  std::uint64_t pushes = 0;
  for (int run = 0; run < 4; ++run) {
    q.reset(n);
    oracle.reset(n);
    std::uint64_t now = 0;
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.next() % 16;
      const int id = static_cast<int>(rng.next() % n);
      if (op < 9 && !oracle.empty()) {
        // Grant the minimum; usually re-queue it at or after the wave time.
        const int top = oracle.top();
        now = std::max(now, oracle.top_key());
        q.erase(top);
        oracle.erase(top);
        if (op < 7) {
          const std::uint64_t key = now + rng.next() % 3;
          run_pushes += q.push(top, key) ? 1 : 0;
          ++pushes;
          oracle.push(top, key);
        }
      } else if (op < 14 && !oracle.contains(id)) {
        const std::uint64_t key = now + rng.next() % 4;
        run_pushes += q.push(id, key) ? 1 : 0;
        ++pushes;
        oracle.push(id, key);
      } else if (oracle.contains(id)) {
        q.erase(id);  // usually not the top
        oracle.erase(id);
      }
      ASSERT_EQ(q.size(), oracle.size()) << "run " << run << " step " << step;
      ASSERT_EQ(q.top(), oracle.top()) << "run " << run << " step " << step;
      if (!oracle.empty()) {
        ASSERT_EQ(q.top_key(), oracle.top_key());
      }
      ASSERT_EQ(q.contains(id), oracle.contains(id));
    }
  }
  // Both paths ran, each on a sizable share of the pushes.
  EXPECT_GT(run_pushes, pushes / 10);
  EXPECT_LT(run_pushes, pushes);
}

// ---------------------------------------------------------------------------
// FunctionRef — the engine's non-owning callable (DESIGN.md §10)
// ---------------------------------------------------------------------------

static_assert(std::is_trivially_copyable_v<util::FunctionRef<void()>>);
static_assert(std::is_trivially_copyable_v<util::FunctionRef<int(int, int)>>);
static_assert(sizeof(util::FunctionRef<void()>) == 2 * sizeof(void*));
static_assert(sizeof(util::FunctionRef<double(const std::string&)>) ==
              2 * sizeof(void*));

int add3(int x) { return x + 3; }

TEST(FunctionRef, CallsCapturingLambdaByReference) {
  int calls = 0;
  std::string log;
  const std::string suffix = "!";
  // Captures well past any small-buffer size: still two pointers.
  auto fn = [&calls, &log, &suffix, a = 1, b = 2.0, c = 3LL](int x) {
    ++calls;
    log += std::to_string(x + a) + suffix;
    return static_cast<double>(x) * b + static_cast<double>(c);
  };
  const util::FunctionRef<double(int)> ref = fn;
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref(4), 11.0);
  EXPECT_EQ(ref(0), 3.0);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(log, "5!1!");
  // Copies refer to the same target, never to a copy of it.
  const util::FunctionRef<double(int)> copy = ref;
  copy(1);
  EXPECT_EQ(calls, 3);
}

TEST(FunctionRef, MutableLambdaStateIsTheCallersObject) {
  auto counter = [n = 0]() mutable { return ++n; };
  const util::FunctionRef<int()> ref = counter;
  EXPECT_EQ(ref(), 1);
  EXPECT_EQ(ref(), 2);
  EXPECT_EQ(counter(), 3);  // the ref advanced the caller's lambda itself
}

TEST(FunctionRef, CallsStdFunctionTarget) {
  int hits = 0;
  const std::function<void(int)> f = [&hits](int k) { hits += k; };
  const util::FunctionRef<void(int)> ref = f;
  ref(2);
  ref(5);
  EXPECT_EQ(hits, 7);
}

TEST(FunctionRef, CallsFunctionPointersAndReferences) {
  int (*fp)(int) = &add3;
  const util::FunctionRef<int(int)> from_ptr = fp;
  fp = nullptr;  // the ref holds the pointer's value, not its address
  EXPECT_EQ(from_ptr(1), 4);
  const util::FunctionRef<int(int)> from_ref = add3;
  EXPECT_EQ(from_ref(-3), 0);
  // A narrower-signature ref may discard the target's result.
  const util::FunctionRef<void(int)> discard = &add3;
  discard(7);
}

TEST(FunctionRef, EmptyRefsTestFalse) {
  const util::FunctionRef<void()> none;
  EXPECT_FALSE(none);
  const util::FunctionRef<void()> braced = {};
  EXPECT_FALSE(braced);
  int (*null_fp)(int) = nullptr;
  const util::FunctionRef<int(int)> from_null = null_fp;
  EXPECT_FALSE(from_null);
  auto lambda = [] {};
  EXPECT_TRUE(util::FunctionRef<void()>(lambda));
}

// ---------------------------------------------------------------------------
// PairMap — sparse (src, dst) channel state for large worlds
// ---------------------------------------------------------------------------

TEST(PairMap, DenseAndSparseModesAgree) {
  // The same access sequence through both representations must read/write
  // the same logical cells. Dense mode below kDenseRanks, hash mode above.
  util::PairMap<std::uint64_t> dense;
  util::PairMap<std::uint64_t> sparse;
  dense.reset(64);                                  // dense matrix
  sparse.reset(util::PairMap<std::uint64_t>::kDenseRanks + 1);  // hash table
  SplitMix64 rng(0x5EEDULL);
  for (int step = 0; step < 5000; ++step) {
    const int src = static_cast<int>(rng.next() % 64);
    const int dst = static_cast<int>(rng.next() % 64);
    const std::uint64_t inc = rng.next() % 100;
    dense.at(src, dst) += inc;
    sparse.at(src, dst) += inc;
  }
  for (int s = 0; s < 64; ++s) {
    for (int d = 0; d < 64; ++d) {
      EXPECT_EQ(dense.at(s, d), sparse.at(s, d)) << s << "," << d;
    }
  }
}

TEST(PairMap, SparseModeStoresOnlyTouchedPairs) {
  util::PairMap<double> m;
  m.reset(100000);  // dense would be 80 GB; sparse must stay tiny
  EXPECT_EQ(m.entries(), 0u);
  for (int r = 0; r < 1000; ++r) {
    m.at(r, (r + 1) % 100000) = 1.0 + r;
    m.at(r, (r + 99999) % 100000) = 2.0 + r;
  }
  EXPECT_EQ(m.entries(), 2000u);
  for (int r = 0; r < 1000; ++r) {
    EXPECT_EQ(m.at(r, (r + 1) % 100000), 1.0 + r);
    EXPECT_EQ(m.at(r, (r + 99999) % 100000), 2.0 + r);
  }
  EXPECT_EQ(m.entries(), 2000u);  // reads created nothing new
  EXPECT_EQ(m.at(99999, 0), 0.0);  // untouched cells default-construct
}

TEST(PairMap, HashModeReferencesSurviveGrowth) {
  // WaitGate counters hold &at(src, dst) while thousands of later inserts
  // grow and rehash the key table (DESIGN.md §12): values live in fixed
  // chunks, so references must stay valid until reset().
  util::PairMap<std::uint64_t> m;
  m.reset(100000);  // hash mode
  std::vector<std::uint64_t*> addrs;
  for (int i = 0; i < 64; ++i) {
    std::uint64_t& cell = m.at(i, 99999 - i);
    cell = 1000u + static_cast<std::uint64_t>(i);
    addrs.push_back(&cell);
  }
  // Enough fresh keys to force several grow() rehashes.
  for (int i = 0; i < 20000; ++i) {
    m.at(500 + i % 9000, (i * 13) % 100000) += 1;
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(&m.at(i, 99999 - i), addrs[static_cast<std::size_t>(i)]) << i;
    // Churn keys are disjoint from the probed keys, so values are untouched.
    EXPECT_EQ(*addrs[static_cast<std::size_t>(i)],
              1000u + static_cast<std::uint64_t>(i))
        << i;
  }
}

// --- FlagSet -----------------------------------------------------------------

/// Every value kind, registered on one table.
struct ToyFlags {
  bool verbose = false;
  long long count = 0;
  std::string out;
  std::string mode;
  double rate = 0;
  util::FlagSet fs;

  ToyFlags() {
    fs.add(util::switch_flag("--verbose", "talk more",
                             [this] { verbose = true; }));
    fs.add(util::int_flag("--count", "how many", 1,
                          [this](int n) { count = n; }));
    fs.add(util::path_flag("--out", "where",
                           [this](const std::string& p) { out = p; }));
    fs.add(util::choice_flag("--mode", "M", "which", {"a", "b"},
                             [this](const std::string& m) { mode = m; }));
    fs.add(util::real_flag("--rate", "R", "how fast", 0,
                           [this](double r) { rate = r; }));
  }

  std::vector<std::string> parse(std::vector<std::string> args) {
    std::vector<char*> argv{const_cast<char*>("prog")};
    for (std::string& a : args) argv.push_back(a.data());
    return fs.parse(static_cast<int>(argv.size()), argv.data());
  }
};

TEST(FlagSet, SpaceAndEqualsSpellingsParseAlike) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--count", "7"}, {"--out", "a.csv"}, {"--mode", "b"}, {"--rate", "2.5"}};
  for (const auto& [flag, value] : cases) {
    ToyFlags spaced, joined;
    EXPECT_TRUE(spaced.parse({flag, value}).empty());
    EXPECT_TRUE(joined.parse({flag + "=" + value}).empty());
    EXPECT_EQ(spaced.count, joined.count) << flag;
    EXPECT_EQ(spaced.out, joined.out) << flag;
    EXPECT_EQ(spaced.mode, joined.mode) << flag;
    EXPECT_EQ(spaced.rate, joined.rate) << flag;
  }
  ToyFlags t;
  t.parse({"--count=7", "--out", "a.csv", "--mode=b", "--rate", "2.5",
           "--verbose"});
  EXPECT_EQ(t.count, 7);
  EXPECT_EQ(t.out, "a.csv");
  EXPECT_EQ(t.mode, "b");
  EXPECT_EQ(t.rate, 2.5);
  EXPECT_TRUE(t.verbose);
}

TEST(FlagSet, UsageErrorsExitWithRc2AndNameTheFlag) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--count"}, "prog: --count requires a value"},
      {{"--out"}, "prog: --out requires a path"},
      {{"--out="}, "prog: --out requires a non-empty path"},
      {{"--out", ""}, "prog: --out requires a non-empty path"},
      {{"--count", "0"}, "prog: invalid --count value '0'"},
      {{"--count=x"}, "prog: invalid --count value 'x'"},
      {{"--mode", "c"},
       "prog: invalid --mode value 'c' \\(expected 'a' or 'b'\\)"},
      {{"--rate=-1"}, "prog: invalid --rate value '-1'"},
      {{"--verbose=1"}, "prog: --verbose takes no value"},
      {{"--frobnicate"}, "prog: unrecognized argument '--frobnicate'"},
      {{"x", "--frob=1"}, "prog: unrecognized argument '--frob=1'"},
  };
  for (const auto& [args, diagnostic] : cases) {
    EXPECT_EXIT(ToyFlags().parse(args), ::testing::ExitedWithCode(2),
                diagnostic + ".*usage: prog \\[flags\\]")
        << args.front();
  }
}

TEST(FlagSet, IntFlagRejectsValuesAboveIntMaxInsteadOfNarrowing) {
  ToyFlags t;
  t.parse({"--count", "2147483647"});
  EXPECT_EQ(t.count, std::numeric_limits<int>::max());
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // 2^32 + 1 would narrow to 1 through a cast to int.
  for (const std::string v : {"2147483648", "4294967297"}) {
    EXPECT_EXIT(ToyFlags().parse({"--count", v}),
                ::testing::ExitedWithCode(2),
                "prog: invalid --count value '" + v +
                    "' \\(need an integer in \\[1, 2147483647\\]\\)")
        << v;
  }
}

TEST(FlagSet, HelpPrintsUsageToStdoutAndExits0) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* help : {"--help", "-h"}) {
    // Point stdout at the captured stderr and silence stderr itself, so only
    // what reaches stdout can match.
    EXPECT_EXIT(
        {
          ::dup2(2, 1);
          if (std::freopen("/dev/null", "w", stderr) == nullptr) std::abort();
          ToyFlags().parse({"--count", "3", help, "--frobnicate"});
        },
        ::testing::ExitedWithCode(0), "usage: prog \\[flags\\]\n");
  }
}

TEST(FlagSet, PositionalsKeepTheirOrderAroundFlags) {
  ToyFlags t;
  const std::vector<std::string> pos = t.parse(
      {"a", "--count", "3", "b", "--verbose", "c", "--out", "-x", "-", "d"});
  EXPECT_EQ(pos, (std::vector<std::string>{"a", "b", "c", "-", "d"}));
  EXPECT_EQ(t.count, 3);
  EXPECT_EQ(t.out, "-x");  // a value is taken whole, even with a leading '-'
  EXPECT_TRUE(t.verbose);
}

/// How many usage lines start with `name` as their first word.
int usage_lines_for(const util::FlagSet& fs, const std::string& name) {
  std::FILE* f = std::tmpfile();
  fs.usage(f);
  std::rewind(f);
  std::string text;
  for (int ch = std::fgetc(f); ch != EOF; ch = std::fgetc(f)) {
    text.push_back(static_cast<char>(ch));
  }
  std::fclose(f);
  int n = 0;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    std::istringstream words(line);
    std::string first;
    words >> first;
    n += first == name ? 1 : 0;
  }
  return n;
}

TEST(FlagSet, UsageListsEveryRegisteredFlagOnce) {
  ToyFlags t;
  for (const char* name :
       {"--verbose", "--count", "--out", "--mode", "--rate"}) {
    EXPECT_EQ(usage_lines_for(t.fs, name), 1) << name;
  }
  // The shared flags all fit in one table (add() rejects a duplicate name).
  util::FlagSet shared;
  int jobs = 0;
  std::uint64_t seed = 0;
  shared.add(cli::jobs_flag(&jobs));
  shared.add(cli::scheduler_flag());
  shared.add(cli::fault_seed_flag(&seed));
  shared.add(cli::stack_bytes_flag());
  cli::add_observer_flags(shared, /*link_summary=*/false);
  for (const char* name :
       {"--jobs", "--scheduler", "--fault-seed", "--stack-bytes", "--metrics",
        "--check", "--check-history", "--check-report", "--trace",
        "--trace-format", "--trace-ranks", "--profile"}) {
    EXPECT_EQ(usage_lines_for(shared, name), 1) << name;
  }
}

// Resident pages of the page-aligned span covering [p, p + n), per mincore.
std::uint64_t resident_pages(const std::byte* p, std::size_t n) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto lo = reinterpret_cast<std::uintptr_t>(p) / page * page;
  const auto hi = reinterpret_cast<std::uintptr_t>(p) + n;
  std::vector<unsigned char> vec((hi - lo + page - 1) / page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(lo), hi - lo, vec.data()), 0);
  std::uint64_t resident = 0;
  for (unsigned char v : vec) resident += v & 1u;
  return resident;
}

TEST(ZeroBytes, LargeSizesCommitOnlyTouchedPagesAfterArenaChurn) {
  // Leave a free hole larger than the buffer in the malloc arena, kept off
  // the heap top by a live block: a calloc carved from it is zero-filled,
  // page by page, where a mapping of its own commits nothing.
  constexpr std::size_t kMid = 64 << 10;
  std::vector<void*> mids;
  for (int i = 0; i < 1200; ++i) mids.push_back(std::malloc(kMid));
  void* fence = std::malloc(64);
  for (void* m : mids) std::free(m);

  constexpr std::size_t kBytes = std::size_t{64} << 20;
  constexpr std::size_t kStride = std::size_t{8} << 20;
  util::ZeroBytes buf(kBytes);
  for (std::size_t off = 0; off < kBytes; off += kStride) {
    EXPECT_EQ(buf.data()[off], std::byte{0});
    buf.data()[off] = std::byte{1};
  }
  const std::uint64_t touches = kBytes / kStride;
  const auto page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  // A transparent huge page may commit 2 MiB per touch.
  const std::uint64_t most = touches * ((2u << 20) / page) + 16;
  const std::uint64_t resident = resident_pages(buf.data(), kBytes);
  EXPECT_GE(resident, touches);
  EXPECT_LE(resident, most);
  std::free(fence);
}

TEST(PodVector, GrowsKeepsOrderAndKeepsCapacityOnClear) {
  // 10^4 words: many reallocs, small blocks and large ones.
  util::PodVector<std::uint64_t> v;
  for (std::uint64_t i = 0; i < 10000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 10000u);
  v.erase_front(9990);
  ASSERT_EQ(v.size(), 10u);
  EXPECT_EQ(v.front(), 9990u);
  EXPECT_EQ(*(v.end() - 1), 9999u);
  const std::uint64_t more[3] = {1, 2, 3};
  v.append(more, 3);
  EXPECT_EQ(v.size(), 13u);
  EXPECT_EQ(*(v.end() - 1), 3u);
  const std::size_t cap = v.capacity();
  EXPECT_GE(cap, 10000u);
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);
  v.assign(more, 2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.front(), 1u);
  util::PodVector<std::uint64_t> moved(std::move(v));
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(v.size(), 0u);  // NOLINT(bugprone-use-after-move): left empty
}

}  // namespace
}  // namespace mrl
