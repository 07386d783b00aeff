// Ablation microbenchmarks for the physical layout (google-benchmark):
// the paper's compact two-level CSR replica versus a flat sorted
// (key, value) pair array — the design §3 argues for. Measures (a) point
// lookup of one key's full run and (b) a full sequential sweep.
//
// The binary also hard-asserts (before any benchmark runs) that a
// dictionary lookup HIT performs zero heap allocations: the term table is
// probed with a string_view into a thread-local scratch buffer, so no
// per-lookup key string is built. The counting operator new below makes
// any regression fail the bench run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dict/dictionary.h"
#include "storage/property_table.h"

// TU-level replacement of the global allocator: every heap allocation in
// the binary bumps one relaxed counter. Used only to difference across a
// measurement window.
namespace {
std::atomic<uint64_t> g_allocation_count{0};
}  // namespace

// None of the replacements is inlined: GCC would otherwise pair an
// inlined malloc or free with the opaque call on the other side and
// report -Wmismatched-new-delete, although both sides sit on malloc/free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace parj::storage {
namespace {

constexpr size_t kKeys = 1 << 18;
constexpr size_t kRunLength = 4;

struct FlatTable {
  std::vector<std::pair<TermId, TermId>> pairs;  // sorted by key
};

std::vector<std::pair<TermId, TermId>> MakePairs() {
  std::vector<std::pair<TermId, TermId>> pairs;
  Rng rng(7);
  TermId key = 1;
  for (size_t i = 0; i < kKeys; ++i) {
    key += 1 + static_cast<TermId>(rng.Uniform(9));
    const size_t run = 1 + rng.Uniform(2 * kRunLength - 1);
    for (size_t j = 0; j < run; ++j) {
      pairs.emplace_back(key, static_cast<TermId>(1 + rng.Uniform(1 << 20)));
    }
  }
  return pairs;
}

const TableReplica& Csr() {
  static const TableReplica* replica =
      new TableReplica(TableReplica::Build(MakePairs()));
  return *replica;
}

const FlatTable& Flat() {
  static const FlatTable* table = [] {
    auto* t = new FlatTable();
    t->pairs = MakePairs();
    std::sort(t->pairs.begin(), t->pairs.end());
    t->pairs.erase(std::unique(t->pairs.begin(), t->pairs.end()),
                   t->pairs.end());
    return t;
  }();
  return *table;
}

void BM_CsrPointLookup(benchmark::State& state) {
  const TableReplica& replica = Csr();
  Rng rng(11);
  uint64_t sum = 0;
  for (auto _ : state) {
    const TermId key = replica.KeyAt(rng.Uniform(replica.key_count()));
    const size_t pos = replica.FindKey(key);
    for (TermId v : replica.Run(pos)) sum += v;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CsrPointLookup);

void BM_FlatPointLookup(benchmark::State& state) {
  const FlatTable& table = Flat();
  const TableReplica& replica = Csr();  // to pick existing keys
  Rng rng(11);
  uint64_t sum = 0;
  for (auto _ : state) {
    const TermId key = replica.KeyAt(rng.Uniform(replica.key_count()));
    auto it = std::lower_bound(
        table.pairs.begin(), table.pairs.end(), std::pair<TermId, TermId>{key, 0});
    while (it != table.pairs.end() && it->first == key) {
      sum += it->second;
      ++it;
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatPointLookup);

void BM_CsrFullSweep(benchmark::State& state) {
  const TableReplica& replica = Csr();
  uint64_t sum = 0;
  for (auto _ : state) {
    for (size_t k = 0; k < replica.key_count(); ++k) {
      sum += replica.KeyAt(k);
      for (TermId v : replica.Run(k)) sum += v;
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * Csr().pair_count());
}
BENCHMARK(BM_CsrFullSweep);

void BM_FlatFullSweep(benchmark::State& state) {
  const FlatTable& table = Flat();
  uint64_t sum = 0;
  for (auto _ : state) {
    for (const auto& [k, v] : table.pairs) sum += k + v;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * Flat().pairs.size());
}
BENCHMARK(BM_FlatFullSweep);

void BM_CsrKeyOnlyScan(benchmark::State& state) {
  // The adaptive join's sequential search touches only the compact key
  // array — the locality argument of §3: 4 bytes per distinct key instead
  // of 8 bytes per pair.
  const TableReplica& replica = Csr();
  uint64_t sum = 0;
  for (auto _ : state) {
    for (TermId k : replica.keys()) sum += k;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * Csr().key_count());
}
BENCHMARK(BM_CsrKeyOnlyScan);

void BM_FlatKeyScan(benchmark::State& state) {
  // Scanning keys in the flat layout drags the values through the cache
  // and revisits duplicate keys.
  const FlatTable& table = Flat();
  uint64_t sum = 0;
  for (auto _ : state) {
    TermId last = 0;
    for (const auto& [k, v] : table.pairs) {
      if (k != last) sum += k;
      last = k;
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * Flat().pairs.size());
}
BENCHMARK(BM_FlatKeyScan);

// ---- Dictionary lookup: timing + zero-allocation assertion ---------------

std::vector<rdf::Term> DictTerms() {
  std::vector<rdf::Term> terms;
  for (int i = 0; i < 1024; ++i) {
    const std::string n = std::to_string(i);
    terms.push_back(rdf::Term::Iri("http://example.org/resource/" + n));
    terms.push_back(rdf::Term::Literal("literal value " + n));
    terms.push_back(rdf::Term::TypedLiteral(
        n, "http://www.w3.org/2001/XMLSchema#integer"));
    terms.push_back(rdf::Term::LangLiteral("label " + n, "en"));
  }
  return terms;
}

const dict::Dictionary& Dict() {
  static const dict::Dictionary* dict = [] {
    auto* d = new dict::Dictionary();
    for (const rdf::Term& t : DictTerms()) d->EncodeResource(t);
    return d;
  }();
  return *dict;
}

void BM_DictLookupHit(benchmark::State& state) {
  const dict::Dictionary& dict = Dict();
  const std::vector<rdf::Term> terms = DictTerms();
  Rng rng(13);
  uint64_t sum = 0;
  for (auto _ : state) {
    sum += dict.LookupResource(terms[rng.Uniform(terms.size())]);
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DictLookupHit);

/// Decoding an ID to its N-Triples text: a view of the stored key, which
/// is what row decoding copies.
void BM_DictDecodeKey(benchmark::State& state) {
  const dict::Dictionary& dict = Dict();
  Rng rng(17);
  size_t bytes = 0;
  for (auto _ : state) {
    const TermId id =
        static_cast<TermId>(1 + rng.Uniform(dict.resource_count()));
    bytes += dict.ResourceKey(id).size();
  }
  benchmark::DoNotOptimize(bytes);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DictDecodeKey);

/// Aborts the binary if a dictionary lookup hit allocates. One full warm
/// pass first grows the thread-local key scratch buffer to the longest
/// key, so the counted window measures only steady-state lookups.
void AssertLookupHitsDoNotAllocate() {
  const dict::Dictionary& dict = Dict();
  const std::vector<rdf::Term> terms = DictTerms();
  uint64_t hits = 0;
  for (const rdf::Term& t : terms) {
    hits += dict.LookupResource(t) != kInvalidTermId;
  }
  const uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int round = 0; round < 4; ++round) {
    for (const rdf::Term& t : terms) {
      hits += dict.LookupResource(t) != kInvalidTermId;
    }
  }
  const uint64_t allocations =
      g_allocation_count.load(std::memory_order_relaxed) - before;
  if (allocations != 0 || hits != terms.size() * 5) {
    std::fprintf(stderr,
                 "FAIL: %llu allocation(s) across %llu dictionary lookup "
                 "hits (expected 0; hits expected %zu)\n",
                 static_cast<unsigned long long>(allocations),
                 static_cast<unsigned long long>(hits), terms.size() * 5);
    std::abort();
  }
  std::printf("dictionary lookup-hit allocation check: %llu hits, "
              "0 allocations\n",
              static_cast<unsigned long long>(hits));
}

/// Prints the CSR replica's bytes/triple, so every bench run records the
/// layout's footprint next to the latency numbers.
void ReportBytesPerTriple() {
  const TableReplica& csr = Csr();
  std::printf("replica bytes/triple: %.2f (%zu pairs)\n",
              static_cast<double>(csr.MemoryUsage()) /
                  static_cast<double>(csr.pair_count()),
              csr.pair_count());
}

}  // namespace
}  // namespace parj::storage

int main(int argc, char** argv) {
  parj::storage::AssertLookupHitsDoNotAllocate();
  parj::storage::ReportBytesPerTriple();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
