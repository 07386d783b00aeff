// Differential fuzzing for live mutability (DESIGN.md §12): after any
// random mutation stream, queries over (base ∪ delta) must be
// row-identical — at the TermId level — to the same queries over a store
// rebuilt from scratch from the merged triple set. ID-level comparison
// works because the rebuilt store's dictionary is seeded with the live
// base dictionary plus the overlay terms in allocation order, exactly
// the fold compaction performs. Also covers epoch pinning under
// concurrent compaction and a writer/reader/compactor race (the latter
// is what the TSan CI job watches).

#include <array>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/parj_engine.h"
#include "join/executor.h"
#include "mutable/compactor.h"
#include "mutable/delta_store.h"
#include "query/optimizer.h"
#include "server/thread_pool.h"
#include "test_util.h"

namespace parj::mut {
namespace {

using test::ToSortedRows;

using NameTriple = std::array<std::string, 3>;

rdf::Triple ToTriple(const NameTriple& t) {
  return rdf::Triple{rdf::Term::Iri(t[0]), rdf::Term::Iri(t[1]),
                     rdf::Term::Iri(t[2])};
}

/// The query mix the differential check runs: per-predicate scans plus
/// join shapes that cross predicates (and so cross clean/dirty steps).
const std::vector<std::string>& CheckQueries() {
  static const std::vector<std::string> queries = {
      "SELECT ?s ?o WHERE { ?s <p0> ?o }",
      "SELECT ?s ?o WHERE { ?s <p1> ?o }",
      "SELECT ?s ?o WHERE { ?s <p2> ?o }",
      "SELECT ?s ?o WHERE { ?s <p3> ?o }",
      "SELECT ?o WHERE { <r0> <p0> ?o }",
      "SELECT ?a ?b ?c WHERE { ?a <p0> ?b . ?b <p1> ?c }",
      "SELECT ?s ?x ?y WHERE { ?s <p0> ?x . ?s <p2> ?y }",
      "SELECT ?a ?b ?c ?d WHERE { ?a <p0> ?b . ?b <p1> ?c . ?c <p3> ?d }",
  };
  return queries;
}

/// Rebuilds an engine from the merged triple set with a dictionary that
/// assigns every term the SAME ID the live engine uses: clone the live
/// base dictionary, then append the overlay terms in allocation order.
engine::ParjEngine RebuildReference(const engine::ParjEngine& live,
                                    const std::set<NameTriple>& logical) {
  const MvccSnapshot snap = live.snapshot();
  dict::Dictionary dict = snap.base().dictionary().Clone();
  const dict::TermTable& resources = snap.delta().overlay().resource_keys();
  for (uint32_t i = 1; i <= resources.size(); ++i) {
    dict.EncodeResource(resources.Decode(i));
  }
  const dict::TermTable& predicates = snap.delta().overlay().predicate_keys();
  for (uint32_t i = 1; i <= predicates.size(); ++i) {
    dict.EncodePredicate(predicates.Decode(i));
  }
  std::vector<EncodedTriple> triples;
  triples.reserve(logical.size());
  for (const NameTriple& t : logical) {
    EncodedTriple enc;
    enc.subject = dict.EncodeResource(rdf::Term::Iri(t[0]));
    enc.predicate = dict.EncodePredicate(rdf::Term::Iri(t[1]));
    enc.object = dict.EncodeResource(rdf::Term::Iri(t[2]));
    triples.push_back(enc);
  }
  auto rebuilt =
      engine::ParjEngine::FromEncoded(std::move(dict), std::move(triples));
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  return std::move(rebuilt).value();
}

/// Asserts every check query returns the same TermId rows on the live
/// (base ∪ delta) engine and the rebuilt reference.
void ExpectRowIdentical(const engine::ParjEngine& live,
                        const std::set<NameTriple>& logical,
                        const std::string& context) {
  const engine::ParjEngine reference = RebuildReference(live, logical);
  for (const std::string& sparql : CheckQueries()) {
    for (const int threads : {1, 4}) {
      engine::QueryOptions options;
      options.num_threads = threads;
      auto a = live.Execute(sparql, options);
      auto b = reference.Execute(sparql, options);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(a->row_count, b->row_count)
          << context << " threads=" << threads << " query: " << sparql;
      EXPECT_EQ(ToSortedRows(a->rows, a->column_count),
                ToSortedRows(b->rows, b->column_count))
          << context << " threads=" << threads << " query: " << sparql;
    }
  }
}

NameTriple RandomTriple(Rng* rng, int fresh_counter) {
  if (fresh_counter >= 0) {
    // A never-before-seen object: exercises overlay allocation.
    return {"r" + std::to_string(rng->Uniform(12)),
            "p" + std::to_string(rng->Uniform(4)),
            "n" + std::to_string(fresh_counter)};
  }
  return {"r" + std::to_string(rng->Uniform(12)),
          "p" + std::to_string(rng->Uniform(4)),
          "r" + std::to_string(rng->Uniform(12))};
}

TEST(MutableFuzzTest, RandomMutationStreamMatchesRebuiltStore) {
  Rng rng(0xBADC0FFEE0DDF00DULL);
  std::set<NameTriple> logical;
  std::vector<rdf::Triple> seed;
  for (int i = 0; i < 80; ++i) {
    const NameTriple t = RandomTriple(&rng, -1);
    if (logical.insert(t).second) seed.push_back(ToTriple(t));
  }
  auto built = engine::ParjEngine::FromTriples(seed);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  engine::ParjEngine engine = std::move(built).value();

  int fresh = 0;
  for (int round = 0; round < 24; ++round) {
    std::vector<Mutation> batch;
    for (int m = 0; m < 8; ++m) {
      const uint64_t dice = rng.Uniform(100);
      if (dice < 55) {
        const NameTriple t = RandomTriple(&rng, -1);
        batch.push_back({ToTriple(t), false});
        logical.insert(t);
      } else if (dice < 70) {
        const NameTriple t = RandomTriple(&rng, fresh++);
        batch.push_back({ToTriple(t), false});
        logical.insert(t);
      } else if (!logical.empty()) {
        // Remove a random present triple (hits base or pending insert)
        // or, occasionally, a random absent one (must be a no-op).
        NameTriple t;
        if (rng.Uniform(4) == 0) {
          t = RandomTriple(&rng, -1);
        } else {
          auto it = logical.begin();
          std::advance(it, rng.Uniform(logical.size()));
          t = *it;
        }
        batch.push_back({ToTriple(t), true});
        logical.erase(t);
      }
    }
    ASSERT_TRUE(engine.ApplyBatch(batch).ok());

    if (round % 4 == 3) {
      ExpectRowIdentical(engine, logical,
                         "round " + std::to_string(round));
    }
    if (round == 9 || round == 17) {
      ASSERT_TRUE(engine.Compact().ok());
      ExpectRowIdentical(engine, logical,
                         "post-compaction round " + std::to_string(round));
      EXPECT_EQ(engine.mutation_stats().delta_insert_triples, 0u);
      EXPECT_EQ(engine.mutation_stats().delta_delete_triples, 0u);
    }
  }
  // Final state: fold everything and check once more.
  ASSERT_TRUE(engine.Compact().ok());
  ExpectRowIdentical(engine, logical, "final");
  EXPECT_EQ(engine.database().total_triples(), logical.size());
}

/// A long-lived reader pinned to one epoch must see a bit-stable view
/// while writes and compactions churn the store underneath it.
TEST(MutableFuzzTest, PinnedEpochStableAcrossConcurrentCompaction) {
  Rng rng(0x5EEDDA7A0001ULL);
  std::vector<rdf::Triple> seed;
  for (int i = 0; i < 60; ++i) {
    seed.push_back(ToTriple(RandomTriple(&rng, -1)));
  }
  auto built = engine::ParjEngine::FromTriples(seed);
  ASSERT_TRUE(built.ok());
  engine::ParjEngine engine = std::move(built).value();
  ASSERT_TRUE(engine.Insert(ToTriple(RandomTriple(&rng, 1000))).ok());

  const std::string sparql = "SELECT ?a ?b ?c WHERE { ?a <p0> ?b . ?b <p1> ?c }";
  const MvccSnapshot pinned = engine.snapshot();
  const uint64_t pinned_epoch = pinned.epoch();
  const uint64_t pinned_sequence = pinned.delta().sequence();

  auto run_pinned = [&]() -> std::vector<std::vector<TermId>> {
    auto encoded = test::Encode(sparql, pinned.base());
    auto plan = query::Optimize(encoded, pinned.base(), {}, &pinned.delta());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    join::Executor exec(&pinned.base(), &pinned.delta());
    join::ExecOptions options;
    options.num_threads = 2;
    auto result = exec.Execute(*plan, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return ToSortedRows(result->rows, result->column_count);
  };
  const auto expected = run_pinned();

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    Rng wrng(0xC0DEC0DE2ULL);
    int fresh = 2000;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<Mutation> batch;
      for (int m = 0; m < 4; ++m) {
        batch.push_back({ToTriple(RandomTriple(&wrng, fresh++)), false});
      }
      EXPECT_TRUE(engine.ApplyBatch(batch).ok());
      EXPECT_TRUE(engine.Compact().ok());
    }
  });

  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(run_pinned(), expected) << "iteration " << i;
  }
  // The reads can outrun the writer; make sure at least one compaction
  // actually swapped the base before releasing the churn thread.
  while (engine.mutation_stats().epoch == 0u) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  churn.join();

  // The pin held its epoch through every swap; the live store moved on.
  EXPECT_EQ(pinned.epoch(), pinned_epoch);
  EXPECT_EQ(pinned.delta().sequence(), pinned_sequence);
  EXPECT_GT(engine.mutation_stats().epoch, 0u);
}

/// Writer + concurrent readers + background compactor on a shared pool:
/// the shape the TSan job runs to shake out data races in the
/// publish/pin/swap protocol. Assertions are deliberately weak (row
/// counts only) — the value is the interleaving, not the oracle.
TEST(MutableFuzzTest, ConcurrentReadersWritersAndCompactorAreRaceFree) {
  Rng rng(0xFEEDFACE77ULL);
  std::vector<rdf::Triple> seed;
  for (int i = 0; i < 100; ++i) {
    seed.push_back(ToTriple(RandomTriple(&rng, -1)));
  }
  auto built = engine::ParjEngine::FromTriples(seed);
  ASSERT_TRUE(built.ok());
  engine::ParjEngine engine = std::move(built).value();

  server::ThreadPool pool(3);
  CompactorOptions copts;
  copts.auto_compact_delta_triples = 16;
  Compactor compactor(engine.delta_store(), &pool, copts);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng wrng(0xAB5EED03ULL);
    int fresh = 5000;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<Mutation> batch;
      for (int m = 0; m < 6; ++m) {
        const bool remove = wrng.Uniform(4) == 0;
        const NameTriple t = remove ? RandomTriple(&wrng, -1)
                                    : RandomTriple(&wrng, fresh++);
        batch.push_back({ToTriple(t), remove});
      }
      EXPECT_TRUE(engine.ApplyBatch(batch).ok());
      compactor.MaybeTrigger();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&engine] {
      engine::QueryOptions options;
      options.num_threads = 2;
      for (int i = 0; i < 40; ++i) {
        auto result = engine.Execute(
            "SELECT ?a ?b ?c WHERE { ?a <p0> ?b . ?b <p2> ?c }", options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  compactor.Wait();

  // Sanity: the store is still coherent after the churn — one final
  // compaction folds everything and queries still answer.
  ASSERT_TRUE(engine.Compact().ok());
  auto result = engine.Execute("SELECT ?s ?o WHERE { ?s <p0> ?o }");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->row_count, 0u);
}

}  // namespace
}  // namespace parj::mut
