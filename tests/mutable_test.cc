// Live-mutability subsystem tests (DESIGN.md §12): DeltaStore write
// semantics and invariants, MVCC snapshot pinning, compaction (epoch
// bump, ID stability, crash safety under injected faults), the
// background Compactor, and the serving-layer wiring (mutation gauges,
// ingest-pressure degradation).

#include <atomic>
#include <set>
#include <tuple>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "engine/parj_engine.h"
#include "join/executor.h"
#include "mutable/compactor.h"
#include "mutable/delta_store.h"
#include "mutable/delta_view.h"
#include "query/optimizer.h"
#include "server/server.h"
#include "server/thread_pool.h"
#include "test_util.h"

namespace parj::mut {
namespace {

using test::Spec;
using test::ToSortedRows;

rdf::Triple T(const std::string& s, const std::string& p,
              const std::string& o) {
  return rdf::Triple{rdf::Term::Iri(s), rdf::Term::Iri(p), rdf::Term::Iri(o)};
}

Spec BaseSpec() {
  return {{"a", "knows", "b"}, {"a", "knows", "c"}, {"b", "knows", "c"},
          {"b", "likes", "d"}, {"c", "likes", "d"}};
}

engine::ParjEngine MakeMutableEngine(const Spec& spec = BaseSpec()) {
  return test::MakeEngine(spec);
}

/// Executes and decodes every row, sorted — the order-insensitive
/// string-level result a store rebuilt from the merged triples would
/// also produce.
std::vector<std::vector<std::string>> DecodedRows(
    const engine::ParjEngine& engine, const std::string& sparql,
    const engine::QueryOptions& options = {}) {
  auto result = engine.Execute(sparql, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<std::vector<std::string>> rows;
  for (size_t r = 0; r < result->row_count; ++r) {
    rows.push_back(engine.DecodeRow(*result, r));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

constexpr const char* kKnowsQuery =
    "SELECT ?x ?y WHERE { ?x <knows> ?y }";
constexpr const char* kChain =
    "SELECT ?x ?y ?z WHERE { ?x <knows> ?y . ?y <likes> ?z }";

// ---- TermOverlay -----------------------------------------------------

TEST(TermOverlayTest, AllocatesPastBaseAndDecodes) {
  TermOverlay overlay(/*base_resources=*/10, /*base_predicates=*/3);
  const TermId r1 = overlay.AddResource(rdf::Term::Iri("new1"));
  const TermId r2 = overlay.AddResource(rdf::Term::Iri("new2"));
  EXPECT_EQ(r1, 11u);
  EXPECT_EQ(r2, 12u);
  // Re-adding returns the existing ID (append-only, no reassignment).
  EXPECT_EQ(overlay.AddResource(rdf::Term::Iri("new1")), r1);
  EXPECT_EQ(overlay.resource_count(), 12u);

  EXPECT_EQ(overlay.LookupResource(rdf::Term::Iri("new2")), r2);
  EXPECT_EQ(overlay.LookupResource(rdf::Term::Iri("absent")), kInvalidTermId);

  EXPECT_EQ(overlay.ResourceKey(r1), "<new1>");
  EXPECT_EQ(overlay.ResourceKey(r2), "<new2>");
  // Base-range and out-of-range IDs are not the overlay's to decode.
  EXPECT_TRUE(overlay.ResourceKey(10).empty());
  EXPECT_TRUE(overlay.ResourceKey(13).empty());

  const PredicateId p1 = overlay.AddPredicate(rdf::Term::Iri("newp"));
  EXPECT_EQ(p1, 4u);
  EXPECT_EQ(overlay.LookupPredicate(rdf::Term::Iri("newp")), p1);
  EXPECT_EQ(overlay.PredicateKey(p1), "<newp>");
  EXPECT_TRUE(overlay.PredicateKey(3).empty());
}

// ---- Write semantics -------------------------------------------------

TEST(DeltaStoreTest, InsertBecomesVisibleAndDecodes) {
  auto engine = MakeMutableEngine();
  const auto before = DecodedRows(engine, kKnowsQuery);
  ASSERT_EQ(before.size(), 3u);

  ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
  const auto after = DecodedRows(engine, kKnowsQuery);
  ASSERT_EQ(after.size(), 4u);
  // The overlay-allocated term decodes through the normal row decode.
  EXPECT_NE(std::find(after.begin(), after.end(),
                      std::vector<std::string>{"<c>", "<e>"}),
            after.end());
  EXPECT_EQ(engine.mutation_stats().delta_insert_triples, 1u);
}

TEST(DeltaStoreTest, InsertPresentTripleIsNoOp) {
  auto engine = MakeMutableEngine();
  ASSERT_TRUE(engine.Insert(T("a", "knows", "b")).ok());
  const MutationStats s = engine.mutation_stats();
  EXPECT_EQ(s.delta_insert_triples, 0u);
  EXPECT_EQ(s.delta_delete_triples, 0u);
  EXPECT_EQ(DecodedRows(engine, kKnowsQuery).size(), 3u);
}

TEST(DeltaStoreTest, RemoveHidesBaseTriple) {
  auto engine = MakeMutableEngine();
  ASSERT_TRUE(engine.Remove(T("a", "knows", "b")).ok());
  const auto rows = DecodedRows(engine, kKnowsQuery);
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(std::find(rows.begin(), rows.end(),
                      std::vector<std::string>{"<a>", "<b>"}),
            rows.end());
  EXPECT_EQ(engine.mutation_stats().delta_delete_triples, 1u);
}

TEST(DeltaStoreTest, RemoveAbsentTripleIsNoOp) {
  auto engine = MakeMutableEngine();
  ASSERT_TRUE(engine.Remove(T("a", "knows", "z")).ok());
  ASSERT_TRUE(engine.Remove(T("a", "nopred", "b")).ok());
  const MutationStats s = engine.mutation_stats();
  EXPECT_EQ(s.delta_delete_triples, 0u);
  EXPECT_EQ(DecodedRows(engine, kKnowsQuery).size(), 3u);
}

TEST(DeltaStoreTest, RemovePendingInsertDropsIt) {
  auto engine = MakeMutableEngine();
  ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
  ASSERT_TRUE(engine.Remove(T("c", "knows", "e")).ok());
  const MutationStats s = engine.mutation_stats();
  EXPECT_EQ(s.delta_insert_triples, 0u);
  EXPECT_EQ(s.delta_delete_triples, 0u);
  EXPECT_EQ(DecodedRows(engine, kKnowsQuery).size(), 3u);
}

TEST(DeltaStoreTest, ReinsertingDeletedBaseTripleResurrects) {
  auto engine = MakeMutableEngine();
  ASSERT_TRUE(engine.Remove(T("a", "knows", "b")).ok());
  ASSERT_TRUE(engine.Insert(T("a", "knows", "b")).ok());
  // ins ∩ base = ∅ must hold: the resurrect cancels the delete instead of
  // recording an insert of a base-present triple.
  const MutationStats s = engine.mutation_stats();
  EXPECT_EQ(s.delta_insert_triples, 0u);
  EXPECT_EQ(s.delta_delete_triples, 0u);
  EXPECT_EQ(DecodedRows(engine, kKnowsQuery).size(), 3u);
}

TEST(DeltaStoreTest, BatchAppliesAtomically) {
  auto engine = MakeMutableEngine();
  const MvccSnapshot before = engine.snapshot();
  std::vector<Mutation> batch = {
      {T("e", "knows", "f"), false},
      {T("a", "knows", "b"), true},
      {T("f", "likes", "d"), false},
  };
  ASSERT_TRUE(engine.ApplyBatch(batch).ok());
  // One publish per batch: the pre-batch snapshot still reflects the old
  // sequence, the new one every mutation at once.
  EXPECT_EQ(before.delta().delta_triples(), 0u);
  const MvccSnapshot after = engine.snapshot();
  EXPECT_EQ(after.delta().insert_triples(), 2u);
  EXPECT_EQ(after.delta().delete_triples(), 1u);
  EXPECT_EQ(after.delta().sequence(), before.delta().sequence() + 1);

  const auto chain = DecodedRows(engine, kChain);
  EXPECT_NE(std::find(chain.begin(), chain.end(),
                      std::vector<std::string>{"<e>", "<f>", "<d>"}),
            chain.end());
}

// ---- Snapshot pinning ------------------------------------------------

TEST(MvccSnapshotTest, PinnedSnapshotIgnoresLaterWrites) {
  auto engine = MakeMutableEngine();
  const MvccSnapshot snap = engine.snapshot();
  ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
  ASSERT_TRUE(engine.Remove(T("a", "knows", "b")).ok());

  // The pinned view still answers with the pre-write result.
  auto encoded = test::Encode(kKnowsQuery, snap.base());
  auto plan = query::Optimize(encoded, snap.base(), {}, &snap.delta());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  join::Executor exec(&snap.base(), &snap.delta());
  auto result = exec.Execute(*plan, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->row_count, 3u);

  // The live engine sees both writes.
  EXPECT_EQ(DecodedRows(engine, kKnowsQuery).size(), 3u);
  EXPECT_EQ(engine.mutation_stats().delta_insert_triples, 1u);
}

TEST(MvccSnapshotTest, ActiveEpochsCountsPinnedVersions) {
  auto engine = MakeMutableEngine();
  EXPECT_EQ(engine.mutation_stats().active_epochs, 1u);
  {
    const MvccSnapshot pinned = engine.snapshot();
    ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
    // The write published a fresh Version; the pinned one is still live.
    EXPECT_EQ(engine.mutation_stats().active_epochs, 2u);
    (void)pinned;
  }
  // Dropping the pin reclaims the old version (shared_ptr refcount — no
  // grace period to wait out).
  EXPECT_EQ(engine.mutation_stats().active_epochs, 1u);
}

// ---- Compaction ------------------------------------------------------

TEST(CompactionTest, FoldsDeltaAndBumpsEpoch) {
  auto engine = MakeMutableEngine();
  ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
  ASSERT_TRUE(engine.Insert(T("e", "likes", "d")).ok());
  ASSERT_TRUE(engine.Remove(T("a", "knows", "b")).ok());
  const auto before = DecodedRows(engine, kChain);
  const uint64_t base_triples = engine.database().total_triples();

  ASSERT_TRUE(engine.Compact().ok());

  const MutationStats s = engine.mutation_stats();
  EXPECT_EQ(s.epoch, 1u);
  EXPECT_EQ(s.compactions, 1u);
  EXPECT_EQ(s.delta_insert_triples, 0u);
  EXPECT_EQ(s.delta_delete_triples, 0u);
  EXPECT_EQ(engine.database().total_triples(), base_triples + 1);
  // Same logical store, now all in the base CSR.
  EXPECT_EQ(DecodedRows(engine, kChain), before);
  // Compaction is idempotent on an empty delta.
  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(DecodedRows(engine, kChain), before);
}

TEST(CompactionTest, TermIdsStayStableAcrossCompaction) {
  auto engine = MakeMutableEngine();
  ASSERT_TRUE(engine.Insert(T("c", "knows", "zz1")).ok());
  ASSERT_TRUE(engine.Insert(T("c", "knows", "zz2")).ok());

  auto result = engine.Execute(kKnowsQuery);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(engine.Compact().ok());
  ASSERT_TRUE(engine.Insert(T("c", "knows", "zz3")).ok());
  ASSERT_TRUE(engine.Compact().ok());

  // Rows materialized before both compactions decode identically against
  // the current snapshot: overlay IDs were folded into the new base
  // dictionaries in allocation order, so no ID ever moved.
  std::vector<std::vector<std::string>> old_rows;
  for (size_t r = 0; r < result->row_count; ++r) {
    old_rows.push_back(engine.DecodeRow(*result, r));
  }
  std::sort(old_rows.begin(), old_rows.end());
  auto fresh = DecodedRows(engine, kKnowsQuery);
  // The re-run adds zz3; every old row must appear verbatim.
  for (const auto& row : old_rows) {
    EXPECT_NE(std::find(fresh.begin(), fresh.end(), row), fresh.end())
        << row[0] << " " << row[1];
  }
  EXPECT_NE(std::find(old_rows.begin(), old_rows.end(),
                      std::vector<std::string>{"<c>", "<zz2>"}),
            old_rows.end());
}

TEST(CompactionTest, DeltaOnlyPredicateServesAndCompacts) {
  auto engine = MakeMutableEngine();
  // A predicate the base store has never seen: planner and executor must
  // serve it from the insert table alone (empty base replica).
  ASSERT_TRUE(engine.Insert(T("a", "worksAt", "w1")).ok());
  ASSERT_TRUE(engine.Insert(T("b", "worksAt", "w1")).ok());
  ASSERT_TRUE(engine.Insert(T("c", "worksAt", "w2")).ok());

  const std::string q = "SELECT ?x ?w WHERE { ?x <worksAt> ?w }";
  EXPECT_EQ(DecodedRows(engine, q).size(), 3u);
  // Bound-key and join shapes over the delta-only predicate.
  EXPECT_EQ(DecodedRows(engine,
                        "SELECT ?w WHERE { <a> <worksAt> ?w }").size(),
            1u);
  EXPECT_EQ(
      DecodedRows(engine,
                  "SELECT ?x ?y ?w WHERE { ?x <knows> ?y . ?y <worksAt> ?w }")
          .size(),
      3u);

  engine::QueryOptions threaded;
  threaded.num_threads = 4;
  EXPECT_EQ(DecodedRows(engine, q, threaded).size(), 3u);

  const auto before = DecodedRows(engine, q);
  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(DecodedRows(engine, q), before);
  EXPECT_EQ(DecodedRows(engine, q, threaded), before);
}

// ---- Compaction equivalence ------------------------------------------

/// Asserts that `got` (a compacted base) and `want` (Database::Build over
/// the same logical triples) hold identical replicas and derived metadata.
void ExpectSameStore(const storage::Database& got,
                     const storage::Database& want) {
  ASSERT_EQ(got.predicate_count(), want.predicate_count());
  ASSERT_EQ(got.max_resource_id(), want.max_resource_id());
  EXPECT_EQ(got.total_triples(), want.total_triples());
  const auto arrays = [](const storage::TableReplica& r) {
    return std::make_tuple(
        std::vector<TermId>(r.keys().begin(), r.keys().end()),
        std::vector<uint64_t>(r.offsets().begin(), r.offsets().end()),
        std::vector<TermId>(r.values().begin(), r.values().end()));
  };
  for (PredicateId pid = 1; pid <= got.predicate_count(); ++pid) {
    for (const storage::ReplicaKind kind :
         {storage::ReplicaKind::kSO, storage::ReplicaKind::kOS}) {
      SCOPED_TRACE(::testing::Message()
                   << "predicate " << pid << " "
                   << storage::ReplicaKindName(kind));
      EXPECT_EQ(arrays(got.entry(pid).table.replica(kind)),
                arrays(want.entry(pid).table.replica(kind)));
      const storage::ReplicaMeta& a = got.entry(pid).meta(kind);
      const storage::ReplicaMeta& b = want.entry(pid).meta(kind);
      ASSERT_EQ(a.has_index, b.has_index);
      if (a.has_index) {
        EXPECT_EQ(a.id_index.universe(), b.id_index.universe());
        EXPECT_EQ(a.id_index.key_count(), b.id_index.key_count());
        EXPECT_EQ(a.id_index.MemoryUsage(), b.id_index.MemoryUsage());
        for (TermId id = 0; id <= got.max_resource_id() + 1; ++id) {
          ASSERT_EQ(a.id_index.Find(id), b.id_index.Find(id)) << "id " << id;
        }
      }
      EXPECT_EQ(a.threshold_binary, b.threshold_binary);
      EXPECT_EQ(a.threshold_index, b.threshold_index);
    }
  }
  ASSERT_EQ(got.has_pair_stats(), want.has_pair_stats());
  for (PredicateId p1 = 1; p1 <= got.predicate_count(); ++p1) {
    for (PredicateId p2 = 1; p2 <= got.predicate_count(); ++p2) {
      for (const storage::Role r1 :
           {storage::Role::kSubject, storage::Role::kObject}) {
        for (const storage::Role r2 :
             {storage::Role::kSubject, storage::Role::kObject}) {
          const auto a = got.GetPairStat(p1, r1, p2, r2);
          const auto b = want.GetPairStat(p1, r1, p2, r2);
          ASSERT_EQ(a.has_value(), b.has_value());
          if (!a.has_value()) continue;
          EXPECT_EQ(a->intersection, b->intersection);
          EXPECT_EQ(a->pairs_left, b->pairs_left);
          EXPECT_EQ(a->pairs_right, b->pairs_right);
        }
      }
    }
  }
}

class CompactionEquivalenceTest : public ::testing::TestWithParam<int> {};

// Random insert/remove batches — a brand-new predicate, a predicate whose
// every triple goes, a subject whose run empties, fresh terms — then
// compaction must leave exactly the store Database::Build makes from the
// same logical triples.
TEST_P(CompactionEquivalenceTest, CompactedBaseEqualsFreshBuild) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  const auto name = [](const char* prefix, uint64_t i) {
    return std::string(prefix) + std::to_string(i);
  };
  std::set<std::tuple<std::string, std::string, std::string>> logical;
  Spec spec;
  for (int i = 0; i < 400; ++i) {
    logical.emplace(name("n", rng.Uniform(60)), name("p", rng.Uniform(4)),
                    name("n", rng.Uniform(60)));
  }
  logical.emplace("lonely", "p0", "n1");
  logical.emplace("lonely", "p0", "n2");
  logical.emplace("lonely", "p1", "n3");
  for (int i = 0; i < 5; ++i) logical.emplace(name("n", i), "doomed", "n9");
  // Never touched: compaction copies it, and rebuilds its ID indexes once
  // fresh terms widen the resource range.
  for (int i = 0; i < 30; ++i) {
    logical.emplace(name("n", i), "still", name("n", 59 - i));
  }
  spec.assign(logical.begin(), logical.end());

  storage::DatabaseOptions db_options;
  db_options.build_threads = GetParam();
  DeltaStoreOptions store_options;
  store_options.database = db_options;
  DeltaStore store(test::MakeDatabase(spec, db_options), store_options);

  const auto apply = [&](std::vector<Mutation> batch) {
    ASSERT_TRUE(store.Apply(batch).ok());
    for (const Mutation& m : batch) {
      const auto key = std::make_tuple(m.triple.subject.lexical(),
                                       m.triple.predicate.lexical(),
                                       m.triple.object.lexical());
      if (m.remove) {
        logical.erase(key);
      } else {
        logical.insert(key);
      }
    }
  };
  const auto random_batch = [&](int round) {
    std::vector<Mutation> batch;
    for (int i = 0; i < 40; ++i) {
      if (rng.Uniform(3) == 0 && !logical.empty()) {
        auto it = logical.begin();
        std::advance(it, rng.Uniform(logical.size()));
        const auto [s, p, o] = *it;
        if (p == "still") continue;
        batch.push_back({T(s, p, o), /*remove=*/true});
      } else {
        const char* object = rng.Uniform(4) == 0 ? "fresh" : "n";
        batch.push_back(
            {T(name("n", rng.Uniform(70)), name("p", rng.Uniform(5)),
               name(object, rng.Uniform(20) + 20 * round)),
             /*remove=*/false});
      }
    }
    return batch;
  };
  const auto expect_equivalent = [&] {
    ASSERT_TRUE(store.Compact().ok());
    const storage::Database& base = store.base();
    dict::Dictionary dict = base.dictionary().Clone();
    std::vector<EncodedTriple> triples;
    for (const auto& [s, p, o] : logical) {
      triples.push_back(
          EncodedTriple{dict.LookupResource(rdf::Term::Iri(s)),
                        dict.LookupPredicate(rdf::Term::Iri(p)),
                        dict.LookupResource(rdf::Term::Iri(o))});
    }
    auto want = storage::Database::Build(std::move(dict), std::move(triples),
                                         db_options);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ExpectSameStore(base, *want);
  };

  apply(random_batch(0));
  std::vector<Mutation> targeted;
  targeted.push_back({T("a", "brandnew", "n1"), false});
  targeted.push_back({T("lonely", "brandnew", "fresh_x"), false});
  targeted.push_back({T("lonely", "p0", "n1"), true});
  targeted.push_back({T("lonely", "p0", "n2"), true});
  for (int i = 0; i < 5; ++i) {
    targeted.push_back({T(name("n", i), "doomed", "n9"), true});
  }
  apply(targeted);
  apply(random_batch(1));
  expect_equivalent();
  // A second round on the compacted base; p4 and the fresh terms are part
  // of it now.
  apply(random_batch(2));
  apply(random_batch(3));
  expect_equivalent();
  // An empty delta compacts to the same store.
  expect_equivalent();
}

INSTANTIATE_TEST_SUITE_P(BuildThreads, CompactionEquivalenceTest,
                         ::testing::Values(1, 3));

// ---- Fault injection -------------------------------------------------

class MutableFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(MutableFailpointTest, ApplyFaultLeavesStoreUnchanged) {
  auto engine = MakeMutableEngine();
  ASSERT_TRUE(failpoint::Arm("delta.apply", "io:1").ok());
  const Status s = engine.Insert(T("c", "knows", "e"));
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(engine.mutation_stats().delta_insert_triples, 0u);
  EXPECT_EQ(DecodedRows(engine, kKnowsQuery).size(), 3u);
  // The budgeted fault is spent; the retry lands.
  ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
  EXPECT_EQ(DecodedRows(engine, kKnowsQuery).size(), 4u);
}

TEST_F(MutableFailpointTest, BuildFaultLeavesServingSnapshotUntouched) {
  auto engine = MakeMutableEngine();
  ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
  const auto before = DecodedRows(engine, kKnowsQuery);

  ASSERT_TRUE(failpoint::Arm("compactor.build", "error:1").ok());
  const Status s = engine.Compact();
  EXPECT_FALSE(s.ok());
  // Failed compaction: same epoch, delta intact, identical results.
  const MutationStats stats = engine.mutation_stats();
  EXPECT_EQ(stats.epoch, 0u);
  EXPECT_EQ(stats.compactions, 0u);
  EXPECT_EQ(stats.delta_insert_triples, 1u);
  EXPECT_EQ(DecodedRows(engine, kKnowsQuery), before);

  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(engine.mutation_stats().epoch, 1u);
  EXPECT_EQ(DecodedRows(engine, kKnowsQuery), before);
}

TEST_F(MutableFailpointTest, SwapFaultLeavesServingSnapshotUntouched) {
  auto engine = MakeMutableEngine();
  ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
  ASSERT_TRUE(engine.Remove(T("b", "likes", "d")).ok());
  const auto before = DecodedRows(engine, kChain);

  // Fault injected after the rebuild, inside the swap critical section —
  // the already-built replacement must be discarded, not half-installed.
  ASSERT_TRUE(failpoint::Arm("compactor.swap", "dataloss:1").ok());
  const Status s = engine.Compact();
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(engine.mutation_stats().epoch, 0u);
  EXPECT_EQ(DecodedRows(engine, kChain), before);

  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(engine.mutation_stats().epoch, 1u);
  EXPECT_EQ(DecodedRows(engine, kChain), before);
}

TEST_F(MutableFailpointTest, ConcurrentCompactReturnsAlreadyExists) {
  auto engine = MakeMutableEngine();
  ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
  // Stretch the rebuild phase so the second Compact reliably overlaps.
  ASSERT_TRUE(failpoint::Arm("compactor.build", "sleep-100:1").ok());
  std::thread background([&] { EXPECT_TRUE(engine.Compact().ok()); });
  while (!engine.delta_store()->compacting()) {
    std::this_thread::yield();
  }
  const Status s = engine.Compact();
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  background.join();
  EXPECT_EQ(engine.mutation_stats().compactions, 1u);
}

TEST_F(MutableFailpointTest, WritesLandDuringCompactionRebuild) {
  auto engine = MakeMutableEngine();
  ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
  ASSERT_TRUE(failpoint::Arm("compactor.build", "sleep-50:1").ok());
  std::thread background([&] { EXPECT_TRUE(engine.Compact().ok()); });
  while (!engine.delta_store()->compacting()) {
    std::this_thread::yield();
  }
  // This write races the rebuild; the swap phase must rebase it onto the
  // new epoch via the mutation log instead of losing it.
  ASSERT_TRUE(engine.Insert(T("e", "knows", "f")).ok());
  background.join();
  EXPECT_EQ(engine.mutation_stats().epoch, 1u);
  const auto rows = DecodedRows(engine, kKnowsQuery);
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_NE(std::find(rows.begin(), rows.end(),
                      std::vector<std::string>{"<e>", "<f>"}),
            rows.end());
}

// ---- Background Compactor -------------------------------------------

TEST(CompactorTest, TriggerRunsOnThreadPool) {
  auto engine = MakeMutableEngine();
  ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
  server::ThreadPool pool(2);
  Compactor compactor(engine.delta_store(), &pool);
  EXPECT_TRUE(compactor.Trigger());
  compactor.Wait();
  EXPECT_EQ(compactor.runs(), 1u);
  EXPECT_TRUE(compactor.last_status().ok());
  EXPECT_EQ(engine.mutation_stats().epoch, 1u);
  EXPECT_EQ(engine.mutation_stats().delta_insert_triples, 0u);
}

TEST(CompactorTest, MaybeTriggerHonorsThreshold) {
  auto engine = MakeMutableEngine();
  server::ThreadPool pool(2);
  CompactorOptions options;
  options.auto_compact_delta_triples = 3;
  Compactor compactor(engine.delta_store(), &pool, options);

  ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
  compactor.MaybeTrigger();
  compactor.Wait();
  EXPECT_EQ(compactor.runs(), 0u);  // below threshold: no compaction

  ASSERT_TRUE(engine.Insert(T("c", "knows", "f")).ok());
  ASSERT_TRUE(engine.Remove(T("a", "knows", "b")).ok());
  compactor.MaybeTrigger();
  compactor.Wait();
  EXPECT_EQ(compactor.runs(), 1u);
  EXPECT_EQ(engine.mutation_stats().epoch, 1u);
}

// ---- Serving-layer wiring -------------------------------------------

TEST(ServingTest, MutationGaugesFlowIntoMetrics) {
  auto engine = MakeMutableEngine();
  ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
  ASSERT_TRUE(engine.Remove(T("a", "knows", "b")).ok());
  ASSERT_TRUE(engine.Compact().ok());
  ASSERT_TRUE(engine.Insert(T("e", "knows", "f")).ok());

  server::QueryServer server(&engine, {});
  server.RefreshMutationGauges();
  const server::MetricsRegistry& m = server.metrics();
  EXPECT_EQ(m.delta_triples.load(), 1u);
  EXPECT_GT(m.delta_bytes.load(), 0u);
  EXPECT_EQ(m.compactions.load(), 1u);
  EXPECT_GT(m.compaction_micros.load(), 0u);
  EXPECT_GE(m.active_epochs.load(), 1u);

  const std::string dump = m.Dump();
  EXPECT_NE(dump.find("delta_triples"), std::string::npos);
  EXPECT_NE(dump.find("compaction_ms"), std::string::npos);
  EXPECT_NE(dump.find("active_epochs"), std::string::npos);
}

TEST(ServingTest, ResultCacheNeverServesStaleAcrossMutationAndCompaction) {
  auto engine = MakeMutableEngine();
  server::QueryServer server(&engine, {});

  auto first = server.Execute(kKnowsQuery);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->result_cached);
  auto warm = server.Execute(kKnowsQuery);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->result_cached);
  const size_t rows_at_n = warm->row_count;

  // A mutation publishes version N+1: the entry cached at N must never
  // be served again.
  ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
  auto fresh = server.Execute(kKnowsQuery);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->result_cached);
  EXPECT_EQ(fresh->row_count, rows_at_n + 1);

  // Re-cached at N+1. Compaction folds the delta into a rebuilt base
  // without changing what the data says, so the entry survives the
  // snapshot swap and still carries the right rows.
  auto recached = server.Execute(kKnowsQuery);
  ASSERT_TRUE(recached.ok());
  EXPECT_TRUE(recached->result_cached);
  ASSERT_TRUE(engine.Compact().ok());
  auto post_compact = server.Execute(kKnowsQuery);
  ASSERT_TRUE(post_compact.ok());
  EXPECT_TRUE(post_compact->result_cached);
  EXPECT_EQ(post_compact->row_count, rows_at_n + 1);

  // A remove against the rebuilt base must miss again.
  ASSERT_TRUE(engine.Remove(T("a", "knows", "b")).ok());
  auto after_remove = server.Execute(kKnowsQuery);
  ASSERT_TRUE(after_remove.ok());
  EXPECT_FALSE(after_remove->result_cached);
  EXPECT_EQ(after_remove->row_count, rows_at_n);
}

TEST(ServingTest, MidFlightMutationCannotPoisonResultCache) {
  // Queries cache under the data version of the snapshot they executed
  // against — not the version current at insert time — so a write that
  // lands while a query is in flight can never make a stale result look
  // fresh. Race the two and check the invariant afterwards.
  auto engine = MakeMutableEngine();
  server::QueryServer server(&engine, {});
  for (int round = 0; round < 8; ++round) {
    auto in_flight = server.Submit(kKnowsQuery);
    ASSERT_TRUE(
        engine.Insert(T("r", "knows", "r" + std::to_string(round))).ok());
    ASSERT_TRUE(in_flight.result.get().ok());
    auto current = server.Execute(kKnowsQuery);
    ASSERT_TRUE(current.ok());
    // Whatever snapshot the racing query pinned, the post-write read
    // must see the new edge: 3 base rows + round+1 inserts.
    EXPECT_EQ(current->row_count, 3u + static_cast<size_t>(round) + 1u);
  }
}

TEST(ServingTest, CalibrateAppliesToLiveBase) {
  auto engine = MakeMutableEngine();
  const auto before = DecodedRows(engine, kChain);
  engine.Calibrate();
  EXPECT_EQ(DecodedRows(engine, kChain), before);
  ASSERT_TRUE(engine.Insert(T("c", "knows", "e")).ok());
  ASSERT_TRUE(engine.Compact().ok());
  engine.Calibrate();  // recalibrate the rebuilt base
  EXPECT_EQ(DecodedRows(engine, kKnowsQuery).size(), 4u);
}

}  // namespace
}  // namespace parj::mut
