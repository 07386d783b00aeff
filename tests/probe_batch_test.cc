// Equivalence gates for the executor's probe paths (DESIGN.md §11):
//  - batched prefetched probing (ExecOptions::batch_probes): with batching
//    on, every observable output — rows, row counts, per-step
//    cardinalities, SearchCounters, probe traces — must be identical to
//    the strictly serial probe loop, because batching only reorders WHEN
//    run descents happen relative to sibling searches, never the per-step
//    search order itself;
//  - key reuse: a step whose key cannot change inside the enclosing value
//    loop searches once per key value, and counters and traces count only
//    the searches performed;
//  - cursor membership: bound-value checks on long runs gallop from the
//    previous probe and must give NaiveEngine's rows for any probe order,
//    on clean and delta-merged stores;
//  - run-at-a-time tails: a value loop whose next step checks its value
//    in a loop-invariant run intersects the two runs, and a counted leaf
//    adds its run's length; both must leave rows, step_rows, counters and
//    traces exactly as the per-tuple loop does.

#include <algorithm>
#include <chrono>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/naive_engine.h"
#include "common/rng.h"
#include "join/executor.h"
#include "mutable/delta_store.h"
#include "query/optimizer.h"
#include "test_util.h"

namespace parj::join {
namespace {

using test::Encode;
using test::MakeDatabase;
using test::Spec;
using test::ToSortedRows;

/// A three-predicate chain dataset dense enough that value runs span
/// several probe batches (kProbeBatchSize = 16): 60 students each take 20
/// courses, courses are taught by 12 professors, professors belong to 4
/// departments.
Spec ChainSpec() {
  Spec spec;
  for (int s = 0; s < 60; ++s) {
    for (int j = 0; j < 20; ++j) {
      spec.push_back({"s" + std::to_string(s), "takes",
                      "c" + std::to_string((s + j * 7) % 60)});
    }
  }
  for (int c = 0; c < 60; ++c) {
    spec.push_back({"c" + std::to_string(c), "taughtBy",
                    "p" + std::to_string(c % 12)});
  }
  for (int p = 0; p < 12; ++p) {
    spec.push_back({"p" + std::to_string(p), "memberOf",
                    "d" + std::to_string(p % 4)});
  }
  return spec;
}

ExecResult MustExecute(const storage::Database& db, const std::string& sparql,
                       ExecOptions opts) {
  auto q = Encode(sparql, db);
  auto plan = query::Optimize(q, db);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  Executor exec(&db);
  auto result = exec.Execute(*plan, opts);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

void ExpectCountersEqual(const SearchCounters& a, const SearchCounters& b) {
  EXPECT_EQ(a.binary_searches, b.binary_searches);
  EXPECT_EQ(a.sequential_searches, b.sequential_searches);
  EXPECT_EQ(a.sequential_steps, b.sequential_steps);
  EXPECT_EQ(a.index_lookups, b.index_lookups);
  EXPECT_EQ(a.run_probes, b.run_probes);
}

/// Batched and serial runs of the same plan must agree on every
/// observable output. With one thread the probe traces must match
/// ELEMENT FOR ELEMENT (same per-step search order); with several the
/// per-shard segments merge in shard order for kStatic, so traces still
/// match exactly there.
void ExpectBatchedMatchesSerial(const storage::Database& db,
                                const std::string& sparql,
                                SearchStrategy strategy, int threads,
                                Scheduling scheduling) {
  ExecOptions on;
  on.batch_probes = true;
  on.strategy = strategy;
  on.num_threads = threads;
  on.scheduling = scheduling;
  on.collect_probe_trace = true;
  ExecOptions off = on;
  off.batch_probes = false;

  const ExecResult a = MustExecute(db, sparql, on);
  const ExecResult b = MustExecute(db, sparql, off);
  EXPECT_EQ(a.row_count, b.row_count);
  EXPECT_EQ(a.column_count, b.column_count);
  EXPECT_EQ(ToSortedRows(a.rows, a.column_count),
            ToSortedRows(b.rows, b.column_count));
  EXPECT_EQ(a.step_rows, b.step_rows);
  ExpectCountersEqual(a.counters, b.counters);
  if (scheduling == Scheduling::kStatic || threads == 1) {
    ASSERT_EQ(a.trace.step_values.size(), b.trace.step_values.size());
    for (size_t s = 0; s < a.trace.step_values.size(); ++s) {
      EXPECT_EQ(a.trace.step_values[s], b.trace.step_values[s])
          << "step " << s;
    }
  }
}

constexpr const char* kChainQuery =
    "SELECT ?s ?c ?p ?d WHERE { ?s <takes> ?c . ?c <taughtBy> ?p . "
    "?p <memberOf> ?d }";

class BatchEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SearchStrategy, int>> {};

TEST_P(BatchEquivalenceTest, ChainQueryMatchesSerial) {
  auto [strategy, threads] = GetParam();
  auto db = MakeDatabase(ChainSpec());
  for (Scheduling scheduling : {Scheduling::kStatic, Scheduling::kMorsel}) {
    ExpectBatchedMatchesSerial(db, kChainQuery, strategy, threads,
                               scheduling);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndThreads, BatchEquivalenceTest,
    ::testing::Combine(::testing::Values(SearchStrategy::kBinary,
                                         SearchStrategy::kAdaptiveBinary,
                                         SearchStrategy::kIndex,
                                         SearchStrategy::kAdaptiveIndex),
                       ::testing::Values(1, 2, 8)));

TEST(ProbeBatchTest, ConstantFirstKeyRunRange) {
  // kRunRange work source: the first step's constant key pins one value
  // run, which feeds the chain — the run loop is RunValues(0, ...).
  auto db = MakeDatabase(ChainSpec());
  const std::string q =
      "SELECT ?c ?p ?d WHERE { <s3> <takes> ?c . ?c <taughtBy> ?p . "
      "?p <memberOf> ?d }";
  for (int threads : {1, 4}) {
    ExpectBatchedMatchesSerial(db, q, SearchStrategy::kAdaptiveBinary,
                               threads, Scheduling::kStatic);
  }
}

TEST(ProbeBatchTest, FiltersApplyInsideBatches) {
  auto db = MakeDatabase(ChainSpec());
  const std::string q =
      "SELECT ?s ?c ?p WHERE { ?s <takes> ?c . ?c <taughtBy> ?p . "
      "FILTER(?p != <p3>) }";
  ExpectBatchedMatchesSerial(db, q, SearchStrategy::kAdaptiveBinary, 1,
                             Scheduling::kStatic);
  ExpectBatchedMatchesSerial(db, q, SearchStrategy::kBinary, 2,
                             Scheduling::kMorsel);
}

TEST(ProbeBatchTest, CyclicQueryWithBoundValue) {
  // Triangle query: the closing step's value variable is already bound,
  // so that depth must fall back to the membership check (no batching).
  Spec spec;
  for (int i = 0; i < 30; ++i) {
    spec.push_back({"a" + std::to_string(i), "p", "b" + std::to_string(i)});
    spec.push_back({"b" + std::to_string(i), "q", "c" + std::to_string(i)});
    spec.push_back(
        {"c" + std::to_string(i), "r", "a" + std::to_string(i % 10)});
  }
  auto db = MakeDatabase(spec);
  const std::string q =
      "SELECT ?x ?y ?z WHERE { ?x <p> ?y . ?y <q> ?z . ?z <r> ?x }";
  ExpectBatchedMatchesSerial(db, q, SearchStrategy::kAdaptiveBinary, 1,
                             Scheduling::kStatic);
  ExpectBatchedMatchesSerial(db, q, SearchStrategy::kAdaptiveIndex, 2,
                             Scheduling::kStatic);
}

TEST(ProbeBatchTest, PerShardLimitDisablesBatchingButStaysCorrect) {
  auto db = MakeDatabase(ChainSpec());
  ExecOptions opts;
  opts.batch_probes = true;
  opts.per_shard_limit = 5;
  opts.num_threads = 1;
  const ExecResult r = MustExecute(db, kChainQuery, opts);
  EXPECT_EQ(r.row_count, 5u);
}

TEST(ProbeBatchTest, CancellationHonoredInsideBatches) {
  auto db = MakeDatabase(ChainSpec());
  server::CancellationSource source;
  source.Cancel();
  ExecOptions opts;
  opts.batch_probes = true;
  opts.cancel = source.token();
  auto q = Encode(kChainQuery, db);
  auto plan = query::Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  Executor exec(&db);
  auto result = exec.Execute(*plan, opts);
  EXPECT_FALSE(result.ok());
}

// ---- Key reuse -------------------------------------------------------

constexpr SearchStrategy kAllStrategies[] = {
    SearchStrategy::kBinary, SearchStrategy::kAdaptiveBinary,
    SearchStrategy::kIndex, SearchStrategy::kAdaptiveIndex};

/// Plans `sparql` with its patterns in `order` and moves plan step i onto
/// replica `replicas[i]`, so each test pins the exact step shape it means
/// to exercise (which slot is the searched key, which the checked value).
query::Plan PlanWith(const storage::Database& db, const std::string& sparql,
                     std::vector<int> order,
                     const std::vector<storage::ReplicaKind>& replicas,
                     const mut::DeltaView* delta = nullptr) {
  query::OptimizerOptions oopts;
  oopts.forced_order = std::move(order);
  auto plan = query::Optimize(Encode(sparql, db), db, oopts, delta);
  PARJ_CHECK(plan.ok()) << plan.status().ToString();
  PARJ_CHECK(plan->steps.size() == replicas.size());
  for (size_t i = 0; i < replicas.size(); ++i) {
    query::PlanStep& step = plan->steps[i];
    if (step.replica == replicas[i]) continue;
    step.replica = replicas[i];
    std::swap(step.key, step.value);
    std::swap(step.key_bound, step.value_bound);
  }
  return std::move(plan).value();
}

std::vector<std::vector<TermId>> NaiveRows(const storage::Database& db,
                                           const std::string& sparql) {
  baseline::NaiveEngine naive(&db);
  auto r = naive.Execute(Encode(sparql, db));
  PARJ_CHECK(r.ok()) << r.status().ToString();
  return ToSortedRows(r->rows, r->column_count);
}

/// Work units (static shards or morsels) a run executed.
uint64_t UnitsRun(const ExecResult& r, size_t shards) {
  if (r.morsel_workers.empty()) return shards;
  uint64_t units = 0;
  for (const MorselWorkerStats& w : r.morsel_workers) units += w.morsels;
  return units;
}

/// Runs `plan` under every strategy, 1 and 4 threads and both schedules,
/// with batching on and off. Each run must return NaiveEngine's rows and
/// trace exactly the searches its counters count; the batched run must
/// match the serial one in step_rows, counters and (when its shards merge
/// in a fixed order) traces. Step `step` must search once per distinct key
/// value per work unit: `distinct_keys` times with one unit, between that
/// and `distinct_keys` per unit otherwise.
void ExpectOneSearchPerKey(const storage::Database& db,
                           const std::string& sparql, const query::Plan& plan,
                           size_t step, size_t distinct_keys) {
  const auto expected = NaiveRows(db, sparql);
  ASSERT_FALSE(expected.empty());
  Executor exec(&db);
  for (SearchStrategy strategy : kAllStrategies) {
    for (int threads : {1, 4}) {
      for (Scheduling scheduling : {Scheduling::kStatic, Scheduling::kMorsel}) {
        SCOPED_TRACE(std::string(SearchStrategyName(strategy)) + " x" +
                     std::to_string(threads) + " " +
                     SchedulingName(scheduling));
        ExecOptions opts;
        opts.strategy = strategy;
        opts.num_threads = threads;
        opts.scheduling = scheduling;
        opts.emulate_parallel = true;
        opts.collect_probe_trace = true;
        std::vector<ExecResult> runs;
        for (bool batch : {true, false}) {
          opts.batch_probes = batch;
          auto r = exec.Execute(plan, opts);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          EXPECT_EQ(ToSortedRows(r->rows, r->column_count), expected);
          uint64_t traced = 0;
          for (const auto& values : r->trace.step_values) {
            traced += values.size();
          }
          EXPECT_EQ(traced, r->counters.total_searches());
          const size_t searches = r->trace.step_values[step].size();
          const uint64_t units = UnitsRun(*r, r->shard_millis.size());
          if (units == 1) {
            EXPECT_EQ(searches, distinct_keys);
          } else {
            EXPECT_GE(searches, distinct_keys);
            EXPECT_LE(searches, distinct_keys * units);
          }
          runs.push_back(std::move(r).value());
        }
        EXPECT_EQ(runs[0].step_rows, runs[1].step_rows);
        ExpectCountersEqual(runs[0].counters, runs[1].counters);
        if (threads == 1 || scheduling == Scheduling::kStatic) {
          EXPECT_EQ(runs[0].trace.step_values, runs[1].trace.step_values);
        }
      }
    }
  }
}

TEST(KeyReuseTest, ConstantKeyCheckSearchesOncePerShard) {
  // LUBM5's shape after a batched chain step: a type check on a bound
  // subject, planned on O-S so the searched key is the constant class and
  // ?x is checked in its run (130+ members, so the check also takes the
  // cursor kernel). Three tuples per ?x reach the check.
  Spec spec;
  for (int i = 0; i < 200; ++i) {
    const std::string x = "x" + std::to_string(i);
    for (int j = 0; j < 3; ++j) {
      spec.push_back({x, "takes", "c" + std::to_string((i + j) % 40)});
    }
    spec.push_back({x, "type", i % 3 == 0 ? "Other" : "Student"});
  }
  for (int c = 0; c < 40; ++c) {
    spec.push_back({"c" + std::to_string(c), "taughtBy",
                    "t" + std::to_string(c % 5)});
  }
  auto db = MakeDatabase(spec);
  const std::string q =
      "SELECT ?x ?c ?t WHERE { ?x <takes> ?c . ?c <taughtBy> ?t . "
      "?x <type> <Student> }";
  const query::Plan plan =
      PlanWith(db, q, {0, 1, 2},
               {storage::ReplicaKind::kSO, storage::ReplicaKind::kSO,
                storage::ReplicaKind::kOS});
  ASSERT_TRUE(plan.steps[2].key.is_constant());
  ASSERT_TRUE(plan.steps[2].value_bound);
  ExpectOneSearchPerKey(db, q, plan, 2, 1);
}

TEST(KeyReuseTest, KeyBoundTwoStepsEarlierSearchesOncePerValue) {
  // LUBM9's shape: ?p is bound by step 0 and searched at step 2, inside
  // step 1's loop over ?c. Ten consecutive students share each advisor,
  // so the 200 tuples entering step 2 need one search per advisor.
  Spec spec;
  for (int i = 0; i < 200; ++i) {
    const std::string s = "s" + std::to_string(i);
    spec.push_back({s, "advisor", "p" + std::to_string(i / 10)});
  }
  for (int i = 0; i < 200; ++i) {
    spec.push_back({"s" + std::to_string(i), "takes",
                    "c" + std::to_string((i * 7) % 300)});
  }
  for (int p = 0; p < 20; ++p) {
    for (int c = 0; c < 90; ++c) {
      spec.push_back({"p" + std::to_string(p), "teaches",
                      "c" + std::to_string((p * 13 + c) % 300)});
    }
  }
  auto db = MakeDatabase(spec);
  const std::string q =
      "SELECT ?s ?p ?c WHERE { ?s <advisor> ?p . ?s <takes> ?c . "
      "?p <teaches> ?c }";
  const query::Plan plan =
      PlanWith(db, q, {0, 1, 2},
               {storage::ReplicaKind::kSO, storage::ReplicaKind::kSO,
                storage::ReplicaKind::kSO});
  ASSERT_TRUE(plan.steps[2].key.is_variable());
  ASSERT_TRUE(plan.steps[2].value_bound);
  ExpectOneSearchPerKey(db, q, plan, 2, 20);
}

TEST(KeyReuseTest, StarReusesSubjectUnderMultiValuedFirstStep) {
  // Steps 1 and 2 search ?x, which step 0's key scan binds; step 0's
  // three values and step 1's two per ?x would repeat each search 3 and 6
  // times without reuse.
  Spec spec;
  for (int i = 0; i < 150; ++i) {
    const std::string x = "x" + std::to_string(i);
    for (int j = 0; j < 3; ++j) {
      spec.push_back({x, "p0", "a" + std::to_string((i + j) % 50)});
    }
    for (int j = 0; j < 2; ++j) {
      spec.push_back({x, "p1", "b" + std::to_string((i * 3 + j) % 70)});
      spec.push_back({x, "p2", "c" + std::to_string((i * 5 + j) % 90)});
    }
  }
  auto db = MakeDatabase(spec);
  const std::string q =
      "SELECT ?x ?a ?b ?c WHERE { ?x <p0> ?a . ?x <p1> ?b . ?x <p2> ?c }";
  const query::Plan plan =
      PlanWith(db, q, {0, 1, 2},
               {storage::ReplicaKind::kSO, storage::ReplicaKind::kSO,
                storage::ReplicaKind::kSO});
  ExpectOneSearchPerKey(db, q, plan, 1, 150);
  ExpectOneSearchPerKey(db, q, plan, 2, 150);
}

TEST(KeyReuseTest, MemoResetsWithEveryMorsel) {
  // 40,000 first-step triples cut into many more morsels than workers:
  // the constant key is searched once per morsel, whichever worker runs
  // it, so real and emulated runs count the same searches.
  Spec spec;
  for (int i = 0; i < 10000; ++i) {
    const std::string x = "x" + std::to_string(i);
    for (int j = 0; j < 4; ++j) {
      spec.push_back({x, "takes", "c" + std::to_string((i + j) % 97)});
    }
    spec.push_back({x, "type", i % 4 == 0 ? "Other" : "Student"});
  }
  auto db = MakeDatabase(spec);
  const query::Plan plan = PlanWith(
      db, "SELECT ?x ?c WHERE { ?x <takes> ?c . ?x <type> <Student> }",
      {0, 1}, {storage::ReplicaKind::kSO, storage::ReplicaKind::kOS});
  ASSERT_TRUE(plan.steps[1].key.is_constant());
  Executor exec(&db);
  ExecOptions opts;
  opts.mode = ResultMode::kCount;
  opts.num_threads = 2;
  opts.scheduling = Scheduling::kMorsel;
  opts.emulate_parallel = true;
  opts.collect_probe_trace = true;
  auto emulated = exec.Execute(plan, opts);
  ASSERT_TRUE(emulated.ok()) << emulated.status().ToString();
  EXPECT_EQ(emulated->row_count, 30000u);
  const uint64_t morsels = UnitsRun(*emulated, 2);
  ASSERT_GT(morsels, 2u);
  EXPECT_EQ(emulated->trace.step_values[1].size(), morsels);
  EXPECT_EQ(emulated->counters.total_searches(), morsels);

  opts.emulate_parallel = false;
  opts.collect_probe_trace = false;
  for (int run = 0; run < 5; ++run) {
    auto real = exec.Execute(plan, opts);
    ASSERT_TRUE(real.ok()) << real.status().ToString();
    EXPECT_EQ(real->row_count, emulated->row_count);
    ExpectCountersEqual(real->counters, emulated->counters);
  }
}

// ---- Cursor membership ------------------------------------------------

/// Checked runs on both sides of the sweep/cursor boundary and one long
/// run, probed by four streams of bound values: ascending, descending,
/// repeated and random. Node IDs follow their index (the first triples
/// introduce n0, n1, ... in order), so the stream orders are ID orders.
struct MembershipData {
  Spec spec;
  std::vector<std::string> classes;  // the checked runs' keys
  std::vector<std::string> orders;   // the probe-stream predicates
};

MembershipData MakeMembershipData() {
  constexpr int kNodes = 12000;
  constexpr int kProbes = 150;
  MembershipData data;
  Rng rng(20261018);
  for (int i = 0; i < kNodes; ++i) {
    data.spec.push_back({"n" + std::to_string(i), "node", "hub"});
  }
  std::vector<int> members;  // nested: T63 ⊂ T64 ⊂ T65
  for (int i = 0; i < 65; ++i) {
    members.push_back(static_cast<int>(rng.Uniform(kNodes)));
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  while (members.size() < 65) {
    const int extra = static_cast<int>(rng.Uniform(kNodes));
    if (std::find(members.begin(), members.end(), extra) == members.end()) {
      members.push_back(extra);
    }
  }
  for (int size : {63, 64, 65}) {
    const std::string cls = "T" + std::to_string(size);
    data.classes.push_back(cls);
    for (int k = 0; k < size; ++k) {
      data.spec.push_back({"n" + std::to_string(members[k]), "type", cls});
    }
  }
  data.classes.push_back("T10k");
  for (int i = 0; i < kNodes; ++i) {
    if (rng.Uniform(6) != 0) {
      data.spec.push_back({"n" + std::to_string(i), "type", "T10k"});
    }
  }
  // A third of the probes are small-run members, so every run gets hits.
  std::vector<int> probes;
  for (int j = 0; j < kProbes; ++j) {
    probes.push_back(rng.Uniform(3) == 0
                         ? members[rng.Uniform(members.size())]
                         : static_cast<int>(rng.Uniform(kNodes)));
  }
  std::vector<int> ascending = probes;
  std::sort(ascending.begin(), ascending.end());
  std::vector<int> descending(ascending.rbegin(), ascending.rend());
  std::vector<int> repeated;
  for (int j = 0; j < kProbes / 3; ++j) {
    for (int k = 0; k < 3; ++k) repeated.push_back(probes[j]);
  }
  const std::pair<const char*, const std::vector<int>*> streams[] = {
      {"asc", &ascending},
      {"desc", &descending},
      {"rep", &repeated},
      {"rnd", &probes}};
  for (const auto& [name, stream] : streams) {
    data.orders.push_back(name);
    for (size_t j = 0; j < stream->size(); ++j) {
      data.spec.push_back({"k" + std::to_string(j), name,
                           "n" + std::to_string((*stream)[j])});
    }
  }
  return data;
}

rdf::Triple Iris(const std::string& s, const std::string& p,
                 const std::string& o) {
  return rdf::Triple{rdf::Term::Iri(s), rdf::Term::Iri(p), rdf::Term::Iri(o)};
}

/// The same store rebuilt from `spec` with `base`'s dictionary, so TermIds
/// match a delta-merged view of `base` holding the same triples.
storage::Database Rebuild(const storage::Database& base, const Spec& spec) {
  dict::Dictionary dict = base.dictionary().Clone();
  std::vector<EncodedTriple> triples;
  for (const auto& [s, p, o] : spec) {
    triples.push_back({dict.LookupResource(rdf::Term::Iri(s)),
                       dict.LookupPredicate(rdf::Term::Iri(p)),
                       dict.LookupResource(rdf::Term::Iri(o))});
  }
  auto db = storage::Database::Build(std::move(dict), std::move(triples));
  PARJ_CHECK(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

TEST(RunMemberTest, CursorMembershipMatchesNaiveOnEveryProbeOrder) {
  const MembershipData data = MakeMembershipData();
  auto base = MakeDatabase(data.spec);
  {
    // The streams must really arrive in the orders they are named for.
    auto plan = PlanWith(base, "SELECT ?k ?x WHERE { ?k <asc> ?x }", {0},
                         {storage::ReplicaKind::kSO});
    Executor exec(&base);
    auto r = exec.Execute(plan, {});
    ASSERT_TRUE(r.ok());
    std::vector<TermId> xs;
    for (size_t i = 1; i < r->rows.size(); i += 2) xs.push_back(r->rows[i]);
    ASSERT_TRUE(std::is_sorted(xs.begin(), xs.end()));
  }

  for (const std::string& cls : data.classes) {
    // A non-member to insert into the checked run, and a member to
    // delete from it.
    std::set<std::string> in_class;
    for (const auto& [s, p, o] : data.spec) {
      if (p == "type" && o == cls) in_class.insert(s);
    }
    std::string outsider;
    for (int i = 0; outsider.empty(); ++i) {
      const std::string n = "n" + std::to_string(i);
      if (in_class.count(n) == 0) outsider = n;
    }
    const std::string member = *in_class.rbegin();

    for (int state = 0; state < 3; ++state) {
      const char* state_name[] = {"clean", "pending insert", "pending delete"};
      Spec logical = data.spec;
      mut::DeltaStore store(MakeDatabase(data.spec));
      if (state == 1) {
        logical.push_back({outsider, "type", cls});
        ASSERT_TRUE(store.Insert(Iris(outsider, "type", cls)).ok());
      } else if (state == 2) {
        logical.erase(std::find(logical.begin(), logical.end(),
                                std::make_tuple(member, std::string("type"),
                                                cls)));
        ASSERT_TRUE(store.Remove(Iris(member, "type", cls)).ok());
      }
      const mut::MvccSnapshot snap = store.snapshot();
      const storage::Database reference = Rebuild(snap.base(), logical);
      Executor exec(&snap.base(), &snap.delta());

      for (const std::string& order : data.orders) {
        const std::string q = "SELECT ?k ?x WHERE { ?k <" + order +
                              "> ?x . ?x <type> <" + cls + "> }";
        SCOPED_TRACE(q + " on a " + state_name[state] + " store");
        const auto expected = NaiveRows(reference, q);
        const query::Plan plan =
            PlanWith(snap.base(), q, {0, 1},
                     {storage::ReplicaKind::kSO, storage::ReplicaKind::kOS},
                     &snap.delta());
        ASSERT_TRUE(plan.steps[1].key.is_constant());
        uint64_t run_probes = UINT64_MAX;
        for (SearchStrategy strategy : kAllStrategies) {
          for (int threads : {1, 4}) {
            for (Scheduling scheduling :
                 {Scheduling::kStatic, Scheduling::kMorsel}) {
              for (bool batch : {true, false}) {
                ExecOptions opts;
                opts.strategy = strategy;
                opts.num_threads = threads;
                opts.scheduling = scheduling;
                opts.batch_probes = batch;
                auto r = exec.Execute(plan, opts);
                ASSERT_TRUE(r.ok()) << r.status().ToString();
                EXPECT_EQ(ToSortedRows(r->rows, r->column_count), expected)
                    << SearchStrategyName(strategy) << " x" << threads << " "
                    << SchedulingName(scheduling) << " batch " << batch;
                if (run_probes == UINT64_MAX) {
                  run_probes = r->counters.run_probes;
                }
                EXPECT_EQ(r->counters.run_probes, run_probes);
              }
            }
          }
        }
      }
    }
  }
}


// ---- Run-at-a-time tails ------------------------------------------------

/// `plan` plus a FILTER (?var != an ID no term has) that every row passes.
/// The filter is pushed to the depth that binds ?var, which keeps that
/// depth's value loop on the per-tuple path: the same plan, unfused.
query::Plan WithPassingFilter(query::Plan plan, const std::string& var) {
  int id = -1;
  for (size_t i = 0; i < plan.var_names.size(); ++i) {
    if (plan.var_names[i] == var || plan.var_names[i] == "?" + var) {
      id = static_cast<int>(i);
    }
  }
  PARJ_CHECK(id >= 0) << "no variable " << var;
  query::EncodedFilter filter;
  filter.lhs = query::PatternTerm::Variable(id);
  filter.op = query::FilterOp::kNe;
  filter.rhs = query::PatternTerm::Constant(kInvalidTermId);
  plan.filters.push_back(filter);
  return plan;
}

/// One execution's result with its rows sorted, whichever mode produced
/// them (kVisit rows are gathered from the visitor).
struct ModeRun {
  ExecResult result;
  std::vector<std::vector<TermId>> rows;
};

ModeRun RunInMode(const Executor& exec, const query::Plan& plan,
                  ExecOptions opts) {
  std::mutex mu;
  std::vector<TermId> visited;
  if (opts.mode == ResultMode::kVisit) {
    opts.visitor = [&](size_t, std::span<const TermId> row) {
      std::lock_guard<std::mutex> lock(mu);
      visited.insert(visited.end(), row.begin(), row.end());
    };
  }
  auto r = exec.Execute(plan, opts);
  PARJ_CHECK(r.ok()) << r.status().ToString();
  ModeRun run;
  run.rows = ToSortedRows(
      opts.mode == ResultMode::kVisit ? visited : r->rows, r->column_count);
  run.result = std::move(r).value();
  return run;
}

/// Runs `plan` fused and unfused (WithPassingFilter on `var`) in count,
/// materialize and visit modes, at 1 and 4 threads, under both schedules,
/// with and without emulation. Both must give `expected`'s rows; step_rows,
/// every SearchCounters field and (where shards merge in a fixed order)
/// the probe trace must be identical.
void ExpectFusedMatchesPerTuple(const storage::Database& db,
                                const mut::DeltaView* delta,
                                const query::Plan& plan,
                                const std::string& var,
                                const std::vector<std::vector<TermId>>& expected) {
  const query::Plan per_tuple = WithPassingFilter(plan, var);
  Executor exec(&db, delta);
  for (ResultMode mode :
       {ResultMode::kCount, ResultMode::kMaterialize, ResultMode::kVisit}) {
    for (int threads : {1, 4}) {
      for (Scheduling scheduling : {Scheduling::kStatic, Scheduling::kMorsel}) {
        for (bool emulate : {false, true}) {
          SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) +
                       " x" + std::to_string(threads) + " " +
                       SchedulingName(scheduling) +
                       (emulate ? " emulated" : ""));
          ExecOptions opts;
          opts.mode = mode;
          opts.strategy = SearchStrategy::kAdaptiveIndex;
          opts.num_threads = threads;
          opts.scheduling = scheduling;
          opts.emulate_parallel = emulate;
          opts.collect_probe_trace = true;
          const ModeRun fused = RunInMode(exec, plan, opts);
          const ModeRun serial = RunInMode(exec, per_tuple, opts);
          EXPECT_EQ(fused.result.row_count, expected.size());
          EXPECT_EQ(serial.result.row_count, expected.size());
          if (mode != ResultMode::kCount) {
            EXPECT_EQ(fused.rows, expected);
            EXPECT_EQ(serial.rows, expected);
          }
          EXPECT_EQ(fused.result.step_rows, serial.result.step_rows);
          ExpectCountersEqual(fused.result.counters, serial.result.counters);
          if (threads == 1 || scheduling == Scheduling::kStatic) {
            EXPECT_EQ(fused.result.trace.step_values,
                      serial.result.trace.step_values);
          }
        }
      }
    }
  }
}

/// Nodes n0..n2999; key kj <lists> a sorted node set per j, of 3 to 2,000
/// nodes (on both sides of the 64-element sweep limit and of the gallop
/// ratio); classes Small (40 members), Edge (64), Big (1,200) and Apart
/// (members no list holds); every node has one <name>.
Spec IntersectSpec() {
  constexpr int kNodes = 3000;
  Spec spec;
  Rng rng(20261020);
  const int list_sizes[] = {3, 20, 64, 65, 300, 2000};
  for (size_t j = 0; j < std::size(list_sizes); ++j) {
    std::set<int> members;
    while (static_cast<int>(members.size()) < list_sizes[j]) {
      members.insert(static_cast<int>(rng.Uniform(kNodes - 500)));
    }
    for (int n : members) {
      spec.push_back({"k" + std::to_string(j), "lists",
                      "n" + std::to_string(n)});
    }
  }
  const std::pair<const char*, int> classes[] = {
      {"Small", 40}, {"Edge", 64}, {"Big", 1200}};
  for (const auto& [cls, size] : classes) {
    std::set<int> members;
    while (static_cast<int>(members.size()) < size) {
      members.insert(static_cast<int>(rng.Uniform(kNodes - 500)));
    }
    for (int n : members) {
      spec.push_back({"n" + std::to_string(n), "type", cls});
    }
  }
  for (int n = kNodes - 500; n < kNodes; n += 7) {
    spec.push_back({"n" + std::to_string(n), "type", "Apart"});
  }
  for (int n = 0; n < kNodes; ++n) {
    spec.push_back({"n" + std::to_string(n), "name",
                    "m" + std::to_string(n % 97)});
  }
  return spec;
}

TEST(RunIntersectTest, ConstantKeyAtTheLeaf) {
  // ?x from step 0's run is checked against the constant class's run:
  // Small and Edge are swept, Big is galloped or merged, Apart never
  // meets a list.
  auto db = MakeDatabase(IntersectSpec());
  for (const char* cls : {"Small", "Edge", "Big", "Apart"}) {
    const std::string q = std::string("SELECT ?k ?x WHERE { ?k <lists> ?x . "
                                      "?x <type> <") + cls + "> }";
    SCOPED_TRACE(q);
    const query::Plan plan = PlanWith(
        db, q, {0, 1}, {storage::ReplicaKind::kSO, storage::ReplicaKind::kOS});
    ASSERT_TRUE(plan.steps[1].key.is_constant());
    ASSERT_TRUE(plan.steps[1].value_bound);
    const auto expected = NaiveRows(db, q);
    if (std::string(cls) == "Apart") {
      ASSERT_TRUE(expected.empty());
    } else {
      ASSERT_FALSE(expected.empty());
    }
    ExpectFusedMatchesPerTuple(db, nullptr, plan, "x", expected);
  }
}

TEST(RunIntersectTest, IntersectionBelowTheLeaf) {
  // The intersection at depth 0 feeds a third step, whose value loop is
  // the counted leaf in count mode.
  auto db = MakeDatabase(IntersectSpec());
  for (const char* cls : {"Small", "Big"}) {
    const std::string q =
        std::string("SELECT ?k ?x ?m WHERE { ?k <lists> ?x . ?x <type> <") +
        cls + "> . ?x <name> ?m }";
    SCOPED_TRACE(q);
    const query::Plan plan =
        PlanWith(db, q, {0, 1, 2},
                 {storage::ReplicaKind::kSO, storage::ReplicaKind::kOS,
                  storage::ReplicaKind::kSO});
    const auto expected = NaiveRows(db, q);
    ASSERT_FALSE(expected.empty());
    ExpectFusedMatchesPerTuple(db, nullptr, plan, "x", expected);
    // The counted leaf against the per-tuple leaf.
    ExpectFusedMatchesPerTuple(db, nullptr, plan, "m", expected);
  }
}

TEST(RunIntersectTest, KeyBoundTwoStepsEarlier) {
  // LUBM9's triangle: ?p is bound at step 0 and is step 2's key, inside
  // step 1's loop over ?c. Every fifth advisor teaches nothing (a key
  // miss); takes runs reach 120 courses and teaches runs 200.
  Spec spec;
  Rng rng(7);
  for (int i = 0; i < 120; ++i) {
    const std::string s = "s" + std::to_string(i);
    spec.push_back({s, "advisor", "p" + std::to_string(i % 12)});
    const int takes = 1 + static_cast<int>(rng.Uniform(120));
    for (int c = 0; c < takes; ++c) {
      spec.push_back({s, "takes", "c" + std::to_string((i * 11 + c * 3) % 400)});
    }
  }
  for (int p = 0; p < 12; ++p) {
    if (p % 5 == 4) continue;
    const int teaches = 2 + static_cast<int>(rng.Uniform(200));
    for (int c = 0; c < teaches; ++c) {
      spec.push_back({"p" + std::to_string(p), "teaches",
                      "c" + std::to_string((p * 37 + c * 2) % 400)});
    }
  }
  auto db = MakeDatabase(spec);
  const std::string q =
      "SELECT ?s ?p ?c WHERE { ?s <advisor> ?p . ?s <takes> ?c . "
      "?p <teaches> ?c }";
  const query::Plan plan =
      PlanWith(db, q, {0, 1, 2},
               {storage::ReplicaKind::kSO, storage::ReplicaKind::kSO,
                storage::ReplicaKind::kSO});
  ASSERT_TRUE(plan.steps[2].key.is_variable());
  ASSERT_TRUE(plan.steps[2].value_bound);
  const auto expected = NaiveRows(db, q);
  ASSERT_FALSE(expected.empty());
  ExpectFusedMatchesPerTuple(db, nullptr, plan, "c", expected);
}

TEST(RunIntersectTest, CountedLeafOfAScan) {
  // A single-pattern key scan and a two-step chain: each value loop at
  // the last step is counted.
  auto db = MakeDatabase(IntersectSpec());
  const std::string scan = "SELECT ?k ?x WHERE { ?k <lists> ?x }";
  ExpectFusedMatchesPerTuple(
      db, nullptr, PlanWith(db, scan, {0}, {storage::ReplicaKind::kSO}), "x",
      NaiveRows(db, scan));
  const std::string chain =
      "SELECT ?k ?x ?m WHERE { ?k <lists> ?x . ?x <name> ?m }";
  ExpectFusedMatchesPerTuple(
      db, nullptr,
      PlanWith(db, chain, {0, 1},
               {storage::ReplicaKind::kSO, storage::ReplicaKind::kSO}),
      "m", NaiveRows(db, chain));
}

TEST(RunIntersectTest, DirtyNextStepKeepsMergedMembership) {
  // Step 1's predicate has pending writes, so its membership must see
  // (base ∖ del) ∪ ins: fusion is off there, and the rows equal those of
  // the store rebuilt from the merged triples.
  const Spec spec = IntersectSpec();
  mut::DeltaStore store(MakeDatabase(spec));
  Spec logical = spec;
  // A listed node joins Small; one of Small's members leaves it.
  std::string joiner;
  std::string leaver;
  std::set<std::string> small;
  for (const auto& [s, p, o] : spec) {
    if (p == "type" && o == "Small") small.insert(s);
  }
  for (const auto& [s, p, o] : spec) {
    if (p == "lists" && small.count(o) == 0 && joiner.empty()) joiner = o;
    if (p == "lists" && small.count(o) != 0 && leaver.empty()) leaver = o;
  }
  ASSERT_FALSE(joiner.empty());
  ASSERT_FALSE(leaver.empty());
  logical.push_back({joiner, "type", "Small"});
  ASSERT_TRUE(store.Insert(Iris(joiner, "type", "Small")).ok());
  logical.erase(std::find(logical.begin(), logical.end(),
                          std::make_tuple(leaver, std::string("type"),
                                          std::string("Small"))));
  ASSERT_TRUE(store.Remove(Iris(leaver, "type", "Small")).ok());
  const mut::MvccSnapshot snap = store.snapshot();
  const storage::Database compacted = Rebuild(snap.base(), logical);

  const std::string q =
      "SELECT ?k ?x WHERE { ?k <lists> ?x . ?x <type> <Small> }";
  const query::Plan plan =
      PlanWith(snap.base(), q, {0, 1},
               {storage::ReplicaKind::kSO, storage::ReplicaKind::kOS},
               &snap.delta());
  const auto expected = NaiveRows(compacted, q);
  ASSERT_FALSE(expected.empty());
  ExpectFusedMatchesPerTuple(snap.base(), &snap.delta(), plan, "x", expected);

  // The compacted store runs the same plan shape fused.
  const query::Plan clean_plan = PlanWith(
      compacted, q, {0, 1},
      {storage::ReplicaKind::kSO, storage::ReplicaKind::kOS});
  Executor exec(&compacted);
  auto r = exec.Execute(clean_plan, {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ToSortedRows(r->rows, r->column_count), expected);
}

/// The full cartesian product of `members` nodes of class <T> with itself
/// `ways` times.
std::string CartesianQuery(int ways) {
  std::string q = "SELECT * WHERE { ";
  for (int i = 0; i < ways; ++i) {
    q += "?v" + std::to_string(i) + " <type> <T> . ";
  }
  return q + "}";
}

Spec ClassSpec(int members) {
  Spec spec;
  for (int i = 0; i < members; ++i) {
    spec.push_back({"n" + std::to_string(i), "type", "T"});
  }
  return spec;
}

TEST(RunIntersectTest, PreCancelledCountedLeafReturnsCancelled) {
  auto db = MakeDatabase(ClassSpec(300));
  server::CancellationSource source;
  source.Cancel();
  ExecOptions opts;
  opts.mode = ResultMode::kCount;
  opts.cancel = source.token();
  auto plan = query::Optimize(Encode(CartesianQuery(3), db), db);
  ASSERT_TRUE(plan.ok());
  Executor exec(&db);
  auto result = exec.Execute(*plan, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(RunIntersectTest, CancelStopsACountedCartesianMidQuery) {
  // 400^5 rows: counting each leaf run still leaves 400^4 runs, far more
  // than the moments the query gets before it is cancelled.
  auto db = MakeDatabase(ClassSpec(400));
  auto plan = query::Optimize(Encode(CartesianQuery(5), db), db);
  ASSERT_TRUE(plan.ok());
  Executor exec(&db);
  server::CancellationSource source;
  ExecOptions opts;
  opts.mode = ResultMode::kCount;
  opts.cancel = source.token();
  std::thread canceller([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source.Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  auto result = exec.Execute(*plan, opts);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(RunIntersectTest, LimitKeepsThePerTuplePath) {
  // A counted leaf would overshoot any limit by the rest of its run.
  auto db = MakeDatabase(ClassSpec(300));
  auto plan = query::Optimize(Encode(CartesianQuery(2), db), db);
  ASSERT_TRUE(plan.ok());
  Executor exec(&db);
  for (ResultMode mode : {ResultMode::kCount, ResultMode::kMaterialize}) {
    ExecOptions opts;
    opts.mode = mode;
    opts.per_shard_limit = 7;
    auto r = exec.Execute(*plan, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->row_count, 7u);
    EXPECT_EQ(r->step_rows.back(), 7u);
    if (mode == ResultMode::kMaterialize) {
      EXPECT_EQ(r->rows.size(), 14u);
    }

    LimitGate gate;
    gate.limit = 11;
    opts.per_shard_limit = 0;
    opts.limit_gate = &gate;
    opts.num_threads = 4;
    auto gated = exec.Execute(*plan, opts);
    ASSERT_TRUE(gated.ok()) << gated.status().ToString();
    EXPECT_EQ(gated->row_count, 11u);
  }
}

}  // namespace
}  // namespace parj::join
