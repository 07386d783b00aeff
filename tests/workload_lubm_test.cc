#include "workload/lubm.h"

#include <set>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "engine/parj_engine.h"

namespace parj::workload {
namespace {

TEST(LubmGeneratorTest, DeterministicBySeed) {
  LubmOptions opts;
  opts.universities = 1;
  opts.seed = 5;
  GeneratedData a = GenerateLubm(opts);
  GeneratedData b = GenerateLubm(opts);
  ASSERT_EQ(a.triples.size(), b.triples.size());
  EXPECT_EQ(a.triples, b.triples);
  EXPECT_EQ(a.dict.resource_count(), b.dict.resource_count());
}

TEST(LubmGeneratorTest, DifferentSeedsDiffer) {
  LubmOptions a_opts{.universities = 1, .seed = 5};
  LubmOptions b_opts{.universities = 1, .seed = 6};
  GeneratedData a = GenerateLubm(a_opts);
  GeneratedData b = GenerateLubm(b_opts);
  EXPECT_NE(a.triples.size(), b.triples.size());
}

TEST(LubmGeneratorTest, ScaleGrowsLinearly) {
  GeneratedData one = GenerateLubm({.universities = 1, .seed = 1});
  GeneratedData three = GenerateLubm({.universities = 3, .seed = 1});
  EXPECT_GT(three.triples.size(), 2 * one.triples.size());
  EXPECT_LT(three.triples.size(), 4 * one.triples.size());
  // Roughly the original UBA volume: ~100k triples per university.
  EXPECT_GT(one.triples.size(), 50000u);
  EXPECT_LT(one.triples.size(), 200000u);
}

TEST(LubmGeneratorTest, ExactlySeventeenProperties) {
  // The paper reports 17 distinct properties for LUBM (§4.2).
  GeneratedData data = GenerateLubm({.universities = 1, .seed = 2});
  EXPECT_EQ(data.dict.predicate_count(), 17u);
}

TEST(LubmGeneratorTest, AllIdsValid) {
  GeneratedData data = GenerateLubm({.universities = 1, .seed = 3});
  for (const EncodedTriple& t : data.triples) {
    ASSERT_NE(t.subject, kInvalidTermId);
    ASSERT_LE(t.subject, data.dict.resource_count());
    ASSERT_NE(t.predicate, kInvalidPredicateId);
    ASSERT_LE(t.predicate, data.dict.predicate_count());
    ASSERT_NE(t.object, kInvalidTermId);
    ASSERT_LE(t.object, data.dict.resource_count());
  }
}

TEST(LubmGeneratorTest, OutputIsPinned) {
  // Every bench and perfbench workload loads this data, so its exact
  // triples and dictionary are fixed: FNV-1a-64 over each triple's
  // (subject, predicate, object) IDs in generation order.
  struct Pin {
    int universities;
    size_t triples, resources, predicates;
    uint64_t hash;
  };
  for (const Pin& pin : {Pin{1, 57165, 14444, 17, 0x96b8da50b18a543eull},
                         Pin{3, 223446, 55639, 17, 0xf91b6b604720c69aull}}) {
    GeneratedData data =
        GenerateLubm({.universities = pin.universities, .seed = 42});
    uint64_t h = 1469598103934665603ull;
    for (const EncodedTriple& t : data.triples) {
      for (uint64_t x : {uint64_t{t.subject}, uint64_t{t.predicate},
                         uint64_t{t.object}}) {
        h = (h ^ x) * 1099511628211ull;
      }
    }
    EXPECT_EQ(data.triples.size(), pin.triples) << pin.universities;
    EXPECT_EQ(data.dict.resource_count(), pin.resources) << pin.universities;
    EXPECT_EQ(data.dict.predicate_count(), pin.predicates) << pin.universities;
    EXPECT_EQ(h, pin.hash) << pin.universities;
  }
}

TEST(LubmGeneratorTest, QueryConstantsExist) {
  GeneratedData data = GenerateLubm({.universities = 1, .seed = 4});
  for (const char* iri :
       {"http://www.University0.edu", "http://www.Department0.University0.edu",
        "http://www.Department0.University0.edu/GraduateCourse0"}) {
    EXPECT_NE(data.dict.LookupResource(rdf::Term::Iri(iri)), kInvalidTermId)
        << iri;
  }
}

TEST(LubmGeneratorTest, TenQueriesDefined) {
  auto queries = LubmQueries();
  ASSERT_EQ(queries.size(), 10u);
  std::set<std::string> names;
  for (const auto& q : queries) names.insert(q.name);
  EXPECT_EQ(names.size(), 10u);
  EXPECT_TRUE(names.count("LUBM1"));
  EXPECT_TRUE(names.count("LUBM10"));
}

class LubmQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratedData data = GenerateLubm({.universities = 1, .seed = 42});
    auto engine = engine::ParjEngine::FromEncoded(std::move(data.dict),
                                                  std::move(data.triples));
    PARJ_CHECK(engine.ok());
    engine_ = new engine::ParjEngine(std::move(engine).value());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static engine::ParjEngine* engine_;
};

engine::ParjEngine* LubmQueryTest::engine_ = nullptr;

TEST_F(LubmQueryTest, AllQueriesParseAndExecute) {
  for (const NamedQuery& q : LubmQueries()) {
    SCOPED_TRACE(q.name);
    engine::QueryOptions opts;
    opts.mode = join::ResultMode::kCount;
    auto r = engine_->Execute(q.sparql, opts);
    ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
  }
}

TEST_F(LubmQueryTest, QueryRolesMatchThePaper) {
  // L2 (unselective) must dwarf the selective point queries L4-L6.
  uint64_t counts[11] = {};
  for (const NamedQuery& q : LubmQueries()) {
    engine::QueryOptions opts;
    opts.mode = join::ResultMode::kCount;
    auto r = engine_->Execute(q.sparql, opts);
    ASSERT_TRUE(r.ok());
    int idx = std::stoi(q.name.substr(4));
    counts[idx] = r->row_count;
  }
  EXPECT_GT(counts[2], 10000u);             // L2: every enrollment
  EXPECT_GT(counts[7], counts[4]);          // heavy chain vs point query
  EXPECT_LT(counts[4], 50u);                // L4 selective
  EXPECT_LT(counts[5], 2000u);              // L5 one department's students
  EXPECT_LT(counts[6], 200u);               // L6 one course's students
  EXPECT_GT(counts[9], 0u);                 // L9 triangle non-empty
  EXPECT_GT(counts[1], 0u);                 // L1 non-empty
  EXPECT_GT(counts[8], 0u);                 // L8 non-empty
  EXPECT_GT(counts[10], 0u);                // L10 non-empty
}

TEST_F(LubmQueryTest, ParallelAgreesWithSingleThread) {
  for (const NamedQuery& q : LubmQueries()) {
    engine::QueryOptions one;
    one.mode = join::ResultMode::kCount;
    auto r1 = engine_->Execute(q.sparql, one);
    ASSERT_TRUE(r1.ok());
    engine::QueryOptions four;
    four.mode = join::ResultMode::kCount;
    four.num_threads = 4;
    auto r4 = engine_->Execute(q.sparql, four);
    ASSERT_TRUE(r4.ok());
    EXPECT_EQ(r1->row_count, r4->row_count) << q.name;
  }
}

}  // namespace
}  // namespace parj::workload
