// Morsel-parallel vectorized aggregation (DESIGN.md §16): GROUP BY /
// COUNT / SUM / MIN / MAX through thread-local group tables that
// re-bucket into radix partitions at high cardinality, plus ORDER BY
// [LIMIT] push-down. The load-bearing property is schedule equivalence —
// every thread count and scheduling mode must produce the byte-identical
// canonical group->value map the serial run does — so the differential
// suites run the full cross product. Because the serial run executes the
// same Aggregator it checks, GROUP BY answers are also compared with a
// std::map fold over the plain SELECT rows of the same WHERE clause,
// which shares no code with Aggregator. Suite names all contain
// "Aggregate" (the TSan and fault-injection CI jobs select on it).

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "engine/parj_engine.h"
#include "join/aggregate.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "rdf/term.h"
#include "server/server.h"
#include "test_util.h"
#include "workload/lubm.h"

namespace parj {
namespace {

using engine::ParjEngine;
using engine::QueryOptions;
using engine::QueryResult;

// ---- helpers ----------------------------------------------------------

/// Engine whose `<v>` edges carry integer literals (exact in double, so
/// SUM is bit-identical regardless of accumulation order).
ParjEngine MakeNumericEngine() {
  std::vector<rdf::Triple> triples;
  auto num = [](int64_t v) { return rdf::Term::Literal(std::to_string(v)); };
  auto iri = [](const std::string& s) { return rdf::Term::Iri(s); };
  // Group "a": values 3, 5, 10; group "b": values -2, 7; group "c": 0.
  struct Row { const char* subj; int64_t value; };
  const Row rows[] = {{"a", 3}, {"a", 5}, {"a", 10},
                      {"b", -2}, {"b", 7}, {"c", 0}};
  for (const Row& r : rows) {
    triples.push_back({iri(r.subj), iri("v"), num(r.value)});
    triples.push_back({iri(r.subj), iri("t"), iri("thing")});
  }
  auto engine = ParjEngine::FromTriples(triples);
  PARJ_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

ParjEngine MakeLubmEngine(int universities = 1) {
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = universities, .seed = 42});
  auto engine = engine::ParjEngine::FromEncoded(std::move(data.dict),
                                                std::move(data.triples));
  PARJ_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

const char* kUb = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";
const char* kRdf = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";

/// Decoded aggregate table: one vector of display strings per row, in
/// result order. Comparing decoded rows also covers DecodeRow's
/// kind-aware formatting.
std::vector<std::vector<std::string>> DecodedRows(const ParjEngine& engine,
                                                  const QueryResult& r) {
  std::vector<std::vector<std::string>> rows;
  for (uint64_t i = 0; i < r.row_count; ++i) {
    rows.push_back(engine.DecodeRow(r, i));
  }
  return rows;
}

struct ScheduleRun {
  int threads;
  join::Scheduling scheduling;
};

std::vector<ScheduleRun> AllScheduleRuns() {
  std::vector<ScheduleRun> runs;
  for (int threads : {1, 2, 8}) {
    for (join::Scheduling sched :
         {join::Scheduling::kStatic, join::Scheduling::kMorsel}) {
      runs.push_back({threads, sched});
    }
  }
  return runs;
}

QueryResult MustExecute(const ParjEngine& engine, const std::string& sparql,
                        const QueryOptions& opts = {}) {
  auto result = engine.Execute(sparql, opts);
  PARJ_CHECK(result.ok()) << sparql << ": " << result.status().ToString();
  return std::move(result).value();
}

/// Serial reference: 1 thread, static shards.
QueryResult Reference(const ParjEngine& engine, const std::string& sparql) {
  QueryOptions opts;
  opts.num_threads = 1;
  opts.scheduling = join::Scheduling::kStatic;
  return MustExecute(engine, sparql, opts);
}

/// Runs `sparql` under every thread count x scheduling mode and asserts
/// the result (row count, column kinds and every u64 cell — for
/// aggregates — or the exact ordered TermId rows otherwise) is
/// byte-identical to the serial reference.
void ExpectAllSchedulesMatchReference(const ParjEngine& engine,
                                      const std::string& sparql) {
  const QueryResult ref = Reference(engine, sparql);
  for (const ScheduleRun& run : AllScheduleRuns()) {
    QueryOptions opts;
    opts.num_threads = run.threads;
    opts.scheduling = run.scheduling;
    const QueryResult got = MustExecute(engine, sparql, opts);
    const std::string label = std::to_string(run.threads) + "t/" +
                              join::SchedulingName(run.scheduling) + ": " +
                              sparql;
    EXPECT_EQ(got.row_count, ref.row_count) << label;
    EXPECT_EQ(got.column_count, ref.column_count) << label;
    EXPECT_EQ(got.column_kinds, ref.column_kinds) << label;
    EXPECT_EQ(got.agg_rows, ref.agg_rows) << label;
    EXPECT_EQ(got.rows, ref.rows) << label;
    EXPECT_EQ(got.var_names, ref.var_names) << label;
  }
}

/// One aggregate of a fold: `func` over plain-row column `col` (-1 for
/// COUNT(*)).
struct FoldAgg {
  query::AggFunc func;
  int col = -1;
};

/// A GROUP BY query without ORDER BY/LIMIT, plus its WHERE clause run as
/// a plain SELECT of every variable (one row per solution). The aggregate
/// query projects its group keys first, in `group` order, then `aggs`.
struct FoldCase {
  std::string agg;
  std::string plain;
  std::vector<int> group;  ///< plain-row columns forming the group key
  std::vector<FoldAgg> aggs;
};

/// Integer value of an N-Triples plain literal such as `"-12"`; nullopt
/// for IRIs and anything else.
std::optional<int64_t> IntegerLiteral(const std::string& nt) {
  if (nt.size() < 3 || nt.front() != '"' || nt.back() != '"') {
    return std::nullopt;
  }
  int64_t v = 0;
  const char* last = nt.data() + nt.size() - 1;
  const auto [ptr, ec] = std::from_chars(nt.data() + 1, last, v);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return v;
}

/// Reference for `c.agg` that shares no code with join::Aggregator: folds
/// the decoded rows of `c.plain` in a std::map keyed by the group columns
/// and formats each group the way DecodeRow formats an aggregate row.
/// Returns the rows sorted.
std::vector<std::vector<std::string>> FoldReference(const ParjEngine& engine,
                                                    const FoldCase& c) {
  struct Acc {
    uint64_t count = 0;
    int64_t sum = 0;
    std::optional<int64_t> min, max;
  };
  std::map<std::vector<std::string>, std::vector<Acc>> groups;
  const QueryResult plain = MustExecute(engine, c.plain);
  for (uint64_t i = 0; i < plain.row_count; ++i) {
    const std::vector<std::string> row = engine.DecodeRow(plain, i);
    std::vector<std::string> key;
    for (int col : c.group) key.push_back(row[col]);
    std::vector<Acc>& accs =
        groups.try_emplace(std::move(key), c.aggs.size()).first->second;
    for (size_t a = 0; a < c.aggs.size(); ++a) {
      ++accs[a].count;
      if (c.aggs[a].col < 0) continue;
      const std::optional<int64_t> v = IntegerLiteral(row[c.aggs[a].col]);
      if (!v.has_value()) continue;
      accs[a].sum += *v;
      accs[a].min = std::min(accs[a].min.value_or(*v), *v);
      accs[a].max = std::max(accs[a].max.value_or(*v), *v);
    }
  }
  // A global aggregate is one row even over an empty match.
  if (c.group.empty() && groups.empty()) groups[{}].resize(c.aggs.size());
  const auto opt = [](const std::optional<int64_t>& v) {
    return v.has_value() ? std::to_string(*v) : std::string();
  };
  std::vector<std::vector<std::string>> out;
  for (const auto& [key, accs] : groups) {
    std::vector<std::string> row = key;
    for (size_t a = 0; a < c.aggs.size(); ++a) {
      switch (c.aggs[a].func) {
        case query::AggFunc::kCount:
        case query::AggFunc::kCountStar:
          row.push_back(std::to_string(accs[a].count));
          break;
        case query::AggFunc::kSum:
          row.push_back(std::to_string(accs[a].sum));
          break;
        case query::AggFunc::kMin:
          row.push_back(opt(accs[a].min));
          break;
        case query::AggFunc::kMax:
          row.push_back(opt(accs[a].max));
          break;
      }
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Asserts `c.agg`'s answer equals the std::map fold over `c.plain`.
void ExpectMatchesFold(const ParjEngine& engine, const FoldCase& c) {
  std::vector<std::vector<std::string>> got =
      DecodedRows(engine, Reference(engine, c.agg));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, FoldReference(engine, c)) << c.agg;
}

// ---- parser -----------------------------------------------------------

TEST(AggregateParserTest, ParsesAggregatesGroupByOrderBy) {
  auto ast = query::ParseQuery(
      "SELECT ?g (COUNT(*) AS ?n) (SUM(?v) AS ?s) WHERE { ?g <p> ?v } "
      "GROUP BY ?g ORDER BY DESC(?n) ?g LIMIT 7");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  EXPECT_EQ(ast->projection, std::vector<std::string>{"g"});
  ASSERT_EQ(ast->aggregates.size(), 2u);
  EXPECT_EQ(ast->aggregates[0].func, query::AggFunc::kCountStar);
  EXPECT_EQ(ast->aggregates[0].alias, "n");
  EXPECT_EQ(ast->aggregates[1].func, query::AggFunc::kSum);
  EXPECT_EQ(ast->aggregates[1].arg, "v");
  EXPECT_EQ(ast->aggregates[1].alias, "s");
  EXPECT_EQ(ast->group_by, std::vector<std::string>{"g"});
  ASSERT_EQ(ast->order_by.size(), 2u);
  EXPECT_EQ(ast->order_by[0].var, "n");
  EXPECT_TRUE(ast->order_by[0].descending);
  EXPECT_EQ(ast->order_by[1].var, "g");
  EXPECT_FALSE(ast->order_by[1].descending);
  EXPECT_EQ(ast->limit, 7u);
}

TEST(AggregateParserTest, ParsesCountMinMaxOfVariable) {
  auto ast = query::ParseQuery(
      "SELECT (COUNT(?x) AS ?c) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) "
      "WHERE { ?x <p> ?v }");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  ASSERT_EQ(ast->aggregates.size(), 3u);
  EXPECT_EQ(ast->aggregates[0].func, query::AggFunc::kCount);
  EXPECT_EQ(ast->aggregates[0].arg, "x");
  EXPECT_EQ(ast->aggregates[1].func, query::AggFunc::kMin);
  EXPECT_EQ(ast->aggregates[2].func, query::AggFunc::kMax);
  EXPECT_TRUE(ast->group_by.empty());
}

TEST(AggregateParserTest, RejectsUnsupportedShapes) {
  // DISTINCT + aggregates.
  EXPECT_FALSE(query::ParseQuery(
                   "SELECT DISTINCT (COUNT(*) AS ?n) WHERE { ?x <p> ?y }")
                   .ok());
  // UNION + aggregates / GROUP BY / ORDER BY.
  EXPECT_FALSE(query::ParseQuery(
                   "SELECT (COUNT(*) AS ?n) WHERE { { ?x <p> ?y } UNION "
                   "{ ?x <q> ?y } }")
                   .ok());
  EXPECT_FALSE(query::ParseQuery(
                   "SELECT ?x WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } } "
                   "ORDER BY ?x")
                   .ok());
  // Encode-time rejections: projected variable outside GROUP BY, and a
  // duplicate result-column name.
  const storage::Database db = test::MakeDatabase({{"a", "p", "b"}});
  auto encode = [&db](const std::string& q) {
    auto ast = query::ParseQuery(q);
    PARJ_CHECK(ast.ok()) << ast.status().ToString();
    return query::EncodeQuery(*ast, db);
  };
  EXPECT_FALSE(
      encode("SELECT ?x (COUNT(*) AS ?n) WHERE { ?x <p> ?y }").ok());
  EXPECT_FALSE(encode("SELECT (COUNT(*) AS ?n) (SUM(?y) AS ?n) "
                      "WHERE { ?x <p> ?y }")
                   .ok());
}

// ---- shape key (plan-cache satellite) ---------------------------------

TEST(AggregateShapeKeyTest, AggregateShapeDiffersFromPlainBgp) {
  auto plain = query::ParseQuery("SELECT ?t WHERE { ?x <type> ?t }");
  auto agg = query::ParseQuery(
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x <type> ?t } GROUP BY ?t");
  ASSERT_TRUE(plain.ok() && agg.ok());
  const query::NormalizedQuery np = query::NormalizeQuery(*plain);
  const query::NormalizedQuery na = query::NormalizeQuery(*agg);
  ASSERT_TRUE(np.eligible);
  ASSERT_TRUE(na.eligible);
  EXPECT_NE(np.shape_key, na.shape_key);

  // ORDER BY direction and keys are part of the shape too.
  auto asc = query::ParseQuery(
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x <type> ?t } GROUP BY ?t "
      "ORDER BY ?n");
  auto desc = query::ParseQuery(
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x <type> ?t } GROUP BY ?t "
      "ORDER BY DESC(?n)");
  ASSERT_TRUE(asc.ok() && desc.ok());
  EXPECT_NE(query::NormalizeQuery(*asc).shape_key,
            query::NormalizeQuery(*desc).shape_key);
  EXPECT_NE(query::NormalizeQuery(*asc).shape_key, na.shape_key);
}

TEST(AggregateShapeKeyTest, SumMinMaxShapesAreIneligible) {
  // SUM/MIN/MAX plans carry the epoch-bound numeric table and must never
  // enter the shape cache; COUNT shapes stay eligible.
  for (const char* func : {"SUM", "MIN", "MAX"}) {
    auto ast = query::ParseQuery(std::string("SELECT (") + func +
                                 "(?v) AS ?s) WHERE { ?x <p> ?v }");
    ASSERT_TRUE(ast.ok()) << func;
    EXPECT_FALSE(query::NormalizeQuery(*ast).eligible) << func;
  }
  auto count = query::ParseQuery(
      "SELECT (COUNT(?v) AS ?c) WHERE { ?x <p> ?v }");
  ASSERT_TRUE(count.ok());
  EXPECT_TRUE(query::NormalizeQuery(*count).eligible);
}

// ---- basic semantics --------------------------------------------------

TEST(AggregateBasicTest, CountStarGlobal) {
  ParjEngine engine = MakeNumericEngine();
  QueryResult r = MustExecute(engine,
                              "SELECT (COUNT(*) AS ?n) WHERE { ?x <v> ?y }");
  ASSERT_EQ(r.row_count, 1u);
  ASSERT_EQ(r.column_count, 1u);
  ASSERT_EQ(r.column_kinds,
            std::vector<query::ColumnKind>{query::ColumnKind::kCount});
  EXPECT_EQ(r.agg_rows, std::vector<uint64_t>{6});
  EXPECT_EQ(r.var_names, std::vector<std::string>{"n"});
  EXPECT_EQ(engine.DecodeRow(r, 0), std::vector<std::string>{"6"});
}

TEST(AggregateBasicTest, GroupedCountsMatchHandComputedMap) {
  ParjEngine engine = MakeLubmEngine();
  const std::string where =
      " WHERE { ?x ub:advisor ?y . ?y rdf:type ?t }";
  // Hand-rolled reference from the plain materialized query.
  QueryResult plain = MustExecute(
      engine, std::string(kUb) + kRdf + "SELECT ?t ?x" + where);
  std::map<TermId, uint64_t> expected;
  for (uint64_t i = 0; i < plain.row_count; ++i) {
    ++expected[plain.rows[i * 2]];
  }
  QueryResult agg = MustExecute(
      engine, std::string(kUb) + kRdf +
                  "SELECT ?t (COUNT(*) AS ?n)" + where + " GROUP BY ?t");
  ASSERT_EQ(agg.row_count, expected.size());
  std::map<TermId, uint64_t> got;
  TermId prev_key = 0;
  for (uint64_t i = 0; i < agg.row_count; ++i) {
    const TermId key = static_cast<TermId>(agg.agg_rows[i * 2]);
    EXPECT_GT(key, prev_key) << "canonical output must be key-sorted";
    prev_key = key;
    got[key] = agg.agg_rows[i * 2 + 1];
  }
  EXPECT_EQ(got, expected);
}

TEST(AggregateBasicTest, SumMinMaxOverIntegerLiterals) {
  ParjEngine engine = MakeNumericEngine();
  QueryResult r = MustExecute(
      engine,
      "SELECT ?g (SUM(?v) AS ?s) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) "
      "(COUNT(?v) AS ?c) WHERE { ?g <v> ?v } GROUP BY ?g ORDER BY ?g");
  ASSERT_EQ(r.row_count, 3u);
  ASSERT_EQ(r.column_count, 5u);
  const auto rows = DecodedRows(engine, r);
  // Group IRIs a/b/c were interned in insertion order, so ORDER BY ?g
  // (TermId order) yields a, b, c.
  EXPECT_EQ(rows[0], (std::vector<std::string>{"<a>", "18", "3", "10", "3"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"<b>", "5", "-2", "7", "2"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"<c>", "0", "0", "0", "1"}));
}

TEST(AggregateBasicTest, SumOverNonNumericTermsIsUnbound) {
  ParjEngine engine = MakeNumericEngine();
  // ?y binds IRIs (<thing>), which have no numeric value: SUM stays 0.0,
  // MIN/MAX stay unbound (empty string on decode).
  QueryResult r = MustExecute(
      engine, "SELECT (SUM(?y) AS ?s) (MIN(?y) AS ?lo) WHERE { ?x <t> ?y }");
  ASSERT_EQ(r.row_count, 1u);
  EXPECT_EQ(engine.DecodeRow(r, 0), (std::vector<std::string>{"0", ""}));
  EXPECT_TRUE(std::isnan(std::bit_cast<double>(r.agg_rows[1])));
}

TEST(AggregateBasicTest, GlobalAggregateOverEmptyMatchIsOneZeroRow) {
  ParjEngine engine = MakeNumericEngine();
  // Known predicate, empty match.
  QueryResult r = MustExecute(
      engine,
      "SELECT (COUNT(*) AS ?n) WHERE { ?x <v> ?y . ?y <v> ?z }");
  ASSERT_EQ(r.row_count, 1u);
  EXPECT_EQ(r.agg_rows, std::vector<uint64_t>{0});
  // Unknown constant → known_empty plan; same answer.
  QueryResult ke = MustExecute(
      engine, "SELECT (COUNT(*) AS ?n) WHERE { <nosuch> <v> ?y }");
  ASSERT_EQ(ke.row_count, 1u);
  EXPECT_EQ(ke.agg_rows, std::vector<uint64_t>{0});
  // Grouped aggregate over an empty match is zero rows, not one.
  QueryResult grouped = MustExecute(
      engine,
      "SELECT ?x (COUNT(*) AS ?n) WHERE { <nosuch> <v> ?x } GROUP BY ?x");
  EXPECT_EQ(grouped.row_count, 0u);
}

TEST(AggregateBasicTest, GroupByWithoutAggregatesIsDistinctGroups) {
  ParjEngine engine = MakeNumericEngine();
  QueryResult r = MustExecute(engine,
                              "SELECT ?g WHERE { ?g <v> ?v } GROUP BY ?g");
  EXPECT_EQ(r.row_count, 3u);
  ASSERT_EQ(r.column_kinds,
            std::vector<query::ColumnKind>{query::ColumnKind::kTerm});
  // DISTINCT on top is legal and a no-op (group keys are already unique).
  QueryResult d = MustExecute(
      engine, "SELECT DISTINCT ?g WHERE { ?g <v> ?v } GROUP BY ?g");
  EXPECT_EQ(d.agg_rows, r.agg_rows);
}

// ---- differential equivalence (the hard gate) --------------------------

TEST(AggregateEquivalenceTest, LubmQueriesAcrossAllStrategies) {
  ParjEngine engine = MakeLubmEngine();
  const std::string prefixes = std::string(kUb) + kRdf;
  const FoldAgg count_star{query::AggFunc::kCountStar};
  const std::vector<FoldCase> grouped = {
      // Low cardinality (few dozen type groups).
      {prefixes + "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x rdf:type ?t } "
                  "GROUP BY ?t",
       prefixes + "SELECT ?t ?x WHERE { ?x rdf:type ?t }", {0},
       {count_star}},
      // High cardinality (one group per subject; past
      // kAggAdaptiveThreshold, so workers re-bucket into partitions).
      {prefixes + "SELECT ?x (COUNT(*) AS ?n) WHERE { ?x ub:takesCourse ?c } "
                  "GROUP BY ?x",
       prefixes + "SELECT ?x ?c WHERE { ?x ub:takesCourse ?c }", {0},
       {count_star}},
      // Two-column group key.
      {prefixes + "SELECT ?t ?d (COUNT(?x) AS ?n) WHERE { ?x rdf:type ?t . "
                  "?x ub:worksFor ?d } GROUP BY ?t ?d",
       prefixes + "SELECT ?t ?d ?x WHERE { ?x rdf:type ?t . "
                  "?x ub:worksFor ?d }",
       {0, 1}, {{query::AggFunc::kCount, 2}}},
      // Join feeding a global aggregate.
      {prefixes + "SELECT (COUNT(*) AS ?n) WHERE { ?x ub:advisor ?y . "
                  "?y ub:worksFor ?d }",
       prefixes + "SELECT ?x ?y ?d WHERE { ?x ub:advisor ?y . "
                  "?y ub:worksFor ?d }",
       {}, {count_star}},
  };
  for (const FoldCase& c : grouped) {
    ExpectAllSchedulesMatchReference(engine, c.agg);
    ExpectMatchesFold(engine, c);
  }
  // Aggregate + ORDER BY + LIMIT.
  ExpectAllSchedulesMatchReference(
      engine, prefixes + "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x rdf:type ?t } "
                         "GROUP BY ?t ORDER BY DESC(?n) ?t LIMIT 5");
}

TEST(AggregateEquivalenceTest, RandomGraphsRandomQueriesDifferentialFuzz) {
  Rng rng(0x5eed);
  for (int round = 0; round < 6; ++round) {
    // Random graph: IRIs n0..n39 linked by p0/p1, each node carrying an
    // integer literal on <val> (integers keep double sums exact, so every
    // accumulation order produces identical bits).
    std::vector<rdf::Triple> triples;
    const int nodes = 20 + static_cast<int>(rng.Uniform(20));
    const int edges = 50 + static_cast<int>(rng.Uniform(150));
    auto node = [](uint64_t i) {
      return rdf::Term::Iri("n" + std::to_string(i));
    };
    for (int i = 0; i < nodes; ++i) {
      triples.push_back(
          {node(i), rdf::Term::Iri("val"),
           rdf::Term::Literal(std::to_string(
               static_cast<int64_t>(rng.Uniform(2001)) - 1000))});
    }
    for (int e = 0; e < edges; ++e) {
      triples.push_back({node(rng.Uniform(nodes)),
                         rdf::Term::Iri(rng.Uniform(2) == 0 ? "p0" : "p1"),
                         node(rng.Uniform(nodes))});
    }
    auto built = ParjEngine::FromTriples(triples);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ParjEngine engine = std::move(built).value();

    const std::vector<FoldCase> grouped = {
        {"SELECT ?a (COUNT(*) AS ?n) WHERE { ?a <p0> ?b } GROUP BY ?a",
         "SELECT ?a ?b WHERE { ?a <p0> ?b }", {0},
         {{query::AggFunc::kCountStar}}},
        {"SELECT ?b (COUNT(?a) AS ?n) (SUM(?v) AS ?s) WHERE "
         "{ ?a <p0> ?b . ?a <val> ?v } GROUP BY ?b",
         "SELECT ?b ?a ?v WHERE { ?a <p0> ?b . ?a <val> ?v }", {0},
         {{query::AggFunc::kCount, 1}, {query::AggFunc::kSum, 2}}},
        {"SELECT ?a ?c (COUNT(*) AS ?n) WHERE { ?a <p0> ?b . ?b <p1> ?c } "
         "GROUP BY ?a ?c",
         "SELECT ?a ?c ?b WHERE { ?a <p0> ?b . ?b <p1> ?c }", {0, 1},
         {{query::AggFunc::kCountStar}}},
        {"SELECT (SUM(?v) AS ?s) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE "
         "{ ?a <p1> ?b . ?b <val> ?v }",
         "SELECT ?v ?a ?b WHERE { ?a <p1> ?b . ?b <val> ?v }", {},
         {{query::AggFunc::kSum, 0},
          {query::AggFunc::kMin, 0},
          {query::AggFunc::kMax, 0}}},
    };
    for (const FoldCase& c : grouped) {
      ExpectAllSchedulesMatchReference(engine, c.agg);
      ExpectMatchesFold(engine, c);
    }
    for (const char* q :
         {"SELECT ?a (SUM(?v) AS ?s) WHERE { ?a <p1> ?b . ?b <val> ?v } "
          "GROUP BY ?a ORDER BY DESC(?s) ?a LIMIT 4",
          "SELECT ?a ?v WHERE { ?a <val> ?v } ORDER BY DESC(?v) ?a LIMIT 6"}) {
      ExpectAllSchedulesMatchReference(engine, q);
    }
  }
}

// ---- Aggregator merge paths ---------------------------------------------

TEST(AggregateMergeTest, StragglerMergesIntoConvertedWorkersPartitions) {
  // Rows are [key, value]; value TermId v carries the number
  // numeric[v] = v - 100 (so some are negative), and TermIds past the
  // table are non-numeric. COUNT(?value) counts every row, SUM/MIN/MAX
  // only numeric ones.
  query::AggregateSpec spec;
  spec.enabled = true;
  spec.group_cols = 1;
  spec.aggs = {{query::AggFunc::kCount, 1},
               {query::AggFunc::kSum, 1},
               {query::AggFunc::kMin, 1},
               {query::AggFunc::kMax, 1}};
  std::vector<double> numeric(300);
  for (size_t v = 0; v < numeric.size(); ++v) {
    numeric[v] = static_cast<double>(v) - 100.0;
  }
  const TermId non_numeric = static_cast<TermId>(numeric.size() + 7);

  struct Expected {
    uint64_t count = 0;
    int64_t sum = 0;
    std::optional<int64_t> min, max;
  };
  std::map<TermId, Expected> expected;
  join::Aggregator agg(&spec, &numeric, /*num_workers=*/3);
  const auto add = [&](size_t worker, TermId key, TermId value) {
    const TermId row[2] = {key, value};
    agg.Accumulate(worker, row);
    Expected& e = expected[key];
    ++e.count;
    if (value >= numeric.size()) return;
    const int64_t v = static_cast<int64_t>(numeric[value]);
    e.sum += v;
    e.min = std::min(e.min.value_or(v), v);
    e.max = std::max(e.max.value_or(v), v);
  };
  // Worker 0 crosses the threshold and re-buckets into partitions.
  const size_t keys0 = join::kAggAdaptiveThreshold + 500;
  for (size_t k = 0; k < keys0; ++k) {
    const TermId key = static_cast<TermId>(k + 1);
    add(0, key, static_cast<TermId>(k % 300));
    if (k % 3 == 0) add(0, key, static_cast<TermId>((k * 7) % 300));
  }
  // Worker 1 holds 50 of worker 0's keys and stays thread-local, so Finish
  // has to convert it before the per-partition merge. Worker 2 sees no
  // rows.
  for (size_t i = 0; i < 50; ++i) {
    const TermId key = static_cast<TermId>(1 + (i * 97) % keys0);
    add(1, key, static_cast<TermId>((i * 13) % 300));
    add(1, key, i % 5 == 0 ? non_numeric : static_cast<TermId>(299 - i));
  }

  auto out = agg.Finish(nullptr);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->width, 5u);
  ASSERT_EQ(out->rows, expected.size());
  auto it = expected.begin();
  for (size_t r = 0; r < out->rows; ++r, ++it) {
    const uint64_t* cells = out->cells.data() + r * out->width;
    ASSERT_EQ(cells[0], it->first) << "row " << r;
    const Expected& e = it->second;
    EXPECT_EQ(cells[1], e.count) << "key " << it->first;
    EXPECT_EQ(std::bit_cast<double>(cells[2]), static_cast<double>(e.sum))
        << "key " << it->first;
    ASSERT_TRUE(e.min.has_value() && e.max.has_value());
    EXPECT_EQ(std::bit_cast<double>(cells[3]), static_cast<double>(*e.min))
        << "key " << it->first;
    EXPECT_EQ(std::bit_cast<double>(cells[4]), static_cast<double>(*e.max))
        << "key " << it->first;
  }
}

// ---- ORDER BY / LIMIT push-down ---------------------------------------

TEST(AggregateOrderLimitTest, TopKMatchesSortTrimReference) {
  ParjEngine engine = MakeLubmEngine();
  const std::string base = std::string(kUb) +
      "SELECT ?x ?e WHERE { ?x ub:emailAddress ?e } ORDER BY DESC(?x) ?e";
  const QueryResult all = Reference(engine, base);
  ASSERT_GT(all.row_count, 40u);
  for (uint64_t k : {1u, 7u, 40u}) {
    const std::string limited = base + " LIMIT " + std::to_string(k);
    for (int threads : {1, 4}) {
      QueryOptions opts;
      opts.num_threads = threads;
      QueryResult got = MustExecute(engine, limited, opts);
      ASSERT_EQ(got.row_count, k);
      // Top-k must equal the first k rows of the full sorted answer.
      const std::vector<TermId> expected(
          all.rows.begin(),
          all.rows.begin() +
              static_cast<ptrdiff_t>(k * all.column_count));
      EXPECT_EQ(got.rows, expected) << "k=" << k << " threads=" << threads;
    }
  }
}

TEST(AggregateOrderLimitTest, OrderByWithoutLimitSortsEverything) {
  ParjEngine engine = MakeNumericEngine();
  QueryResult r = MustExecute(
      engine, "SELECT ?g ?v WHERE { ?g <v> ?v } ORDER BY ?g DESC(?v)");
  ASSERT_EQ(r.row_count, 6u);
  const auto rows = DecodedRows(engine, r);
  EXPECT_EQ(rows[0][0], "<a>");
  EXPECT_EQ(rows[2][0], "<a>");
  EXPECT_EQ(rows[3][0], "<b>");
  EXPECT_EQ(rows[5][0], "<c>");
}

TEST(AggregateOrderLimitTest, LimitGateStopsShardsEarly) {
  ParjEngine engine = MakeLubmEngine();
  // Plain LIMIT (no ORDER/aggregate): the cross-shard gate must stop all
  // shards once k rows exist. Under emulate_parallel the shards run
  // sequentially, so after the first non-empty shard saturates the gate
  // every later shard's first emission is rejected — deterministic skips.
  const std::string q = std::string(kUb) +
      "SELECT ?x ?c WHERE { ?x ub:takesCourse ?c } LIMIT 5";
  QueryOptions opts;
  opts.num_threads = 4;
  opts.scheduling = join::Scheduling::kStatic;
  opts.emulate_parallel = true;
  QueryResult r = MustExecute(engine, q, opts);
  EXPECT_EQ(r.row_count, 5u);
  EXPECT_GT(r.rows_skipped_by_limit, 0u);

  // Real threads: still exactly k rows, and each returned row is a row of
  // the full answer.
  opts.emulate_parallel = false;
  QueryResult real = MustExecute(engine, q, opts);
  EXPECT_EQ(real.row_count, 5u);
  const QueryResult full = Reference(
      engine,
      std::string(kUb) + "SELECT ?x ?c WHERE { ?x ub:takesCourse ?c }");
  const auto universe = test::ToSortedRows(full.rows, 2);
  const auto picked = test::ToSortedRows(real.rows, 2);
  for (const auto& row : picked) {
    EXPECT_TRUE(std::binary_search(universe.begin(), universe.end(), row));
  }
}

// ---- serving-layer integration (cache satellites) ----------------------

TEST(AggregateServingTest, PlanCacheNeverServesBgpPlanForAggregateForm) {
  ParjEngine engine = MakeLubmEngine();
  server::ServerOptions options;
  options.result_cache_bytes = 0;  // isolate the plan cache
  const std::string where = " WHERE { ?x rdf:type ?t }";
  const std::string plain =
      std::string(kRdf) + "SELECT ?t" + where;
  const std::string agg = std::string(kRdf) +
      "SELECT ?t (COUNT(*) AS ?n)" + where + " GROUP BY ?t";
  const QueryResult agg_ref = Reference(engine, agg);
  const QueryResult plain_ref = Reference(engine, plain);

  // Both submission orders: the shape key must keep the forms apart.
  for (const bool plain_first : {true, false}) {
    server::QueryServer server(&engine, options);
    auto run = [&](const std::string& q) {
      auto r = server.Execute(q);
      PARJ_CHECK(r.ok()) << r.status().ToString();
      return std::move(r).value();
    };
    if (plain_first) run(plain); else run(agg);
    const QueryResult got_agg = run(agg);
    const QueryResult got_plain = run(plain);
    EXPECT_EQ(got_agg.agg_rows, agg_ref.agg_rows);
    EXPECT_EQ(got_agg.column_kinds, agg_ref.column_kinds);
    EXPECT_EQ(got_agg.row_count, agg_ref.row_count);
    EXPECT_TRUE(got_plain.column_kinds.empty());
    EXPECT_EQ(test::ToSortedRows(got_plain.rows, got_plain.column_count),
              test::ToSortedRows(plain_ref.rows, plain_ref.column_count));
    // The aggregate text repeats → its own bound plan replays, still with
    // the aggregate answer.
    const QueryResult replay = run(agg);
    EXPECT_TRUE(replay.plan_cached);
    EXPECT_EQ(replay.agg_rows, agg_ref.agg_rows);
  }
}

TEST(AggregateServingTest, ResultCacheReplaysAndInvalidatesAggregates) {
  ParjEngine engine = MakeLubmEngine();
  server::QueryServer server(&engine, {});
  const std::string agg = std::string(kRdf) +
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x rdf:type ?t } GROUP BY ?t";
  auto first = server.Execute(agg);
  ASSERT_TRUE(first.ok());
  auto second = server.Execute(agg);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->result_cached);
  EXPECT_EQ(second->agg_rows, first->agg_rows);
  EXPECT_EQ(second->column_kinds, first->column_kinds);
  EXPECT_EQ(second->row_count, first->row_count);
  EXPECT_EQ(second->var_names, first->var_names);

  // A mutation bumps data_version: the cached aggregate must not be
  // served stale, and the fresh answer reflects the new triple.
  ASSERT_TRUE(engine
                  .Insert({rdf::Term::Iri("http://x/new"),
                           rdf::Term::Iri(
                               "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
                           rdf::Term::Iri("http://x/NewType")})
                  .ok());
  auto third = server.Execute(agg);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->result_cached);
  EXPECT_EQ(third->row_count, first->row_count + 1);
}

// ---- fault containment -------------------------------------------------

TEST(AggregateFaultTest, MergeFailpointFailsOnlyTheAggregateQuery) {
  ParjEngine engine = MakeLubmEngine();
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("agg.merge", "error:1").ok());
  const std::string agg = std::string(kRdf) +
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x rdf:type ?t } GROUP BY ?t";
  auto broken = engine.Execute(agg);
  ASSERT_FALSE(broken.ok());
  EXPECT_NE(broken.status().ToString().find("agg.merge"), std::string::npos);
  // The budget (`:1`) is spent: the same query succeeds afterwards, and a
  // plain query was never affected.
  auto plain = engine.Execute(std::string(kRdf) +
                              "SELECT ?t WHERE { ?x rdf:type ?t }");
  EXPECT_TRUE(plain.ok());
  auto retried = engine.Execute(agg);
  EXPECT_TRUE(retried.ok());
  failpoint::DisarmAll();
}

TEST(AggregateFaultTest, ServerContainsMergeFault) {
  ParjEngine engine = MakeLubmEngine();
  server::QueryServer server(&engine, {});
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("agg.merge", "error:1").ok());
  const std::string agg = std::string(kRdf) +
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x rdf:type ?t } GROUP BY ?t";
  auto broken = server.Execute(agg);
  EXPECT_FALSE(broken.ok());
  // The server keeps serving: the next query (same text) succeeds.
  auto after = server.Execute(agg);
  EXPECT_TRUE(after.ok());
  failpoint::DisarmAll();
}

}  // namespace
}  // namespace parj
