#include "workload/watdiv.h"

#include <string>

#include "common/rng.h"
#include "rdf/vocab.h"

namespace parj::workload {

namespace {

constexpr char kWsdbm[] = "http://db.uwaterloo.ca/~galuc/wsdbm/";
constexpr char kSorg[] = "http://schema.org/";
constexpr char kRev[] = "http://purl.org/stuff/rev#";
constexpr char kGr[] = "http://purl.org/goodrelations/";
constexpr char kFoaf[] = "http://xmlns.com/foaf/";
constexpr char kRdfs[] = "http://www.w3.org/2000/01/rdf-schema#";

class WatdivBuilder {
 public:
  explicit WatdivBuilder(uint64_t seed) : rng_(seed) {}

  GeneratedData Generate(int scale) {
    const size_t users = 1000 * static_cast<size_t>(scale);
    const size_t products = 250 * static_cast<size_t>(scale);
    const size_t reviews = 1250 * static_cast<size_t>(scale);
    const size_t purchases = 2500 * static_cast<size_t>(scale);
    const size_t offers = 900 * static_cast<size_t>(scale);
    const size_t retailers = 5 * static_cast<size_t>(scale);
    const size_t websites = 50 * static_cast<size_t>(scale);
    const size_t genres = 24;
    const size_t countries = 25;
    const size_t languages = 12;
    const size_t age_groups = 9;

    InternPredicates();

    auto ids = [&](const char* ns, const char* name, size_t count) {
      std::vector<TermId> out;
      out.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        out.push_back(Iri(std::string(ns) + name + std::to_string(i)));
      }
      return out;
    };
    user_ids_ = ids(kWsdbm, "User", users);
    product_ids_ = ids(kWsdbm, "Product", products);
    review_ids_ = ids(kWsdbm, "Review", reviews);
    purchase_ids_ = ids(kWsdbm, "Purchase", purchases);
    offer_ids_ = ids(kWsdbm, "Offer", offers);
    retailer_ids_ = ids(kWsdbm, "Retailer", retailers);
    website_ids_ = ids(kWsdbm, "Website", websites);
    genre_ids_ = ids(kWsdbm, "Genre", genres);
    country_ids_ = ids(kWsdbm, "Country", countries);
    language_ids_ = ids(kWsdbm, "Language", languages);
    age_group_ids_ = ids(kWsdbm, "AgeGroup", age_groups);

    const TermId class_user = Iri(std::string(kWsdbm) + "User");
    const TermId class_product = Iri(std::string(kWsdbm) + "Product");
    const TermId class_review = Iri(std::string(kWsdbm) + "Review");
    const TermId class_purchase = Iri(std::string(kWsdbm) + "Purchase");
    const TermId class_offer = Iri(std::string(kWsdbm) + "Offer");
    const TermId class_retailer = Iri(std::string(kWsdbm) + "Retailer");
    const TermId class_website = Iri(std::string(kWsdbm) + "Website");
    std::vector<TermId> product_categories;
    for (int c = 0; c < 10; ++c) {
      product_categories.push_back(
          Iri(std::string(kWsdbm) + "ProductCategory" + std::to_string(c)));
    }
    const TermId lit_male = Literal("male");
    const TermId lit_female = Literal("female");

    // ---- Users: demographics + Zipf-skewed social edges.
    for (size_t u = 0; u < users; ++u) {
      const TermId user = user_ids_[u];
      Emit(user, type_, class_user);
      Emit(user, nationality_, country_ids_[rng_.Zipf(countries, 0.7)]);
      if (rng_.Chance(0.7)) {
        Emit(user, gender_, rng_.Chance(0.5) ? lit_male : lit_female);
      }
      if (rng_.Chance(0.6)) {
        Emit(user, age_, age_group_ids_[rng_.Uniform(age_groups)]);
      }
      const size_t follows = rng_.UniformRange(2, 6);
      for (size_t i = 0; i < follows; ++i) {
        Emit(user, follows_, user_ids_[rng_.Zipf(users, 0.9)]);
      }
      const size_t friends = rng_.UniformRange(3, 9);
      for (size_t i = 0; i < friends; ++i) {
        Emit(user, friend_of_, user_ids_[rng_.Zipf(users, 0.6)]);
      }
      const size_t likes = rng_.UniformRange(1, 4);
      for (size_t i = 0; i < likes; ++i) {
        Emit(user, likes_, product_ids_[rng_.Zipf(products, 0.5)]);
      }
      if (rng_.Chance(0.8)) {
        Emit(user, subscribes_, website_ids_[rng_.Zipf(websites, 0.8)]);
      }
    }

    // ---- Products.
    for (size_t p = 0; p < products; ++p) {
      const TermId product = product_ids_[p];
      Emit(product, type_, class_product);
      Emit(product, type_, product_categories[rng_.Uniform(10)]);
      Emit(product, caption_, Literal("caption" + std::to_string(p)));
      if (rng_.Chance(0.8)) {
        Emit(product, label_, Literal("label" + std::to_string(p)));
      }
      if (rng_.Chance(0.4)) {
        Emit(product, content_rating_,
             Literal("rating" + std::to_string(rng_.Uniform(5))));
      }
      const size_t product_genres = rng_.UniformRange(1, 3);
      for (size_t g = 0; g < product_genres; ++g) {
        Emit(product, has_genre_, genre_ids_[rng_.Zipf(genres, 0.5)]);
      }
    }

    // ---- Reviews: product (Zipf) -> review -> reviewer (Zipf).
    for (size_t r = 0; r < reviews; ++r) {
      const TermId review = review_ids_[r];
      Emit(review, type_, class_review);
      Emit(product_ids_[rng_.Uniform(products)], has_review_, review);
      Emit(review, reviewer_, user_ids_[rng_.Zipf(users, 0.8)]);
      Emit(review, rating_, IntegerLiteral(1 + rng_.Uniform(10)));
      Emit(review, total_votes_, IntegerLiteral(rng_.Uniform(500)));
    }

    // ---- Purchases.
    for (size_t p = 0; p < purchases; ++p) {
      const TermId purchase = purchase_ids_[p];
      Emit(purchase, type_, class_purchase);
      Emit(user_ids_[rng_.Zipf(users, 0.7)], makes_purchase_, purchase);
      Emit(purchase, purchase_for_, product_ids_[rng_.Zipf(products, 0.5)]);
      Emit(purchase, purchase_date_,
           Literal("2019-03-" + std::to_string(1 + rng_.Uniform(28))));
    }

    // ---- Offers: retailer (round-robin) -> offer -> product (Zipf).
    for (size_t o = 0; o < offers; ++o) {
      const TermId offer = offer_ids_[o];
      Emit(offer, type_, class_offer);
      Emit(retailer_ids_[o % retailers], offers_, offer);
      Emit(offer, includes_, product_ids_[rng_.Zipf(products, 0.5)]);
      Emit(offer, price_, IntegerLiteral(1 + rng_.Uniform(2000)));
      Emit(offer, valid_through_,
           Literal("2020-0" + std::to_string(1 + rng_.Uniform(9))));
      Emit(offer, serial_number_, IntegerLiteral(100000 + o));
    }

    for (size_t r = 0; r < retailers; ++r) {
      Emit(retailer_ids_[r], type_, class_retailer);
    }
    for (size_t w = 0; w < websites; ++w) {
      Emit(website_ids_[w], type_, class_website);
      Emit(website_ids_[w], language_, language_ids_[rng_.Uniform(languages)]);
    }

    return std::move(data_);
  }

 private:
  void InternPredicates() {
    type_ = data_.dict.EncodePredicate(rdf::Term::Iri(rdf::vocab::kRdfType));
    follows_ = Pred(kWsdbm, "follows");
    friend_of_ = Pred(kWsdbm, "friendOf");
    likes_ = Pred(kWsdbm, "likes");
    subscribes_ = Pred(kWsdbm, "subscribes");
    makes_purchase_ = Pred(kWsdbm, "makesPurchase");
    purchase_for_ = Pred(kWsdbm, "purchaseFor");
    purchase_date_ = Pred(kWsdbm, "purchaseDate");
    has_genre_ = Pred(kWsdbm, "hasGenre");
    gender_ = Pred(kWsdbm, "gender");
    nationality_ = Pred(kSorg, "nationality");
    caption_ = Pred(kSorg, "caption");
    content_rating_ = Pred(kSorg, "contentRating");
    language_ = Pred(kSorg, "language");
    label_ = Pred(kRdfs, "label");
    age_ = Pred(kFoaf, "age");
    has_review_ = Pred(kRev, "hasReview");
    reviewer_ = Pred(kRev, "reviewer");
    rating_ = Pred(kRev, "rating");
    total_votes_ = Pred(kRev, "totalVotes");
    offers_ = Pred(kGr, "offers");
    includes_ = Pred(kGr, "includes");
    price_ = Pred(kGr, "price");
    valid_through_ = Pred(kGr, "validThrough");
    serial_number_ = Pred(kGr, "serialNumber");
  }

  PredicateId Pred(const char* ns, const char* local) {
    return data_.dict.EncodePredicate(rdf::Term::Iri(std::string(ns) + local));
  }
  TermId Iri(std::string iri) {
    return data_.dict.EncodeResource(rdf::Term::Iri(std::move(iri)));
  }
  TermId Literal(std::string value) {
    return data_.dict.EncodeResource(rdf::Term::Literal(std::move(value)));
  }
  TermId IntegerLiteral(uint64_t value) {
    return data_.dict.EncodeResource(rdf::Term::TypedLiteral(
        std::to_string(value), rdf::vocab::kXsdInteger));
  }

  void Emit(TermId s, PredicateId p, TermId o) {
    data_.triples.push_back(EncodedTriple{s, p, o});
  }

  Rng rng_;
  GeneratedData data_;
  std::vector<TermId> user_ids_, product_ids_, review_ids_, purchase_ids_,
      offer_ids_, retailer_ids_, website_ids_, genre_ids_, country_ids_,
      language_ids_, age_group_ids_;

  PredicateId type_, follows_, friend_of_, likes_, subscribes_,
      makes_purchase_, purchase_for_, purchase_date_, has_genre_, gender_,
      nationality_, caption_, content_rating_, language_, label_, age_,
      has_review_, reviewer_, rating_, total_votes_, offers_, includes_,
      price_, valid_through_, serial_number_;
};

const std::string& Prefixes() {
  static const std::string kPrefixes =
      "PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>\n"
      "PREFIX sorg: <http://schema.org/>\n"
      "PREFIX rev: <http://purl.org/stuff/rev#>\n"
      "PREFIX gr: <http://purl.org/goodrelations/>\n"
      "PREFIX foaf: <http://xmlns.com/foaf/>\n"
      "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n";
  return kPrefixes;
}

/// The IL path template: property + direction per hop, cycled. Hop i walks
/// var(i) -> var(i+1); `forward` false swaps subject and object.
struct Hop {
  const char* property;
  bool forward;
};

std::string BuildPath(const std::string& start_constant,
                      const std::vector<Hop>& hops, int length) {
  std::string q = Prefixes() + "SELECT * WHERE {\n";
  for (int i = 0; i < length; ++i) {
    const Hop& hop = hops[i];
    std::string from = i == 0 && !start_constant.empty()
                           ? start_constant
                           : "?v" + std::to_string(i);
    std::string to = "?v" + std::to_string(i + 1);
    if (hop.forward) {
      q += "  " + from + " " + hop.property + " " + to + " .\n";
    } else {
      q += "  " + to + " " + hop.property + " " + from + " .\n";
    }
  }
  q += "}";
  return q;
}

}  // namespace

GeneratedData GenerateWatdiv(const WatdivOptions& options) {
  WatdivBuilder builder(options.seed);
  return builder.Generate(options.scale);
}

std::vector<NamedQuery> WatdivBasicQueries() {
  const std::string& p = Prefixes();
  std::vector<NamedQuery> q;

  // ---- Linear.
  q.push_back({"L1", p + R"(SELECT * WHERE {
  ?v0 wsdbm:subscribes wsdbm:Website10 .
  ?v0 wsdbm:likes ?v1 .
})"});
  q.push_back({"L2", p + R"(SELECT * WHERE {
  ?v0 sorg:nationality wsdbm:Country5 .
  ?v0 wsdbm:follows ?v1 .
})"});
  q.push_back({"L3", p + R"(SELECT * WHERE {
  ?v0 wsdbm:likes wsdbm:Product0 .
  ?v0 wsdbm:subscribes ?v1 .
})"});
  q.push_back({"L4", p + R"(SELECT * WHERE {
  ?v0 rev:hasReview ?v1 .
  ?v1 rev:reviewer wsdbm:User42 .
})"});
  q.push_back({"L5", p + R"(SELECT * WHERE {
  ?v0 gr:includes wsdbm:Product7 .
  ?v1 gr:offers ?v0 .
})"});

  // ---- Star.
  q.push_back({"S1", p + R"(SELECT * WHERE {
  wsdbm:Retailer2 gr:offers ?v0 .
  ?v0 gr:includes ?v1 .
  ?v0 gr:price ?v2 .
  ?v0 gr:validThrough ?v3 .
  ?v0 gr:serialNumber ?v4 .
  ?v1 sorg:caption ?v5 .
  ?v1 wsdbm:hasGenre ?v6 .
  ?v1 rdfs:label ?v7 .
})"});
  q.push_back({"S2", p + R"(SELECT * WHERE {
  ?v0 sorg:nationality wsdbm:Country1 .
  ?v0 wsdbm:gender ?v1 .
  ?v0 foaf:age ?v2 .
  ?v0 a wsdbm:User .
})"});
  q.push_back({"S3", p + R"(SELECT * WHERE {
  ?v0 wsdbm:hasGenre wsdbm:Genre5 .
  ?v0 sorg:caption ?v1 .
  ?v0 sorg:contentRating ?v2 .
})"});
  q.push_back({"S4", p + R"(SELECT * WHERE {
  ?v0 foaf:age wsdbm:AgeGroup3 .
  ?v0 sorg:nationality ?v1 .
  ?v0 wsdbm:gender ?v2 .
})"});
  q.push_back({"S5", p + R"(SELECT * WHERE {
  ?v0 wsdbm:hasGenre wsdbm:Genre2 .
  ?v0 rdfs:label ?v1 .
  ?v0 sorg:caption ?v2 .
  ?v0 a wsdbm:Product .
})"});
  q.push_back({"S6", p + R"(SELECT * WHERE {
  ?v0 rev:rating 9 .
  ?v0 rev:reviewer ?v1 .
  ?v0 rev:totalVotes ?v2 .
})"});
  q.push_back({"S7", p + R"(SELECT * WHERE {
  ?v0 rev:reviewer wsdbm:User0 .
  ?v0 rev:rating ?v1 .
  ?v0 rev:totalVotes ?v2 .
})"});

  // ---- Snowflake.
  q.push_back({"F1", p + R"(SELECT * WHERE {
  ?v0 wsdbm:hasGenre wsdbm:Genre2 .
  ?v0 rev:hasReview ?v1 .
  ?v1 rev:reviewer ?v2 .
  ?v2 sorg:nationality ?v3 .
  ?v0 sorg:caption ?v4 .
})"});
  q.push_back({"F2", p + R"(SELECT * WHERE {
  wsdbm:Retailer0 gr:offers ?v0 .
  ?v0 gr:includes ?v1 .
  ?v0 gr:price ?v2 .
  ?v1 wsdbm:hasGenre ?v3 .
  ?v1 sorg:caption ?v4 .
})"});
  q.push_back({"F3", p + R"(SELECT * WHERE {
  ?v0 wsdbm:makesPurchase ?v1 .
  ?v1 wsdbm:purchaseFor ?v2 .
  ?v2 wsdbm:hasGenre wsdbm:Genre3 .
  ?v0 sorg:nationality ?v3 .
})"});
  q.push_back({"F4", p + R"(SELECT * WHERE {
  ?v0 wsdbm:subscribes ?v1 .
  ?v1 sorg:language wsdbm:Language0 .
  ?v0 wsdbm:likes ?v2 .
  ?v2 sorg:caption ?v3 .
})"});
  q.push_back({"F5", p + R"(SELECT * WHERE {
  wsdbm:Retailer1 gr:offers ?v0 .
  ?v0 gr:includes ?v1 .
  ?v1 rev:hasReview ?v2 .
  ?v2 rev:reviewer ?v3 .
  ?v0 gr:price ?v4 .
})"});

  // ---- Complex.
  q.push_back({"C1", p + R"(SELECT * WHERE {
  ?v0 wsdbm:likes ?v1 .
  ?v0 wsdbm:friendOf ?v2 .
  ?v2 wsdbm:likes ?v3 .
  ?v1 wsdbm:hasGenre ?v4 .
  ?v3 wsdbm:hasGenre ?v4 .
})"});
  q.push_back({"C2", p + R"(SELECT * WHERE {
  ?v0 sorg:nationality wsdbm:Country0 .
  ?v0 wsdbm:follows ?v1 .
  ?v1 wsdbm:makesPurchase ?v2 .
  ?v2 wsdbm:purchaseFor ?v3 .
  ?v3 rev:hasReview ?v4 .
  ?v4 rev:reviewer ?v5 .
  ?v5 sorg:nationality wsdbm:Country1 .
})"});
  q.push_back({"C3", p + R"(SELECT * WHERE {
  ?v0 wsdbm:friendOf ?v1 .
  ?v0 wsdbm:likes ?v2 .
  ?v0 sorg:nationality ?v3 .
  ?v0 a wsdbm:User .
})"});
  return q;
}

std::vector<NamedQuery> WatdivIncrementalLinearQueries() {
  // User-centric cycle: user -follows-> user -friendOf-> user -likes->
  // product -hasReview-> review -reviewer-> user -...
  const std::vector<Hop> user_cycle = {
      {"wsdbm:follows", true},  {"wsdbm:friendOf", true},
      {"wsdbm:likes", true},    {"rev:hasReview", true},
      {"rev:reviewer", true},   {"wsdbm:follows", true},
      {"wsdbm:friendOf", true}, {"wsdbm:likes", true},
      {"rev:hasReview", true},  {"rev:reviewer", true},
  };
  // Retailer-centric: retailer -offers-> offer -includes-> product
  // -hasReview-> review -reviewer-> user -follows-> ...
  const std::vector<Hop> retailer_cycle = {
      {"gr:offers", true},      {"gr:includes", true},
      {"rev:hasReview", true},  {"rev:reviewer", true},
      {"wsdbm:follows", true},  {"wsdbm:friendOf", true},
      {"wsdbm:likes", true},    {"rev:hasReview", true},
      {"rev:reviewer", true},   {"wsdbm:follows", true},
  };
  std::vector<NamedQuery> q;
  for (int k = 5; k <= 10; ++k) {
    q.push_back({"IL-1-" + std::to_string(k),
                 BuildPath("wsdbm:User0", user_cycle, k)});
  }
  for (int k = 5; k <= 10; ++k) {
    q.push_back({"IL-2-" + std::to_string(k),
                 BuildPath("wsdbm:Retailer0", retailer_cycle, k)});
  }
  for (int k = 5; k <= 10; ++k) {
    q.push_back({"IL-3-" + std::to_string(k), BuildPath("", user_cycle, k)});
  }
  return q;
}

std::vector<NamedQuery> WatdivMixedLinearQueries() {
  // Alternating forward/backward hops produce the object-object and
  // subject-subject join chains that force exchange-based systems to
  // rehash (paper §5.2). ML-1 walks purchase/like neighbourhoods from a
  // constant user and stays selective at every length; ML-2 starts from an
  // unbounded backward purchase scan and grows non-monotonically, like the
  // paper's ML-2 column.
  const std::vector<Hop> mixed_user = {
      {"wsdbm:makesPurchase", true}, {"wsdbm:purchaseFor", true},
      {"wsdbm:purchaseFor", false},  {"wsdbm:makesPurchase", false},
      {"wsdbm:likes", true},         {"rev:hasReview", true},
      {"rev:reviewer", true},        {"wsdbm:subscribes", true},
      {"sorg:language", true},       {"sorg:language", false},
  };
  const std::vector<Hop> mixed_product = {
      {"wsdbm:purchaseFor", false},  {"wsdbm:makesPurchase", false},
      {"wsdbm:likes", true},         {"wsdbm:likes", false},
      {"wsdbm:friendOf", true},      {"wsdbm:friendOf", false},
      {"wsdbm:subscribes", true},    {"sorg:language", true},
      {"sorg:language", false},      {"sorg:language", true},
  };
  std::vector<NamedQuery> q;
  for (int k = 5; k <= 10; ++k) {
    q.push_back({"ML-1-" + std::to_string(k),
                 BuildPath("wsdbm:User0", mixed_user, k)});
  }
  for (int k = 5; k <= 10; ++k) {
    q.push_back({"ML-2-" + std::to_string(k), BuildPath("", mixed_product, k)});
  }
  return q;
}

}  // namespace parj::workload
