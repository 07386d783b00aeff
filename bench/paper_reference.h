#ifndef PARJ_BENCH_PAPER_REFERENCE_H_
#define PARJ_BENCH_PAPER_REFERENCE_H_

// The paper's published measurements (Bilidas & Koubarakis, EDBT 2019),
// reprinted next to our reproduced numbers by the bench harnesses.
// All times in milliseconds, measured by the authors on a 16-core
// E5-4603 / 128 GB server at LUBM 10240 (~1.4B triples) and WatDiv 1000
// (~110M triples). Our runs use container-friendly scales, so absolute
// values are not comparable — the *shape* (who wins, by what factor,
// where the crossovers are) is what the reproduction checks.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace parj::bench::paper {

/// One system-comparison row: Table 2 (LUBM 10240), Table 3 (WatDiv basic)
/// and Table 4 (WatDiv linear) share this column layout.
struct SystemRow {
  const char* query;
  const char* parj1;      // PARJ single thread
  const char* rdfox;      // RDFox (SVN 2776)
  const char* rdf3x;      // RDF-3X 0.3.8 on an in-memory filesystem
  const char* parj32;     // PARJ, 32 threads
  const char* triad;      // TriAD, 16 workers
  const char* triad_sg;   // TriAD-SG (summary mode)
};

inline const std::vector<SystemRow>& Table2Lubm() {
  static const std::vector<SystemRow> kRows = {
      {"LUBM1", "15369", "96677", "1329510", "800", "4188", "4467"},
      {"LUBM2", "2437", "40368", "21870", "151", "965", "1101"},
      {"LUBM3", "5338", "136554", "23179", "605", "2004", "15243"},
      {"LUBM4", "5", "1", "8", "10", "12", "5"},
      {"LUBM5", "1", "1", "6", "4", "2", "2"},
      {"LUBM6", "3", "3", "190", "5", "95", "5"},
      {"LUBM7", "9213", "31180", "68769", "473", "13400", "14125"},
      {"LUBM8", "9899", "44144", "6485", "1336", "2838", "3906"},
      {"LUBM9", "58082", "187192", "208839", "4014", "42932", "32982"},
      {"LUBM10", "14606", "26690", "51235", "982", "65925", "41510"},
  };
  return kRows;
}

inline const std::vector<SystemRow>& Table3WatdivBasic() {
  static const std::vector<SystemRow> kRows = {
      {"L1", "5", "5", "40", "10", "3", "5"},
      {"L2", "8", "43", "30", "5", "5", "6"},
      {"L3", "2", "244", "13", "4", "2", "3"},
      {"L4", "3", "7", "19", "4", "2", "8"},
      {"L5", "9", "57", "40", "6", "3", "46"},
      {"S1", "49", "1209", "18", "47", "34", "116"},
      {"S2", "3", "284", "27", "3", "4", "17"},
      {"S3", "4", "17", "7", "3", "2", "18"},
      {"S4", "4", "153", "10", "5", "5", "29"},
      {"S5", "4", "1", "14", "4", "4", "20"},
      {"S6", "1", "5", "8", "5", "2", "3"},
      {"S7", "1", "695", "7", "5", "2", "3"},
      {"F1", "5", "24", "15", "6", "5", "19"},
      {"F2", "12", "153", "27", "10", "37", "13"},
      {"F3", "3", "59", "73", "9", "29", "74"},
      {"F4", "56", "249", "83", "19", "9", "66"},
      {"F5", "3", "10", "108", "7", "40", "58"},
      {"C1", "21", "50", "140", "12", "39", "598"},
      {"C2", "76", "178", "441", "16", "40", "1574"},
      {"C3", "266", "4810", "127", "45", "43", "527"},
  };
  return kRows;
}

inline const std::vector<SystemRow>& Table4WatdivLinear() {
  static const std::vector<SystemRow> kRows = {
      {"IL-1-5", "3", "27617", "1339", "5", "584", "5082"},
      {"IL-1-6", "4", "204898", "1832", "4", "1482", "11814"},
      {"IL-1-7", "8", "669099", "1272", "7", "1862", "14950"},
      {"IL-1-8", "3", "700199", "1633", "5", "1615", "21238"},
      {"IL-1-9", "26", "728518", "1396", "11", "630", "23844"},
      {"IL-1-10", "29", "734363", "1923", "9", "618", "25752"},
      {"IL-2-5", "2", "6574", "1525", "6", "476", "5340"},
      {"IL-2-6", "5", "62149", "2046", "4", "952", "11156"},
      {"IL-2-7", "2", "78211", "1794", "3", "344", "58749"},
      {"IL-2-8", "4", "80453", "1865", "16", "1148", "62448"},
      {"IL-2-9", "9", "86995", "1998", "6", "1062", "67045"},
      {"IL-2-10", "4", "87872", "1867", "5", "1093", "70658"},
      {"IL-3-5", "13259", "187101", "542948", "1494", "11195", "17093"},
      {"IL-3-6", "58379", "397964", "357310", "7070", "13603", "25492"},
      {"IL-3-7", "23208", "342533", "Timeout", "1192", "1809", "23492"},
      {"IL-3-8", "71918", "1214564", "Timeout", "4903", "OOM", "OOM"},
      {"IL-3-9", "26437", "966919", "Timeout", "2082", "7182", "39462"},
      {"IL-3-10", "41867", "951513", "175247", "1882", "8118", "46593"},
      {"ML-1-5", "2", "11481", "163", "2", "56", "374"},
      {"ML-1-6", "2", "2", "83", "2", "33", "1152"},
      {"ML-1-7", "1", "1", "728", "7", "2154", "4646"},
      {"ML-1-8", "2", "1", "824", "4", "103", "2018"},
      {"ML-1-9", "5", "98058", "994", "4", "198", "11766"},
      {"ML-1-10", "4", "14111", "1482", "3", "930", "9841"},
      {"ML-2-5", "3175", "1136335", "936", "201", "413", "1849"},
      {"ML-2-6", "2", "12182", "166", "5", "92", "1041"},
      {"ML-2-7", "121", "27151", "678", "15", "296", "895"},
      {"ML-2-8", "69", "818424", "2863", "19", "1996", "24500"},
      {"ML-2-9", "4335", "919541", "282", "259", "330", "1587"},
      {"ML-2-10", "52", "849283", "1952", "9", "728", "32449"},
  };
  return kRows;
}

/// Table 5: impact of adaptive processing (1 thread, LUBM 10240).
struct AdaptiveRow {
  const char* query;
  const char* binary;
  const char* ad_binary;
  const char* index;
  const char* ad_index;
};

inline const std::vector<AdaptiveRow>& Table5Adaptive() {
  static const std::vector<AdaptiveRow> kRows = {
      {"LUBM1", "22186", "15454", "16557", "15369"},
      {"LUBM2", "2877", "2443", "2535", "2437"},
      {"LUBM3", "6562", "5491", "6415", "5338"},
      {"LUBM4", "5", "7", "7", "5"},
      {"LUBM5", "1", "1", "1", "1"},
      {"LUBM6", "2", "2", "2", "3"},
      {"LUBM7", "12246", "11866", "9197", "9213"},
      {"LUBM8", "15725", "9782", "10420", "9899"},
      {"LUBM9", "77468", "63586", "58171", "58082"},
      {"LUBM10", "22359", "14892", "16217", "14606"},
  };
  return kRows;
}

/// Table 6: adaptive search decisions and binary-search vs ID-to-Position
/// cycles / cache misses (1 thread, LUBM 10240).
struct IndexCacheRow {
  const char* query;
  const char* num_binary;
  const char* num_sequential;
  const char* binary_cycles;
  const char* binary_l1;
  const char* binary_l2;
  const char* binary_l3;
  const char* index_cycles;
  const char* index_l1;
  const char* index_l2;
  const char* index_l3;
};

/// §5.2.2's claims about Table 6, as thresholds the bench judges its own
/// rows against. Sequential searches "heavily" outnumber binary ones (the
/// paper's LUBM totals differ ~200x; we ask for 10x), and the index cuts
/// lookup cycles by more than 30% on fallback-heavy queries.
inline constexpr double kTable6MinSequentialPerBinary = 10.0;
inline constexpr double kTable6MinCycleReduction = 0.30;

/// §5.2's silent-vs-full claim as thresholds result_handling judges its
/// own rows against: a query returning at least kSilentFullHeavyRows rows
/// pays a visible materialization cost (the paper's LUBM2: 4x; we ask for
/// kSilentFullMinHeavyRatio), while a query with fewer than
/// kSilentFullLightRows results stays within kSilentFullMaxLightRatio of
/// silent mode. Queries in between make no claim either way.
inline constexpr uint64_t kSilentFullHeavyRows = 100000;
inline constexpr uint64_t kSilentFullLightRows = 1000;
inline constexpr double kSilentFullMinHeavyRatio = 1.5;
inline constexpr double kSilentFullMaxLightRatio = 1.3;

inline const std::vector<IndexCacheRow>& Table6IndexCache() {
  static const std::vector<IndexCacheRow> kRows = {
      {"LUBM1", "1", "107525748", "2236", "130", "49", "9", "3135", "102",
       "43", "8"},
      {"LUBM2", "204795", "10854018", "502M", "26.7M", "10.8M", "3.5M",
       "355M", "18.3M", "4.4M", "543K"},
      {"LUBM3", "1", "33169741", "2401", "140", "50", "8", "4175", "139",
       "42", "3"},
      {"LUBM4", "4", "68", "38745", "666", "368", "235", "16862", "469",
       "182", "34"},
      {"LUBM5", "1", "10", "2423", "94", "29", "0", "2395", "162", "83", "5"},
      {"LUBM6", "1", "570", "2033", "106", "26", "0", "2003", "130", "48",
       "0"},
      {"LUBM7", "2257238", "28768005", "2.95B", "254M", "80.1M", "2.30M",
       "2.12B", "211M", "58.9M", "1.08M"},
      {"LUBM8", "8645", "84755793", "17.4M", "1.20M", "682K", "84.1K",
       "11.2M", "841K", "351K", "21.7K"},
      {"LUBM9", "409590", "351307982", "1.06B", "53.6M", "19.7M", "2.92M",
       "655.7M", "39.1M", "11.18M", "639.7K"},
      {"LUBM10", "558279", "116015419", "1.22B", "66.7M", "24.2M", "2.98M",
       "798.2M", "50.76M", "12.7M", "634.3K"},
  };
  return kRows;
}

}  // namespace parj::bench::paper

#endif  // PARJ_BENCH_PAPER_REFERENCE_H_
