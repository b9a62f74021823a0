#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <thread>

#include "datagen/dblp_gen.h"
#include "datagen/vocabulary.h"
#include "datagen/xmark_gen.h"
#include "datagen/zipf.h"
#include "xml/serializer.h"

namespace xrank::e2e {

namespace {

// Calibrated counts and rates are single-client figures on a 4-core x86-64
// host at full size. dblp-disj-large turns the result cache off: its load
// run repeats the sequence, and no repeat may be answered from the cache.
// (The router bypasses the cache under θ forwarding, and on live-ingest
// every write invalidates it.) dblp-shard4 runs dblp-disj-large's sequence.
constexpr WorkloadSpec kWorkloads[] = {
    {"xmark-hdil-hot", /*xmark=*/true, /*sharded=*/false, /*live=*/false,
     /*disk_backed=*/false, /*result_cache=*/true, index::IndexKind::kHdil,
     /*load_queries=*/3000, /*traced_ops_per_second=*/700.0},
    {"dblp-disj-large", false, false, false, true, false,
     index::IndexKind::kDil, 800, 250.0},
    {"dblp-shard4", false, true, false, true, true, index::IndexKind::kDil,
     800, 400.0},
    {"dblp-live-ingest", false, false, true, true, true,
     index::IndexKind::kDil, 720, 250.0},
};

// Zipf exponent of the xmark query stream over its distinct-query pool.
constexpr double kQueryZipf = 1.0;
// Query terms leave out each vocabulary's most frequent words, as a stop
// list would. Each of them is in a large share of all elements: an xmark
// pair of two costs 50-130 ms where a typical miss costs a few ms, and a
// dblp query of several is as far off. How many of these a seed happened
// to draw would otherwise decide the run's p95 and throughput.
constexpr size_t kXMarkStopWords = 32;
constexpr size_t kDblpStopWords = 8;

datagen::XMarkOptions XMarkShape(uint64_t seed, bool tiny) {
  // Four times the figure benches' XMark profile: one deep document.
  datagen::XMarkOptions options;
  options.num_items = tiny ? 60 : 3600;
  options.num_people = options.num_items / 2;
  options.num_open_auctions = options.num_items;
  options.num_closed_auctions = options.num_items / 3;
  options.vocabulary_size = 6000;
  options.high_corr_frequency = 0.12;
  options.low_corr_frequency = 0.08;
  options.planted_sets = tiny ? 16 : 256;
  options.seed = seed;
  return options;
}

datagen::DblpOptions DblpShape(uint64_t seed, size_t papers) {
  // The figure benches' dense query-performance profile: planted terms
  // sprayed over many elements, so common-keyword lists span many pages.
  datagen::DblpOptions options;
  options.num_papers = papers;
  options.vocabulary_size = 2000;
  options.abstract_words = 15;
  options.mean_citations = 2.0;
  options.planted_sets = 2;
  options.dense_plant_rate = 0.55;
  options.high_corr_frequency = 0.0;
  options.low_corr_frequency = 0.0;
  options.low_corr_joint_papers = 2;
  options.seed = seed;
  return options;
}

std::vector<XmlDocument> Serialize(const datagen::Corpus& corpus,
                                   std::string_view uri_prefix) {
  std::vector<XmlDocument> out;
  out.reserve(corpus.documents.size());
  for (const xml::Document& doc : corpus.documents) {
    XmlDocument serialized;
    serialized.uri = uri_prefix.empty() ? doc.uri
                                        : std::string(uri_prefix) + doc.uri;
    serialized.text = xml::Serialize(doc);
    out.push_back(std::move(serialized));
  }
  return out;
}

// A vocabulary rank drawn log-uniformly from [stop, n): every order of
// magnitude of term frequency is equally likely.
size_t LogUniformRank(Random* rng, size_t stop, size_t n) {
  double r = std::exp(rng->NextDouble() *
                      std::log(static_cast<double>(n - stop) + 1));
  size_t rank = stop + static_cast<size_t>(r) - 1;
  return rank < n ? rank : n - 1;
}

// The xmark query pool, in popularity order: the Zipf stream's rank r draws
// pool[r]. Ranks cycle through the query classes (planted high-correlation
// prefix, vocabulary pair, planted low-correlation prefix, vocabulary pair)
// so the hot head mixes every class the same way for every seed.
std::vector<std::string> XMarkQueryPool(const datagen::PlantedTerms& planted,
                                        size_t vocabulary_size,
                                        uint64_t seed) {
  auto prefixes = [](const std::vector<std::array<std::string, 4>>& quads) {
    std::vector<std::string> out;
    for (const auto& quad : quads) {
      out.push_back(quad[0] + " " + quad[1]);
      out.push_back(quad[0] + " " + quad[1] + " " + quad[2]);
    }
    return out;
  };
  std::vector<std::string> high = prefixes(planted.high_correlation);
  std::vector<std::string> low = prefixes(planted.low_correlation);
  std::set<std::string> seen(high.begin(), high.end());
  seen.insert(low.begin(), low.end());
  std::vector<std::string> pairs;
  datagen::Vocabulary vocabulary(vocabulary_size);
  Random rng = Random(seed).Fork(0x786d61726b);
  while (pairs.size() < high.size() + low.size()) {
    size_t a = LogUniformRank(&rng, kXMarkStopWords, vocabulary_size);
    size_t b = LogUniformRank(&rng, kXMarkStopWords, vocabulary_size);
    std::string text = vocabulary.Word(a) + " " + vocabulary.Word(b);
    if (a != b && seen.insert(text).second) pairs.push_back(std::move(text));
  }
  std::vector<std::string> pool;
  for (size_t i = 0; i < high.size(); ++i) {
    pool.push_back(high[i]);
    pool.push_back(pairs[2 * i]);
    pool.push_back(low[i]);
    pool.push_back(pairs[2 * i + 1]);
  }
  return pool;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += spec.name;
  }
  return names;
}

Corpus MakeCorpus(const WorkloadSpec& spec, uint64_t seed, bool tiny,
                  size_t fresh_documents) {
  Corpus corpus;
  if (spec.xmark) {
    datagen::XMarkOptions options = XMarkShape(seed, tiny);
    datagen::Corpus generated = datagen::GenerateXMark(options);
    corpus.documents = Serialize(generated, "");
    corpus.query_pool =
        XMarkQueryPool(generated.planted, options.vocabulary_size, seed);
    corpus.vocabulary_size = options.vocabulary_size;
  } else {
    size_t papers = spec.live ? (tiny ? 300 : 8000) : (tiny ? 600 : 50000);
    datagen::DblpOptions options = DblpShape(seed, papers);
    corpus.documents = Serialize(datagen::GenerateDblp(options), "");
    corpus.vocabulary_size = options.vocabulary_size;
    // Tiny lists of the other words fit in a page or two: nothing to prune.
    corpus.stop_words = tiny ? 0 : kDblpStopWords;
    if (spec.live) {
      // Same shape, another seed, and a URI prefix of their own, so every
      // add is a new document.
      datagen::DblpOptions fresh = DblpShape(seed + 1, fresh_documents);
      corpus.fresh = Serialize(datagen::GenerateDblp(fresh), "live/");
    }
  }
  for (const XmlDocument& doc : corpus.documents) {
    corpus.bytes += doc.text.size();
  }
  return corpus;
}

std::vector<QueryOp> QuerySequence(const WorkloadSpec& spec,
                                   const Corpus& corpus, uint64_t seed,
                                   size_t n) {
  Random rng = Random(seed).Fork(0x71756572);
  std::vector<QueryOp> sequence(n);
  if (spec.xmark) {
    datagen::ZipfSampler zipf(std::max<size_t>(1, corpus.query_pool.size()),
                              kQueryZipf);
    for (QueryOp& op : sequence) {
      op.id = zipf.Sample(&rng);
      op.text = corpus.query_pool[op.id];
    }
    return sequence;
  }
  // DBLP: 2-4 distinct terms, each drawn log-uniformly by vocabulary rank.
  datagen::Vocabulary vocabulary(corpus.vocabulary_size);
  for (size_t i = 0; i < n; ++i) {
    size_t terms = 2 + rng.Uniform(3);
    std::vector<size_t> ranks;
    while (ranks.size() < terms) {
      size_t rank =
          LogUniformRank(&rng, corpus.stop_words, corpus.vocabulary_size);
      if (std::find(ranks.begin(), ranks.end(), rank) == ranks.end()) {
        ranks.push_back(rank);
      }
    }
    sequence[i].id = i;
    for (size_t rank : ranks) {
      if (!sequence[i].text.empty()) sequence[i].text += ' ';
      sequence[i].text += vocabulary.Word(rank);
    }
  }
  return sequence;
}

core::EngineOptions EngineOptionsFor(const WorkloadSpec& spec,
                                     const std::string& disk_dir,
                                     bool inline_maintenance) {
  core::EngineOptions options;
  // A serving process keeps its caches warm across queries; the paper's
  // per-query cold cache is the figure benches' setting, not this one's.
  options.cold_cache_per_query = false;
  options.disk_dir = disk_dir;
  if (!spec.result_cache) options.result_cache_entries = 0;
  if (spec.xmark) {
    // DIL rides along as the reference the HDIL answers are checked against.
    options.indexes = {index::IndexKind::kHdil, index::IndexKind::kDil};
  } else {
    options.indexes = {index::IndexKind::kDil};
    options.scoring.semantics = query::QuerySemantics::kDisjunctive;
  }
  if (inline_maintenance) {
    // The traced run flushes and compacts through the public calls itself
    // (at the background policy's thresholds), so each is timed on its own.
    options.background_maintenance = false;
    options.max_delta_documents = std::numeric_limits<size_t>::max();
    options.flush_delta_documents = std::numeric_limits<size_t>::max();
    options.compact_segment_count = 0;
  }
  return options;
}

core::ShardRouterOptions RouterOptionsFor(const WorkloadSpec& spec,
                                          const std::string& root_dir) {
  core::ShardRouterOptions options;
  options.num_shards = 4;
  options.root_dir = root_dir;
  options.engine = EngineOptionsFor(spec, "", /*inline_maintenance=*/false);
  // Same total cache budget as the monolith, so sharding is the only
  // difference from dblp-disj-large.
  options.engine.buffer_pool_pages /= options.num_shards;
  options.engine.block_cache_bytes /= options.num_shards;
  // The pool's caller runs chunks too, so the client plus scatter_threads - 1
  // workers leave one core for the OS: a scatter that needs every core
  // waits on whichever one the host takes away.
  size_t cores = std::max(1u, std::thread::hardware_concurrency());
  options.scatter_threads =
      std::max<size_t>(1, std::min(options.num_shards, cores - 1));
  return options;
}

}  // namespace xrank::e2e
