#include "index/index_builder.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/thread_pool.h"
#include "storage/btree.h"

namespace xrank::index {

std::string_view IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kNaiveId:
      return "Naive-ID";
    case IndexKind::kNaiveRank:
      return "Naive-Rank";
    case IndexKind::kDil:
      return "DIL";
    case IndexKind::kRdil:
      return "RDIL";
    case IndexKind::kHdil:
      return "HDIL";
  }
  return "Unknown";
}

bool UsesNaivePostings(IndexKind kind) {
  return kind == IndexKind::kNaiveId || kind == IndexKind::kNaiveRank;
}

namespace {

// Resolves a BuildOptions/ExtractionOptions thread knob (0 = hardware);
// callers refuse negative knobs first.
size_t ResolveBuildThreads(int num_threads) {
  if (num_threads > 0) return static_cast<size_t>(num_threads);
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

std::vector<std::pair<size_t, size_t>> PartitionByWeight(
    const std::vector<uint64_t>& weights, size_t num_shards) {
  std::vector<std::pair<size_t, size_t>> shards;
  size_t n = weights.size();
  if (n == 0 || num_shards == 0) return shards;
  num_shards = std::min(num_shards, n);
  uint64_t total = 0;
  for (uint64_t w : weights) total += w;

  size_t begin = 0;
  uint64_t consumed = 0;
  for (size_t s = 0; s < num_shards && begin < n; ++s) {
    size_t end = begin;
    uint64_t acc = 0;
    if (s + 1 == num_shards) {
      end = n;
    } else {
      size_t remaining_shards = num_shards - s;
      uint64_t target =
          (total - consumed + remaining_shards - 1) / remaining_shards;
      while (end < n && (end == begin || acc < target)) {
        acc += weights[end];
        ++end;
      }
    }
    shards.emplace_back(begin, end);
    consumed += acc;
    begin = end;
  }
  return shards;
}

namespace {

using graph::NodeId;
using graph::XmlGraph;

// Accumulates naive (element-granularity) postings: term -> ordinal ->
// posting under construction. Ordinals are assigned in global preorder, so
// iterating the inner map yields ID order.
using NaiveAccumulator =
    std::map<std::string, std::map<uint32_t, Posting>>;

struct ExtractionState {
  const XmlGraph* graph;
  const std::vector<double>* ranks;
  const Analyzer* analyzer;
  bool build_naive;

  ExtractionResult out;
  NaiveAccumulator naive;
  // Global preorder ordinal of this state's first element; a document shard
  // continues the numbering where the preceding shard's documents end, so
  // partitioned extraction assigns the same ordinals as a sequential pass.
  uint32_t ordinal_base = 0;
  // Ancestor chain of the current DFS path: (ordinal, rank) pairs.
  std::vector<std::pair<uint32_t, float>> ancestor_stack;
  uint32_t position_counter = 0;  // reset per document
};

void VisitElement(ExtractionState* state, NodeId element) {
  const XmlGraph& graph = *state->graph;
  const auto& data = graph.node(element);

  uint32_t ordinal =
      state->ordinal_base +
      static_cast<uint32_t>(state->out.ordinal_to_dewey.size());
  state->out.ordinal_to_dewey.push_back(data.dewey_id);
  float rank = static_cast<float>((*state->ranks)[element]);
  state->ancestor_stack.emplace_back(ordinal, rank);

  // Tokenize the element's direct text (its value children, in order).
  std::map<std::string, std::vector<uint32_t>> term_positions;
  for (NodeId value : data.value_children) {
    std::vector<Analyzer::Token> tokens = state->analyzer->Tokenize(
        graph.node(value).text, &state->position_counter);
    for (Analyzer::Token& token : tokens) {
      term_positions[std::move(token.term)].push_back(token.position);
    }
  }

  for (auto& [term, positions] : term_positions) {
    ++state->out.direct_occurrence_count;
    Posting posting;
    posting.id = data.dewey_id;
    posting.elem_rank = rank;
    posting.positions = positions;
    state->out.dewey_postings[term].push_back(std::move(posting));

    if (state->build_naive) {
      // The naive adaptation replicates the occurrence into every ancestor
      // (paper Section 4.1, space-overhead discussion).
      for (const auto& [anc_ordinal, anc_rank] : state->ancestor_stack) {
        Posting& naive_posting = state->naive[term][anc_ordinal];
        naive_posting.id = dewey::DeweyId({anc_ordinal});
        naive_posting.elem_rank = anc_rank;
        naive_posting.positions.insert(naive_posting.positions.end(),
                                       positions.begin(), positions.end());
      }
    }
  }

  for (NodeId child : data.element_children) {
    VisitElement(state, child);
  }
  state->ancestor_stack.pop_back();
}

// Flattens a state's naive accumulator into ordinal-ordered posting
// vectors, appending to `out` (per-shard ordinal ranges are disjoint and
// increasing, so appending shard flushes in shard order preserves order).
void FlattenNaive(ExtractionState* state, TermPostingsMap* out) {
  for (auto& [term, by_ordinal] : state->naive) {
    std::vector<Posting>& list = (*out)[term];
    for (auto& [ordinal, posting] : by_ordinal) {
      list.push_back(std::move(posting));
    }
  }
  state->naive.clear();
}

}  // namespace

Result<ExtractionResult> ExtractPostings(const XmlGraph& graph,
                                         const std::vector<double>& elem_ranks,
                                         const ExtractionOptions& options) {
  if (elem_ranks.size() != graph.node_count()) {
    return Status::InvalidArgument(
        "elem_ranks size does not match graph node count");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  Analyzer analyzer(options.analyzer);

  std::unordered_set<uint32_t> excluded(options.exclude_documents.begin(),
                                        options.exclude_documents.end());
  // Surviving documents with their global preorder ordinal bases.
  std::vector<uint32_t> docs;
  std::vector<uint32_t> ordinal_bases;
  uint32_t next_base = 0;
  for (uint32_t doc = 0; doc < graph.documents().size(); ++doc) {
    if (excluded.count(doc) > 0) continue;
    docs.push_back(doc);
    ordinal_bases.push_back(next_base);
    next_base += graph.documents()[doc].element_count;
  }

  size_t num_workers =
      std::min(ResolveBuildThreads(options.num_threads), docs.size());
  ExtractionResult merged;

  if (num_workers <= 1) {
    // Sequential reference path: one state over all documents.
    ExtractionState state;
    state.graph = &graph;
    state.ranks = &elem_ranks;
    state.analyzer = &analyzer;
    state.build_naive = options.build_naive;
    for (uint32_t doc : docs) {
      state.position_counter = 0;
      VisitElement(&state, graph.documents()[doc].root);
    }
    FlattenNaive(&state, &state.out.naive_postings);
    merged = std::move(state.out);
  } else {
    // Partition documents into contiguous shards balanced by element count;
    // each worker extracts its shard independently, then the shards are
    // merged in document order — term posting lists concatenate (documents
    // are visited in increasing Dewey order) and naive ordinal ranges are
    // disjoint, so the merged result is identical to the sequential pass.
    std::vector<uint64_t> weights;
    weights.reserve(docs.size());
    for (uint32_t doc : docs) {
      weights.push_back(graph.documents()[doc].element_count + 1);
    }
    std::vector<std::pair<size_t, size_t>> shards =
        PartitionByWeight(weights, num_workers);

    std::vector<ExtractionState> states(shards.size());
    ThreadPool pool(static_cast<int>(num_workers));
    pool.ParallelFor(
        0, shards.size(), 1, [&](size_t begin, size_t end, size_t) {
          for (size_t s = begin; s < end; ++s) {
            ExtractionState& state = states[s];
            state.graph = &graph;
            state.ranks = &elem_ranks;
            state.analyzer = &analyzer;
            state.build_naive = options.build_naive;
            state.ordinal_base = ordinal_bases[shards[s].first];
            for (size_t d = shards[s].first; d < shards[s].second; ++d) {
              state.position_counter = 0;
              VisitElement(&state, graph.documents()[docs[d]].root);
            }
          }
        });

    for (ExtractionState& state : states) {
      for (auto& [term, postings] : state.out.dewey_postings) {
        std::vector<Posting>& list = merged.dewey_postings[term];
        std::move(postings.begin(), postings.end(), std::back_inserter(list));
      }
      FlattenNaive(&state, &merged.naive_postings);
      merged.ordinal_to_dewey.insert(merged.ordinal_to_dewey.end(),
                                     state.out.ordinal_to_dewey.begin(),
                                     state.out.ordinal_to_dewey.end());
      merged.direct_occurrence_count += state.out.direct_occurrence_count;
    }
  }
  merged.element_count = merged.ordinal_to_dewey.size();
  return merged;
}

// ------------------------------------------------------------ persistence --

namespace {

constexpr uint32_t kIndexMagic = 0x584E524Bu;  // "XNRK"
// Header page layout (page 0).
constexpr size_t kMagicOffset = 0;
constexpr size_t kKindOffset = 4;
constexpr size_t kListPagesOffset = 8;
constexpr size_t kIndexPagesOffset = 16;
constexpr size_t kLexiconPagesOffset = 24;
constexpr size_t kEntryCountOffset = 32;
constexpr size_t kLexFirstPageOffset = 40;
constexpr size_t kLexPageCountOffset = 44;
constexpr size_t kLexByteLenOffset = 48;
constexpr size_t kListUsedBytesOffset = 56;
// Posting codec id. Pre-codec files carry zero here — pages are
// zero-initialized — which decodes as varint, i.e. exactly the legacy
// layout, so old index files open unchanged.
constexpr size_t kCodecIdOffset = 64;
// Retired rank quantization encoding (index/codec.h). Writers leave it
// zero, meaning float ranks; a non-zero encoding is refused at open.
constexpr size_t kRankEncodingOffset = 68;
// VBMW block-sizing lambda (PR 7), milli-rank units; zero (also what every
// pre-VBMW file carries) is the dense page-filling layout.
constexpr size_t kVbmwLambdaOffset = 72;
// Lexicon blob layout version (kLexiconFormatVersion). Zero — what every
// pre-versioning file carries in this slot — is the legacy layout without
// per-term max_doc_rank, so old files deserialize unchanged; versions this
// binary does not know are refused at open instead of misparsed.
constexpr size_t kLexFormatVersionOffset = 76;
// Retired document-reorder pass id (index/codec.h). Writers leave it zero,
// meaning ingest order; a non-zero id is refused at open.
constexpr size_t kReorderIdOffset = 80;

// Writes `blob` across fresh consecutive pages.
Result<ListExtent> WriteBlobToPages(storage::PageFile* file,
                                    std::string_view blob) {
  ListExtent extent;
  extent.entry_count = blob.size();
  size_t offset = 0;
  storage::PageId previous = storage::kInvalidPage;
  while (offset < blob.size() || extent.page_count == 0) {
    XRANK_ASSIGN_OR_RETURN(storage::PageId page, file->Allocate());
    if (previous != storage::kInvalidPage && page != previous + 1) {
      return Status::Internal("blob pages not consecutive");
    }
    if (extent.page_count == 0) extent.first_page = page;
    storage::Page page_data{};
    size_t chunk = std::min(blob.size() - offset, storage::kPageSize);
    std::memcpy(page_data.data.data(), blob.data() + offset, chunk);
    XRANK_RETURN_NOT_OK(file->Write(page, page_data));
    offset += chunk;
    previous = page;
    ++extent.page_count;
    if (blob.empty()) break;
  }
  return extent;
}

// Appends every page of `scratch` to `file` in order (consecutively) and
// returns the page id in `file` where scratch page 0 landed; list extents
// recorded against the scratch file are rebased by that offset (an empty
// scratch copies nothing, and empty extents are never rebased).
Result<storage::PageId> AppendScratchPages(storage::PageFile* file,
                                           const storage::PageFile& scratch) {
  storage::PageId offset = file->page_count();
  for (storage::PageId p = 0; p < scratch.page_count(); ++p) {
    storage::Page page;
    XRANK_RETURN_NOT_OK(scratch.Read(p, &page));
    XRANK_ASSIGN_OR_RETURN(storage::PageId dst, file->Allocate());
    if (dst != offset + p) {
      return Status::Internal("scratch splice pages not consecutive");
    }
    XRANK_RETURN_NOT_OK(file->Write(dst, page));
  }
  return offset;
}

// Serializes the lexicon into trailing pages and fills in the header page
// (page 0, which the builder allocated first).
Status WriteIndexTrailer(storage::PageFile* file, IndexKind kind,
                         const Lexicon& lexicon, IndexStats* stats) {
  std::string blob;
  lexicon.Serialize(&blob);
  XRANK_ASSIGN_OR_RETURN(ListExtent lex_extent, WriteBlobToPages(file, blob));
  stats->lexicon_pages = lex_extent.page_count;

  storage::Page header{};
  header.WriteU32(kMagicOffset, kIndexMagic);
  header.WriteU32(kKindOffset, static_cast<uint32_t>(kind));
  header.WriteU64(kListPagesOffset, stats->list_pages);
  header.WriteU64(kIndexPagesOffset, stats->index_pages);
  header.WriteU64(kLexiconPagesOffset, stats->lexicon_pages);
  header.WriteU64(kEntryCountOffset, stats->entry_count);
  header.WriteU32(kLexFirstPageOffset, lex_extent.first_page);
  header.WriteU32(kLexPageCountOffset, lex_extent.page_count);
  header.WriteU64(kLexByteLenOffset, blob.size());
  header.WriteU64(kListUsedBytesOffset, stats->list_used_bytes);
  header.WriteU32(kCodecIdOffset, lexicon.format_spec().codec_id);
  header.WriteU32(kVbmwLambdaOffset, lexicon.format_spec().vbmw_lambda_milli);
  header.WriteU32(kLexFormatVersionOffset, kLexiconFormatVersion);
  XRANK_RETURN_NOT_OK(file->Write(0, header));
  return file->Sync();
}

}  // namespace

Result<BuiltIndex> OpenIndex(std::unique_ptr<storage::PageFile> file) {
  if (file->page_count() == 0) {
    return Status::Corruption("index file is empty");
  }
  storage::Page header;
  XRANK_RETURN_NOT_OK(file->Read(0, &header));
  if (header.ReadU32(kMagicOffset) != kIndexMagic) {
    return Status::Corruption("bad index magic");
  }
  BuiltIndex index;
  uint32_t kind = header.ReadU32(kKindOffset);
  if (kind < 1 || kind > 5) return Status::Corruption("bad index kind");
  index.kind = static_cast<IndexKind>(kind);
  index.stats.list_pages = header.ReadU64(kListPagesOffset);
  index.stats.index_pages = header.ReadU64(kIndexPagesOffset);
  index.stats.lexicon_pages = header.ReadU64(kLexiconPagesOffset);
  index.stats.entry_count = header.ReadU64(kEntryCountOffset);
  index.stats.list_used_bytes = header.ReadU64(kListUsedBytesOffset);

  uint32_t lex_first = header.ReadU32(kLexFirstPageOffset);
  uint32_t lex_pages = header.ReadU32(kLexPageCountOffset);
  uint64_t lex_bytes = header.ReadU64(kLexByteLenOffset);
  if (static_cast<uint64_t>(lex_first) + lex_pages > file->page_count() ||
      lex_bytes > static_cast<uint64_t>(lex_pages) * storage::kPageSize) {
    return Status::Corruption("bad lexicon extent");
  }
  std::string blob;
  blob.reserve(lex_bytes);
  for (uint32_t i = 0; i < lex_pages; ++i) {
    storage::Page page;
    XRANK_RETURN_NOT_OK(file->Read(lex_first + i, &page));
    size_t chunk = std::min(static_cast<size_t>(lex_bytes - blob.size()),
                            storage::kPageSize);
    blob.append(page.data.data(), chunk);
    if (blob.size() == lex_bytes) break;
  }
  PostingFormatSpec spec;
  spec.codec_id = header.ReadU32(kCodecIdOffset);
  spec.vbmw_lambda_milli = header.ReadU32(kVbmwLambdaOffset);
  // Refuse cleanly rather than misdecode: an index written by a build with
  // codecs this binary does not register must not be served.
  XRANK_RETURN_NOT_OK(ResolvePostingCodec(spec).status());
  XRANK_RETURN_NOT_OK(CheckFloatRanks(header.ReadU32(kRankEncodingOffset)));
  XRANK_RETURN_NOT_OK(CheckIdentityOrder(header.ReadU32(kReorderIdOffset)));
  uint32_t lex_version = header.ReadU32(kLexFormatVersionOffset);
  if (lex_version > kLexiconFormatVersion) {
    return Status::Corruption(
        "lexicon format version " + std::to_string(lex_version) +
        " is newer than this build supports (" +
        std::to_string(kLexiconFormatVersion) + ")");
  }
  XRANK_ASSIGN_OR_RETURN(index.lexicon,
                         Lexicon::Deserialize(blob, spec, lex_version));
  index.file = std::move(file);
  return index;
}

// --------------------------------------------------------- build scaffold --

Status EncodeDeweyList(const std::vector<Posting>& postings,
                       const TermSink& sink, bool stage_separators,
                       EncodedTerm* out) {
  PostingListWriter writer(sink.lists, sink.dewey_format);
  for (const Posting& posting : postings) {
    XRANK_ASSIGN_OR_RETURN(PostingLocation loc, writer.Add(posting));
    if (stage_separators && loc.slot == 0) {
      out->aux.emplace_back(&posting, loc.page_index);
    }
  }
  XRANK_ASSIGN_OR_RETURN(out->info.list, writer.Finish());
  out->info.skips = writer.TakeSkips();
  out->info.max_doc_rank = writer.max_doc_rank();
  return Status::OK();
}

Status EncodeRankList(const std::vector<Posting>& postings,
                      const TermSink& sink, EncodedTerm* out) {
  // Rank order destroys prefix locality, so IDs are stored raw.
  PostingListWriter writer(sink.lists, sink.raw_format);
  out->aux.reserve(postings.size());
  for (const Posting* posting : SortByRank(postings)) {
    XRANK_ASSIGN_OR_RETURN(PostingLocation loc, writer.Add(*posting));
    out->aux.emplace_back(posting, EncodePostingLocation(loc));
  }
  XRANK_ASSIGN_OR_RETURN(out->info.list, writer.Finish());
  return Status::OK();
}

Status WriteBtree(storage::PageFile* file, storage::SharedPagePacker* packer,
                  const AuxEntries& entries, TermInfo* info) {
  storage::BtreeBuilder builder(file, packer);
  for (const auto& [posting, value] : entries) {
    XRANK_RETURN_NOT_OK(builder.Add(posting->id, value));
  }
  XRANK_ASSIGN_OR_RETURN(storage::BtreeBuilder::BuildStats stats,
                         builder.Finish());
  info->btree_root = stats.root;
  return Status::OK();
}

namespace {

// The two list runs a term may have, in file order: every `list` precedes
// every `rank_list` (HDIL's rank prefixes).
constexpr ListExtent TermInfo::*kListRuns[] = {&TermInfo::list,
                                               &TermInfo::rank_list};

// One worker's output for a contiguous term shard: one scratch page file
// per list run.
struct ShardOutput {
  std::unique_ptr<storage::PageFile> scratch[2] = {
      storage::PageFile::CreateInMemory(),
      storage::PageFile::CreateInMemory()};
  Status status = Status::OK();
};

}  // namespace

Result<BuiltIndex> BuildIndexFile(IndexKind kind,
                                  const TermPostingsMap& postings,
                                  std::unique_ptr<storage::PageFile> file,
                                  const BuildOptions& build,
                                  const TermEncoder& encode,
                                  const AuxWriter& write_aux) {
  if (build.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  BuiltIndex index;
  index.kind = kind;
  XRANK_RETURN_NOT_OK(index.lexicon.SetFormatSpec(build.format));
  const PostingFormat dewey_format =
      index.lexicon.ListFormat(/*delta_encode_ids=*/true);
  const PostingFormat raw_format =
      index.lexicon.ListFormat(/*delta_encode_ids=*/false);
  // Page 0 is the header, filled in by WriteIndexTrailer.
  XRANK_ASSIGN_OR_RETURN(storage::PageId header_page, file->Allocate());
  if (header_page != 0) return Status::Internal("header page must be 0");

  std::vector<const TermPostingsMap::value_type*> terms;
  terms.reserve(postings.size());
  std::vector<uint64_t> weights;
  weights.reserve(postings.size());
  for (const auto& entry : postings) {
    terms.push_back(&entry);
    weights.push_back(entry.second.size() + 1);
  }
  size_t num_workers = std::max<size_t>(
      1, std::min(ResolveBuildThreads(build.num_threads), terms.size()));
  std::vector<std::pair<size_t, size_t>> shards =
      PartitionByWeight(weights, num_workers);

  // Workers encode complete per-term page runs into scratch files; lists
  // must occupy consecutive pages, and every location a term records is
  // relative to its own run, so only the extents need rebasing.
  std::vector<ShardOutput> outputs(shards.size());
  std::vector<EncodedTerm> encoded(terms.size());
  ThreadPool pool(static_cast<int>(num_workers));
  pool.ParallelFor(0, shards.size(), 1, [&](size_t begin, size_t end, size_t) {
    for (size_t s = begin; s < end; ++s) {
      ShardOutput& out = outputs[s];
      TermSink sink{out.scratch[0].get(), out.scratch[1].get(), dewey_format,
                    raw_format};
      for (size_t t = shards[s].first; t < shards[s].second && out.status.ok();
           ++t) {
        out.status = encode(terms[t]->second, sink, &encoded[t]);
      }
    }
  });
  for (const ShardOutput& out : outputs) XRANK_RETURN_NOT_OK(out.status);

  for (size_t run = 0; run < 2; ++run) {
    for (size_t s = 0; s < shards.size(); ++s) {
      XRANK_ASSIGN_OR_RETURN(
          storage::PageId offset,
          AppendScratchPages(file.get(), *outputs[s].scratch[run]));
      outputs[s].scratch[run].reset();
      for (size_t t = shards[s].first; t < shards[s].second; ++t) {
        ListExtent& extent = encoded[t].info.*kListRuns[run];
        if (extent.page_count > 0) extent.first_page += offset;
        // Rank prefixes count as list space (Table 1: HDIL's "Inv. List"
        // column is slightly larger than DIL's), not as entries.
        index.stats.list_pages += extent.page_count;
        index.stats.list_used_bytes += extent.byte_count;
      }
    }
  }

  // Auxiliary structures allocate absolute page pointers, so they are
  // written here on the coordinator, in term order.
  uint32_t index_pages_before = file->page_count();
  storage::SharedPagePacker packer(file.get());
  for (size_t t = 0; t < terms.size(); ++t) {
    EncodedTerm& term = encoded[t];
    if (write_aux) {
      XRANK_RETURN_NOT_OK(write_aux(file.get(), &packer, term.aux, &term.info));
    }
    index.stats.entry_count += term.info.list.entry_count;
    index.lexicon.Add(terms[t]->first, std::move(term.info));
  }
  index.stats.index_pages = file->page_count() - index_pages_before;

  XRANK_RETURN_NOT_OK(
      WriteIndexTrailer(file.get(), kind, index.lexicon, &index.stats));
  index.file = std::move(file);
  return index;
}

}  // namespace xrank::index
