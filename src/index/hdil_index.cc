#include "index/hdil_index.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "storage/btree.h"

namespace xrank::index {

namespace {

// One worker's output for a contiguous term shard. The sequential layout
// places every full list before every rank-prefix list, so the two phases
// land in separate scratch files and the coordinator splices all phase-1
// runs first, then all phase-2 runs. Page separators store page indices
// relative to each list's run, so they need no rebasing.
struct HdilShardOutput {
  std::unique_ptr<storage::PageFile> dewey_scratch;
  std::unique_ptr<storage::PageFile> rank_scratch;
  std::vector<ListExtent> dewey_extents;  // one per term, shard order
  std::vector<ListExtent> rank_extents;   // one per term, shard order
  std::vector<std::vector<std::pair<dewey::DeweyId, uint64_t>>> separators;
  // Skip-block descriptors for the full Dewey lists (page indices relative
  // to each list's run).
  std::vector<std::vector<SkipEntry>> skips;
  std::vector<float> max_doc_ranks;  // per-term sum-aggregation bound
  Status status = Status::OK();
};

Status EncodeHdilShard(
    const std::vector<const TermPostingsMap::value_type*>& terms,
    size_t begin, size_t end, const HdilOptions& options,
    const PostingFormat& format, HdilShardOutput* out) {
  out->dewey_scratch = storage::PageFile::CreateInMemory();
  out->rank_scratch = storage::PageFile::CreateInMemory();
  out->dewey_extents.reserve(end - begin);
  out->rank_extents.reserve(end - begin);
  out->separators.reserve(end - begin);
  out->max_doc_ranks.reserve(end - begin);
  for (size_t t = begin; t < end; ++t) {
    const std::vector<Posting>& postings = terms[t]->second;

    // Phase 1: the full Dewey-ordered list (same physical format as DIL),
    // capturing one separator per full-list page.
    PostingListWriter writer(out->dewey_scratch.get(), format);
    std::vector<std::pair<dewey::DeweyId, uint64_t>> separators;
    for (const Posting& posting : postings) {
      XRANK_ASSIGN_OR_RETURN(PostingLocation loc, writer.Add(posting));
      if (loc.slot == 0) {
        separators.emplace_back(posting.id, loc.page_index);
      }
    }
    XRANK_ASSIGN_OR_RETURN(ListExtent extent, writer.Finish());
    out->dewey_extents.push_back(extent);
    out->separators.push_back(std::move(separators));
    out->skips.push_back(writer.TakeSkips());
    out->max_doc_ranks.push_back(writer.max_doc_rank());

    // Select the rank-ordered prefix: top max(min_rank_entries,
    // fraction * n) postings by ElemRank.
    size_t keep = std::max<size_t>(
        options.min_rank_entries,
        static_cast<size_t>(options.rank_fraction *
                            static_cast<double>(postings.size())));
    keep = std::min(keep, postings.size());
    std::vector<const Posting*> rank_prefix = SortByRank(postings);
    rank_prefix.resize(keep);

    // Phase 2: the rank-ordered prefix list (raw IDs: rank order destroys
    // prefix locality).
    PostingFormat rank_format = format;
    rank_format.delta_encode_ids = false;
    PostingListWriter rank_writer(out->rank_scratch.get(), rank_format);
    for (const Posting* posting : rank_prefix) {
      XRANK_RETURN_NOT_OK(rank_writer.Add(*posting).status());
    }
    XRANK_ASSIGN_OR_RETURN(ListExtent rank_extent, rank_writer.Finish());
    out->rank_extents.push_back(rank_extent);
  }
  return Status::OK();
}

}  // namespace

Result<BuiltIndex> BuildHdilIndex(const TermPostingsMap& dewey_postings,
                                  std::unique_ptr<storage::PageFile> file,
                                  const HdilOptions& options,
                                  const BuildOptions& build) {
  BuiltIndex index;
  index.kind = IndexKind::kHdil;
  XRANK_RETURN_NOT_OK(index.lexicon.SetFormatSpec(build.format));
  const PostingFormat format =
      index.lexicon.ListFormat(/*delta_encode_ids=*/true);
  XRANK_ASSIGN_OR_RETURN(storage::PageId header_page, file->Allocate());
  if (header_page != 0) return Status::Internal("header page must be 0");

  std::vector<const TermPostingsMap::value_type*> terms;
  terms.reserve(dewey_postings.size());
  std::vector<uint64_t> weights;
  weights.reserve(dewey_postings.size());
  for (const auto& entry : dewey_postings) {
    terms.push_back(&entry);
    weights.push_back(entry.second.size() + 1);
  }

  size_t num_workers =
      std::min(ResolveBuildThreads(build.num_threads), terms.size());
  std::vector<std::pair<size_t, size_t>> shards =
      PartitionByWeight(weights, std::max<size_t>(num_workers, 1));

  std::vector<HdilShardOutput> outputs(shards.size());
  if (num_workers <= 1) {
    for (size_t s = 0; s < shards.size(); ++s) {
      outputs[s].status =
          EncodeHdilShard(terms, shards[s].first, shards[s].second, options,
                          format, &outputs[s]);
    }
  } else {
    ThreadPool pool(static_cast<int>(num_workers));
    pool.ParallelFor(0, shards.size(), 1,
                     [&](size_t begin, size_t end, size_t) {
                       for (size_t s = begin; s < end; ++s) {
                         outputs[s].status = EncodeHdilShard(
                             terms, shards[s].first, shards[s].second,
                             options, format, &outputs[s]);
                       }
                     });
  }

  // Phase 1 splice: the full Dewey-ordered lists of every shard, in term
  // order.
  for (size_t s = 0; s < shards.size(); ++s) {
    XRANK_RETURN_NOT_OK(outputs[s].status);
    XRANK_ASSIGN_OR_RETURN(
        storage::PageId offset,
        AppendScratchPages(file.get(), *outputs[s].dewey_scratch));
    for (size_t i = 0; i < outputs[s].dewey_extents.size(); ++i) {
      ListExtent extent = outputs[s].dewey_extents[i];
      if (extent.page_count > 0) extent.first_page += offset;
      index.stats.list_pages += extent.page_count;
      index.stats.list_used_bytes += extent.byte_count;
      index.stats.entry_count += extent.entry_count;
      TermInfo info;
      info.list = extent;
      info.skips = std::move(outputs[s].skips[i]);
      info.max_doc_rank = outputs[s].max_doc_ranks[i];
      index.lexicon.Add(terms[shards[s].first + i]->first, std::move(info));
    }
  }

  // Phase 2 splice: rank-ordered prefix lists (counted as list space: they
  // are inverted-list data, mirroring Table 1 where HDIL's "Inv. List"
  // column is slightly larger than DIL's).
  for (size_t s = 0; s < shards.size(); ++s) {
    XRANK_ASSIGN_OR_RETURN(
        storage::PageId offset,
        AppendScratchPages(file.get(), *outputs[s].rank_scratch));
    for (size_t i = 0; i < outputs[s].rank_extents.size(); ++i) {
      ListExtent extent = outputs[s].rank_extents[i];
      if (extent.page_count > 0) extent.first_page += offset;
      index.stats.list_pages += extent.page_count;
      index.stats.list_used_bytes += extent.byte_count;
      const std::string& term = terms[shards[s].first + i]->first;
      TermInfo info = *index.lexicon.Find(term);
      info.rank_list = extent;
      index.lexicon.Add(term, info);
    }
  }

  // Phase 3: sparse B+-trees — only the levels above the list pages are
  // stored (the full list acts as the leaf level, Section 4.4.1). Tree
  // loads allocate absolute page pointers, so this stays on the
  // coordinator.
  uint32_t index_pages_before = file->page_count();
  storage::SharedPagePacker packer(file.get());
  for (size_t s = 0; s < shards.size(); ++s) {
    for (size_t i = 0; i < outputs[s].separators.size(); ++i) {
      storage::BtreeBuilder builder(file.get(), &packer);
      for (const auto& [id, page_index] : outputs[s].separators[i]) {
        XRANK_RETURN_NOT_OK(builder.Add(id, page_index));
      }
      XRANK_ASSIGN_OR_RETURN(storage::BtreeBuilder::BuildStats tree_stats,
                             builder.Finish());
      const std::string& term = terms[shards[s].first + i]->first;
      TermInfo info = *index.lexicon.Find(term);
      info.btree_root = tree_stats.root;
      index.lexicon.Add(term, info);
    }
  }
  index.stats.index_pages = file->page_count() - index_pages_before;

  XRANK_RETURN_NOT_OK(WriteIndexTrailer(file.get(), IndexKind::kHdil,
                                        index.lexicon, &index.stats));
  index.file = std::move(file);
  return index;
}

}  // namespace xrank::index
