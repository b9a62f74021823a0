#include "index/rdil_index.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "storage/btree.h"

namespace xrank::index {

namespace {

// One worker's output for a contiguous term shard: the rank-ordered lists
// in a scratch page file plus the staged B+-tree loads (posting locations
// are relative to each list's page run, so they need no rebasing).
struct RdilShardOutput {
  std::unique_ptr<storage::PageFile> scratch;
  std::vector<ListExtent> extents;  // one per term, shard order
  std::vector<std::vector<std::pair<dewey::DeweyId, uint64_t>>> tree_entries;
  Status status = Status::OK();
};

Status EncodeRdilShard(
    const std::vector<const TermPostingsMap::value_type*>& terms,
    size_t begin, size_t end, const PostingFormat& format,
    RdilShardOutput* out) {
  out->scratch = storage::PageFile::CreateInMemory();
  out->extents.reserve(end - begin);
  out->tree_entries.reserve(end - begin);
  for (size_t t = begin; t < end; ++t) {
    const std::vector<Posting>& postings = terms[t]->second;
    PostingListWriter writer(out->scratch.get(), format);
    std::vector<std::pair<dewey::DeweyId, uint64_t>> entries;
    entries.reserve(postings.size());
    for (const Posting* posting : SortByRank(postings)) {
      XRANK_ASSIGN_OR_RETURN(PostingLocation loc, writer.Add(*posting));
      entries.emplace_back(posting->id, EncodePostingLocation(loc));
    }
    XRANK_ASSIGN_OR_RETURN(ListExtent extent, writer.Finish());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out->extents.push_back(extent);
    out->tree_entries.push_back(std::move(entries));
  }
  return Status::OK();
}

}  // namespace

Result<BuiltIndex> BuildRdilIndex(const TermPostingsMap& dewey_postings,
                                  std::unique_ptr<storage::PageFile> file,
                                  const BuildOptions& build) {
  BuiltIndex index;
  index.kind = IndexKind::kRdil;
  XRANK_RETURN_NOT_OK(index.lexicon.SetFormatSpec(build.format));
  // Rank order destroys prefix locality, so IDs are stored raw.
  const PostingFormat format =
      index.lexicon.ListFormat(/*delta_encode_ids=*/false);
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

  // Phase 1: the rank-ordered lists. Lists must occupy consecutive pages,
  // so workers encode complete per-term page runs into scratch files and
  // the coordinator splices them back in term order.
  size_t num_workers =
      std::min(ResolveBuildThreads(build.num_threads), terms.size());
  std::vector<std::pair<size_t, size_t>> shards =
      PartitionByWeight(weights, std::max<size_t>(num_workers, 1));

  std::vector<RdilShardOutput> outputs(shards.size());
  if (num_workers <= 1) {
    for (size_t s = 0; s < shards.size(); ++s) {
      outputs[s].status = EncodeRdilShard(terms, shards[s].first,
                                          shards[s].second, format,
                                          &outputs[s]);
    }
  } else {
    ThreadPool pool(static_cast<int>(num_workers));
    pool.ParallelFor(0, shards.size(), 1,
                     [&](size_t begin, size_t end, size_t) {
                       for (size_t s = begin; s < end; ++s) {
                         outputs[s].status = EncodeRdilShard(
                             terms, shards[s].first, shards[s].second,
                             format, &outputs[s]);
                       }
                     });
  }

  for (size_t s = 0; s < shards.size(); ++s) {
    XRANK_RETURN_NOT_OK(outputs[s].status);
    XRANK_ASSIGN_OR_RETURN(storage::PageId offset,
                           AppendScratchPages(file.get(), *outputs[s].scratch));
    for (size_t i = 0; i < outputs[s].extents.size(); ++i) {
      ListExtent extent = outputs[s].extents[i];
      if (extent.page_count > 0) extent.first_page += offset;
      index.stats.list_pages += extent.page_count;
      index.stats.list_used_bytes += extent.byte_count;
      index.stats.entry_count += extent.entry_count;
      TermInfo info;
      info.list = extent;
      index.lexicon.Add(terms[shards[s].first + i]->first, info);
    }
  }

  // Phase 2: one dense B+-tree per term, keyed by Dewey ID. Short trees
  // share pages through the packer; tree loads allocate absolute page
  // pointers, so this phase stays on the coordinator.
  uint32_t index_pages_before = file->page_count();
  storage::SharedPagePacker packer(file.get());
  for (size_t s = 0; s < shards.size(); ++s) {
    for (size_t i = 0; i < outputs[s].tree_entries.size(); ++i) {
      storage::BtreeBuilder builder(file.get(), &packer);
      for (const auto& [id, value] : outputs[s].tree_entries[i]) {
        XRANK_RETURN_NOT_OK(builder.Add(id, value));
      }
      XRANK_ASSIGN_OR_RETURN(storage::BtreeBuilder::BuildStats tree_stats,
                             builder.Finish());
      const std::string& term = terms[shards[s].first + i]->first;
      const TermInfo* existing = index.lexicon.Find(term);
      TermInfo info = *existing;
      info.btree_root = tree_stats.root;
      index.lexicon.Add(term, info);
    }
  }
  index.stats.index_pages = file->page_count() - index_pages_before;

  XRANK_RETURN_NOT_OK(WriteIndexTrailer(file.get(), IndexKind::kRdil,
                                        index.lexicon, &index.stats));
  index.file = std::move(file);
  return index;
}

}  // namespace xrank::index
