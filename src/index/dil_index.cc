#include "index/dil_index.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace xrank::index {

namespace {

// One worker's output: a scratch page file holding the complete page runs
// of a contiguous term shard, plus the extent of each term's list relative
// to the scratch file.
struct DilShardOutput {
  std::unique_ptr<storage::PageFile> scratch;
  std::vector<ListExtent> extents;  // one per term, shard order
  // Skip-block descriptors per term; page indices are relative to each
  // list's run, so they need no rebasing after the splice.
  std::vector<std::vector<SkipEntry>> skips;
  std::vector<float> max_doc_ranks;  // per-term sum-aggregation bound
  Status status = Status::OK();
};

Status EncodeDilShard(
    const std::vector<const TermPostingsMap::value_type*>& terms,
    size_t begin, size_t end, const PostingFormat& format,
    DilShardOutput* out) {
  out->scratch = storage::PageFile::CreateInMemory();
  out->extents.reserve(end - begin);
  out->skips.reserve(end - begin);
  out->max_doc_ranks.reserve(end - begin);
  for (size_t t = begin; t < end; ++t) {
    PostingListWriter writer(out->scratch.get(), format);
    for (const Posting& posting : terms[t]->second) {
      XRANK_RETURN_NOT_OK(writer.Add(posting).status());
    }
    XRANK_ASSIGN_OR_RETURN(ListExtent extent, writer.Finish());
    out->extents.push_back(extent);
    out->skips.push_back(writer.TakeSkips());
    out->max_doc_ranks.push_back(writer.max_doc_rank());
  }
  return Status::OK();
}

}  // namespace

Result<BuiltIndex> BuildDilIndex(const TermPostingsMap& dewey_postings,
                                 std::unique_ptr<storage::PageFile> file,
                                 const BuildOptions& build) {
  BuiltIndex index;
  index.kind = IndexKind::kDil;
  XRANK_RETURN_NOT_OK(index.lexicon.SetFormatSpec(build.format));
  const PostingFormat format =
      index.lexicon.ListFormat(/*delta_encode_ids=*/true);
  // Page 0 is the header, filled in by WriteIndexTrailer.
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

  // Workers encode complete per-term page runs into scratch files; the
  // coordinator splices them back in term order, so the file bytes match
  // the sequential build exactly.
  std::vector<DilShardOutput> outputs(shards.size());
  if (num_workers <= 1) {
    for (size_t s = 0; s < shards.size(); ++s) {
      outputs[s].status = EncodeDilShard(terms, shards[s].first,
                                         shards[s].second, format,
                                         &outputs[s]);
    }
  } else {
    ThreadPool pool(static_cast<int>(num_workers));
    pool.ParallelFor(0, shards.size(), 1,
                     [&](size_t begin, size_t end, size_t) {
                       for (size_t s = begin; s < end; ++s) {
                         outputs[s].status = EncodeDilShard(
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
      info.skips = std::move(outputs[s].skips[i]);
      info.max_doc_rank = outputs[s].max_doc_ranks[i];
      index.lexicon.Add(terms[shards[s].first + i]->first, std::move(info));
    }
  }

  XRANK_RETURN_NOT_OK(WriteIndexTrailer(file.get(), IndexKind::kDil,
                                        index.lexicon, &index.stats));
  index.file = std::move(file);
  return index;
}

}  // namespace xrank::index
