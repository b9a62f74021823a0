#include "index/hdil_index.h"

#include <algorithm>

namespace xrank::index {

Result<BuiltIndex> BuildHdilIndex(const TermPostingsMap& dewey_postings,
                                  std::unique_ptr<storage::PageFile> file,
                                  const HdilOptions& options,
                                  const BuildOptions& build) {
  // The full Dewey-ordered list is DIL's; it doubles as the leaf level of a
  // sparse B+-tree that stores only one separator per list page (Section
  // 4.4.1).
  auto encode = [&options](const std::vector<Posting>& postings,
                           const TermSink& sink, EncodedTerm* out) -> Status {
    XRANK_RETURN_NOT_OK(
        EncodeDeweyList(postings, sink, /*stage_separators=*/true, out));
    // The rank-ordered prefix: the top max(min_rank_entries, fraction * n)
    // postings by ElemRank, with raw IDs.
    size_t keep = std::max<size_t>(
        options.min_rank_entries,
        static_cast<size_t>(options.rank_fraction *
                            static_cast<double>(postings.size())));
    keep = std::min(keep, postings.size());
    std::vector<const Posting*> rank_prefix = SortByRank(postings);
    rank_prefix.resize(keep);
    PostingListWriter writer(sink.rank_lists, sink.raw_format);
    for (const Posting* posting : rank_prefix) {
      XRANK_RETURN_NOT_OK(writer.Add(*posting).status());
    }
    XRANK_ASSIGN_OR_RETURN(out->info.rank_list, writer.Finish());
    return Status::OK();
  };
  return BuildIndexFile(IndexKind::kHdil, dewey_postings, std::move(file),
                        build, encode, WriteBtree);
}

}  // namespace xrank::index
