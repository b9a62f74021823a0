#include "index/rdil_index.h"

#include <algorithm>

namespace xrank::index {

Result<BuiltIndex> BuildRdilIndex(const TermPostingsMap& dewey_postings,
                                  std::unique_ptr<storage::PageFile> file,
                                  const BuildOptions& build) {
  // The dense B+-tree is keyed by Dewey ID, so the staged (posting,
  // location) pairs are sorted by ID, out of list order.
  return BuildIndexFile(
      IndexKind::kRdil, dewey_postings, std::move(file), build,
      [](const std::vector<Posting>& postings, const TermSink& sink,
         EncodedTerm* out) -> Status {
        XRANK_RETURN_NOT_OK(EncodeRankList(postings, sink, out));
        std::sort(out->aux.begin(), out->aux.end(),
                  [](const auto& a, const auto& b) {
                    return a.first->id < b.first->id;
                  });
        return Status::OK();
      },
      WriteBtree);
}

}  // namespace xrank::index
