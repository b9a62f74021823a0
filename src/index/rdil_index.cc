#include "index/rdil_index.h"

#include <algorithm>

namespace xrank::index {

Result<BuiltIndex> BuildRdilIndex(const TermPostingsMap& dewey_postings,
                                  std::unique_ptr<storage::PageFile> file,
                                  const BuildOptions& build) {
  // The dense B+-tree is keyed by Dewey ID, so the staged (ID, location)
  // pairs are sorted by ID, out of list order.
  return BuildIndexFile(
      IndexKind::kRdil, dewey_postings, std::move(file), build,
      [](const DecodedBlock& postings, const TermSink& sink,
         EncodedTerm* out) -> Status {
        XRANK_RETURN_NOT_OK(EncodeRankList(postings, sink, out));
        std::sort(out->aux.begin(), out->aux.end(),
                  [](const auto& a, const auto& b) {
                    return dewey::IdLess(a.first, b.first);
                  });
        return Status::OK();
      },
      WriteBtree);
}

}  // namespace xrank::index
