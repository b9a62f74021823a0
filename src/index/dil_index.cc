#include "index/dil_index.h"

namespace xrank::index {

Result<BuiltIndex> BuildDilIndex(const TermPostingsMap& dewey_postings,
                                 std::unique_ptr<storage::PageFile> file,
                                 const BuildOptions& build) {
  return BuildIndexFile(
      IndexKind::kDil, dewey_postings, std::move(file), build,
      [](const std::vector<Posting>& postings, const TermSink& sink,
         EncodedTerm* out) {
        return EncodeDeweyList(postings, sink, /*stage_separators=*/false,
                               out);
      });
}

}  // namespace xrank::index
