#include "query/rdil_query.h"

#include "common/timer.h"
#include "query/threshold_scan.h"
#include "query/trace.h"
#include "storage/btree.h"

namespace xrank::query {

RdilQueryProcessor::RdilQueryProcessor(storage::BufferPool* pool,
                                       const index::Lexicon* lexicon,
                                       const ScoringOptions& scoring)
    : pool_(pool), lexicon_(lexicon), scoring_(scoring) {}

Result<QueryResponse> RdilQueryProcessor::Execute(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options) {
  WallTimer timer;
  CostSnapshot before = TakeSnapshot(pool_->cost_model());
  QueryResponse response;
  std::vector<const index::TermInfo*> infos;
  XRANK_RETURN_NOT_OK(
      FindEveryTerm(*lexicon_, keywords, scoring_, options.trace, &infos));
  if (infos.empty()) {
    response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
    return response;
  }
  const index::PostingFormat format =
      lexicon_->ListFormat(/*delta_encode_ids=*/false);
  std::vector<index::PostingListCursor> cursors;
  std::vector<storage::BtreeReader> btrees;
  cursors.reserve(infos.size());
  btrees.reserve(infos.size());
  {
    ScopedSpan span(options.trace, "cursor_open");
    for (const index::TermInfo* info : infos) {
      cursors.emplace_back(pool_, info->list, format);
      btrees.emplace_back(pool_, info->btree_root);
    }
  }
  ThresholdScan scan(std::move(cursors), m, options,
                     ThresholdScan::DryList::kSkip, &response);

  // Each keyword's dense B+-tree maps a Dewey id to its posting in the
  // rank-ordered list, so a subtree is a range scan of the tree followed by
  // random reads of the postings it names (the RDIL cost the paper
  // discusses).
  index::DecodedBlock block;  // the page of the posting being read
  const ThresholdScan::DeweyProbes probes{
      [&](size_t j, const dewey::DeweyId& key) {
        return btrees[j].LongestCommonPrefixWith(key);
      },
      [&](size_t j, const dewey::DeweyId& prefix,
          const ThresholdScan::PostingVisitor& visit) -> Status {
        std::vector<uint64_t> locations;
        XRANK_RETURN_NOT_OK(btrees[j].ScanPrefix(
            prefix, [&](const storage::BtreeEntry& entry) {
              locations.push_back(entry.value);
              return true;
            }));
        for (uint64_t loc : locations) {
          XRANK_ASSIGN_OR_RETURN(
              index::PostingView posting,
              index::ReadPostingAt(pool_, infos[j]->list,
                                   index::DecodePostingLocation(loc), format,
                                   &block));
          visit(posting);
        }
        return Status::OK();
      }};
  XRANK_RETURN_NOT_OK(
      scan.Run([&](size_t k, const index::PostingView& entry) {
            return scan.ProbeAndVerify(k, entry, probes, scoring_);
          })
          .status());
  scan.RecordTerms(keywords, lexicon_->codec_name());
  scan.TakeTop();
  response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
  FillIoStats(pool_->cost_model(), before, &response.stats);
  return response;
}

}  // namespace xrank::query
