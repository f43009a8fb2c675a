#ifndef QCONT_SERVERBENCH_VERIFY_H_
#define QCONT_SERVERBENCH_VERIFY_H_

// Response bookkeeping during the timed loop (cheap: a status check and one
// digest per response) and the untimed pass that checks every distinct
// result against an independent oracle.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "corpus.h"

namespace serverbench {

/// Per-line record of the responses seen. Sized from the corpus before the
/// server is built; the result texts kept for the untimed pass are the only
/// allocations made while timing, and `StoredBytes` reports them so the
/// peak-RSS figure can leave them out.
class Tally {
 public:
  explicit Tally(const Corpus& corpus);

  /// Records the response to line `index`. Returns its cache marker
  /// ("hit", "miss", "coalesced", "none") for the caller's accounting.
  std::string_view Record(std::uint32_t index, const std::string& response);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t not_ok() const { return not_ok_; }
  std::size_t StoredBytes() const { return stored_bytes_; }

  /// The untimed pass: checks every distinct (line, result) seen and
  /// returns how many recorded responses failed, status errors included.
  /// `first_error` receives one example message.
  std::uint64_t Verify(std::string* first_error) const;

 private:
  const Corpus& corpus_;
  std::vector<std::uint64_t> first_digest_;  // 0 = line not seen yet
  std::vector<std::uint32_t> first_count_;   // responses equal to the first
  std::vector<std::string> first_result_;    // containment/analyze only
  /// Results of a line that differ from its first (e.g. a witness chosen
  /// differently after eviction); each is checked on its own.
  std::vector<std::pair<std::uint32_t, std::string>> variants_;
  std::uint64_t attempted_ = 0;
  std::uint64_t not_ok_ = 0;
  std::uint64_t eval_mismatches_ = 0;
  std::string first_not_ok_;
  std::size_t stored_bytes_ = 0;
};

}  // namespace serverbench

#endif  // QCONT_SERVERBENCH_VERIFY_H_
