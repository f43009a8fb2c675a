#ifndef QCONT_SERVERBENCH_CORPUS_H_
#define QCONT_SERVERBENCH_CORPUS_H_

// Seeded request streams for the qcont_server benchmark (README.md). The
// corpus is a pure function of (workload, seed): every distinct request line
// is stored once, and the set-up and timed streams replay them by index.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace serverbench {

enum class Op : std::uint8_t { kContainment, kAnalyze, kEval };

/// What the generator knows about a request line, for checking its response.
struct LineInfo {
  Op op = Op::kContainment;
  /// containment/analyze: every disjunct of Θ is acyclic (so the router
  /// must pick the ACk engine and the report must say "acyclic":true).
  bool acyclic = false;
  /// eval: digest (ResultDigest) of the exact expected result object,
  /// rendered from a BFS transitive closure.
  std::uint64_t expected = 0;
};

/// One workload's server configuration and client shape.
struct WorkloadSpec {
  const char* name;
  int threads;        // ServerOptions::threads
  std::size_t batch;  // requests per HandleBatch call
};

/// The workload called `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

struct Corpus {
  std::vector<std::string> lines;  // each distinct request line, once
  std::vector<LineInfo> info;      // parallel to `lines`
  /// Set-up stream: brings a fresh server to steady state (working set
  /// loaded, caches full). Sent in order, `batch` lines per call.
  std::vector<std::uint32_t> setup;
  /// Timed stream: replayed cyclically, `batch` lines per call. Its length
  /// is a multiple of `batch`.
  std::vector<std::uint32_t> timed;
  std::size_t batch = 1;

  /// FNV-1a digest of the lines and both streams: equal seeds give equal
  /// digests, so a recorded result names the exact bytes it measured.
  std::uint64_t Digest() const;
  /// Heap bytes held by the corpus (lines plus index streams).
  std::size_t Bytes() const;
};

Corpus BuildCorpus(const WorkloadSpec& workload, std::uint64_t seed);

/// Digest of a response's "result" object. Used both for the expected eval
/// results and for comparing repeated responses of one line.
std::uint64_t ResultDigest(std::string_view result);

}  // namespace serverbench

#endif  // QCONT_SERVERBENCH_CORPUS_H_
