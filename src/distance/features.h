// Per-query feature precomputation — the fix for the O(n²) re-tokenization
// in the token-family measures.
//
// The reference Distance(q1, q2) re-prints and re-lexes *both* queries: an
// n-query matrix built that way performs O(n²) feature extractions for an
// O(n) input. A FeatureCache extracts each query's features exactly once —
// canonical SQL text, interned token ids (sorted set + ordered sequence),
// interned structure-feature ids — and the measures' prepared logs
// (distance/measure.h) then run SIMD merge/edit kernels over sorted id
// spans, read by log index, instead of re-lexing SQL per pair.
//
// Storage is structure-of-arrays: every interned id of every query lives in
// ONE flat uint32_t arena, laid out per query in log order
// ([token_seq][token_ids][structure_ids], queries back to back), and a
// QueryFeatures holds spans into it instead of per-query std::vectors.
// That keeps a tile's worth of queries contiguous in memory — the engine's
// blocked MatrixBuilder walks tiles over contiguous query ranges, so a
// tile's O(block²) pairs hit a warm arena instead of block² scattered heap
// allocations — and hands the SIMD kernels (common/simd.h) properly
// aligned, padding-free input. The spans alias the cache's arena: they are
// valid exactly as long as the FeatureCache lives, and the cache is
// move-only so a copy can never silently dangle them.
//
// Bit-identity: interning is a bijection on the strings/features actually
// seen, and the Jaccard / edit distances depend only on element (in)equality
// and set cardinalities, which any bijection preserves. So the featurized
// distances are bit-identical to the un-featurized reference path — a tested
// property, not a best-effort one.
//
// Extraction is split in two phases so the engine's MatrixBuilder can run
// phase 1 in parallel:
//   1. ExtractRawFeatures(q)  — print + lex + featurize one query;
//      independent per query, safe to run on any thread.
//   2. FeatureCache::Intern   — assign ids across the whole log and pack
//      the arena; serial, cheap (hash-map inserts over already-extracted
//      strings).
// FeatureCache::Compute does both serially.

#ifndef DPE_DISTANCE_FEATURES_H_
#define DPE_DISTANCE_FEATURES_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/features.h"

namespace dpe::distance {

/// Everything the log-only measures need about one query, computed once.
/// The spans point into the owning FeatureCache's arena (SoA layout above).
struct QueryFeatures {
  /// Canonical SQL text (sql::ToSql).
  std::string sql;
  /// Interned lexeme id of every token, in token order (Levenshtein).
  std::span<const uint32_t> token_seq;
  /// Sorted unique interned lexeme ids (token-set Jaccard).
  std::span<const uint32_t> token_ids;
  /// Sorted unique interned structure-feature ids (structure Jaccard).
  std::span<const uint32_t> structure_ids;
};

/// Phase-1 output: one query's features before interning. Produced
/// independently per query, so parallel extraction needs no shared state.
struct RawQueryFeatures {
  std::string sql;
  std::vector<std::string> token_seq;   ///< lexemes, in token order
  std::vector<sql::Feature> structure;  ///< sorted (std::set iteration order)
};

/// Prints, lexes and featurizes one query (phase 1).
Result<RawQueryFeatures> ExtractRawFeatures(const sql::SelectQuery& query);

/// Precomputed features of a query log, addressed by log index: entry i
/// belongs to the i-th query the cache was computed from. Move-only:
/// QueryFeatures spans alias the arena, so moving transfers them validly
/// (the arena's heap buffer moves with it) but copying would leave the
/// copy's spans aliasing the original.
///
/// Threading contract: the cache is built once (Build populates the SoA
/// arena, possibly via ParallelFor) and is immutable afterwards, so
/// concurrent readers need no lock — the build/read phase boundary is the
/// synchronization point (ParallelFor's completion latch publishes the
/// arena to all pool threads). There is deliberately no mutex here; adding
/// per-lookup locking would put a lock in the O(n²) pair hot path.
class FeatureCache {
 public:
  FeatureCache() = default;
  FeatureCache(FeatureCache&&) = default;
  FeatureCache& operator=(FeatureCache&&) = default;
  FeatureCache(const FeatureCache&) = delete;
  FeatureCache& operator=(const FeatureCache&) = delete;

  /// Extracts + interns every query, serially.
  static Result<FeatureCache> Compute(
      const std::vector<sql::SelectQuery>& queries);

  /// Phase 2: interns already-extracted raw features; entry i is `raw[i]`.
  /// Arena order follows input order, so callers passing queries in log
  /// order get the tile-contiguous layout the blocked builder wants.
  static FeatureCache Intern(std::vector<RawQueryFeatures> raw);

  /// Features of query i; i must be < size().
  const QueryFeatures& operator[](size_t i) const {
    assert(i < features_.size() && "FeatureCache index out of range");
    return features_[i];
  }

  size_t size() const { return features_.size(); }

  /// The flat id pool (exposed for tests and layout-aware benches).
  const std::vector<uint32_t>& arena() const { return arena_; }

 private:
  std::vector<QueryFeatures> features_;
  /// One flat pool of interned ids; QueryFeatures spans slice it. Reserved
  /// to its exact upper bound before any span is taken, so it never
  /// reallocates while (or after) spans are created.
  std::vector<uint32_t> arena_;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_FEATURES_H_
