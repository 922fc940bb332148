#include "engine/matrix_builder.h"

#include <algorithm>
#include <optional>
#include <span>

#include "common/simd.h"

namespace dpe::engine {

obs::MetricsRegistry& MatrixBuilder::Metrics() const {
  return options_.metrics != nullptr ? *options_.metrics
                                     : obs::MetricsRegistry::Default();
}

Result<distance::FeatureCache> MatrixBuilder::PrecomputeFeatures(
    const std::vector<sql::SelectQuery>& queries, size_t end) const {
  // Intern packs the SoA arena in log order, so a tile's query range
  // occupies one contiguous arena stripe and the tile's O(block²) pairs run
  // over warm, padding-free spans.
  std::vector<distance::RawQueryFeatures> raw(end);

  // Phase 1 — print + lex + featurize each query, one task per chunk.
  obs::TraceSpan featurize_span("build.featurize", options_.trace);
  DPE_RETURN_NOT_OK(common::ParallelForStatus(
      pool_, 0, end, std::max<size_t>(1, options_.block / 4),
      [&](size_t begin, size_t stop) -> Status {
        for (size_t q = begin; q < stop; ++q) {
          DPE_ASSIGN_OR_RETURN(raw[q],
                               distance::ExtractRawFeatures(queries[q]));
        }
        return Status::OK();
      }));
  featurize_span.End();

  // Phase 2 — intern serially (cheap; deterministic id assignment).
  obs::TraceSpan intern_span("build.intern", options_.trace);
  return distance::FeatureCache::Intern(std::move(raw));
}

Result<std::unique_ptr<distance::PreparedLog>> MatrixBuilder::PreparePrefix(
    const std::vector<sql::SelectQuery>& queries, size_t end,
    const distance::QueryDistanceMeasure& measure,
    const distance::MeasureContext& context,
    distance::FeatureCache* features) const {
  DPE_ASSIGN_OR_RETURN(*features, PrecomputeFeatures(queries, end));
  return measure.Prepare(std::span(queries).first(end), *features, context);
}

Result<distance::DistanceMatrix> MatrixBuilder::Build(
    const std::vector<sql::SelectQuery>& queries,
    const distance::QueryDistanceMeasure& measure,
    const distance::MeasureContext& context) const {
  distance::DistanceMatrix m(queries.size());
  DPE_RETURN_NOT_OK(
      ComputeRows(queries, measure, context, 0, queries.size(), &m));
  return m;
}

Status MatrixBuilder::ComputeRows(const std::vector<sql::SelectQuery>& queries,
                                  const distance::QueryDistanceMeasure& measure,
                                  const distance::MeasureContext& context,
                                  size_t first, size_t end,
                                  distance::DistanceMatrix* m) const {
  const size_t block = options_.block;
  if (block == 0) {
    return Status::InvalidArgument(
        "matrix builder: block must be >= 1 (got 0)");
  }
  // An explicitly requested kernel backend this CPU cannot run fails the
  // build loudly here; the per-pair dispatch below would otherwise degrade
  // silently (same distances, but not what the operator asked to measure).
  DPE_RETURN_NOT_OK(common::simd::ValidateBackend(context.kernel_backend));
  if (first > end || end > queries.size() || end > m->size()) {
    return Status::OutOfRange(
        "matrix builder: rows [" + std::to_string(first) + ", " +
        std::to_string(end) + ") outside a log of " +
        std::to_string(queries.size()) + " queries and a " +
        std::to_string(m->size()) + "-row matrix");
  }

  // The tiles: block x block squares of the lower triangle, aligned to
  // multiples of `block` and clipped to rows [first, end). Tile
  // (row block rb, column block cb) holds the cells (c, r) with r in row
  // block rb, c in column block cb and c < r.
  std::vector<std::pair<size_t, size_t>> tiles;
  for (size_t rb = first / block; rb * block < end; ++rb) {
    for (size_t cb = 0; cb <= rb; ++cb) tiles.emplace_back(rb, cb);
  }

  // Resolve instruments once per build — never inside the pair loops.
  obs::MetricsRegistry& metrics = Metrics();
  obs::Counter& distance_calls = metrics.counter(
      "distance.calls", {{"measure", std::string(measure.Name())}});
  metrics
      .gauge("kernel.backend",
             {{"backend",
               common::simd::BackendName(
                   common::simd::KernelsFor(context.kernel_backend).backend)}})
      .Set(1);

  obs::TraceSpan prepare_span(
      "build.prepare", options_.trace,
      &metrics.histogram("build.stage_ms", {{"stage", "prepare"}}));
  // `prepared` may view `features`, so `features` is declared first and
  // outlives it.
  distance::FeatureCache features;
  DPE_ASSIGN_OR_RETURN(
      const std::unique_ptr<distance::PreparedLog> prepared,
      PreparePrefix(queries, end, measure, context, &features));
  prepare_span.End();

  // One tile per chunk. Each cell belongs to exactly one tile, and so does
  // its mirror, so writing both halves inside the tile needs no second
  // pass.
  obs::TraceSpan tiles_span(
      "build.tiles", options_.trace,
      &metrics.histogram("build.stage_ms", {{"stage", "tiles"}}));
  const bool tile_spans =
      options_.trace != nullptr && options_.trace->enabled();
  DPE_RETURN_NOT_OK(common::ParallelForStatus(
      pool_, 0, tiles.size(), 1,
      [&](size_t begin, size_t stop) -> Status {
        for (size_t t = begin; t < stop; ++t) {
          const auto [rb, cb] = tiles[t];
          std::optional<obs::TraceSpan> tile_span;
          if (tile_spans) {
            tile_span.emplace("build.tile." + std::to_string(t),
                              options_.trace);
          }
          const size_t r_begin = std::max(first, rb * block);
          const size_t r_end = std::min(end, (rb + 1) * block);
          const size_t c_end = std::min(r_end, (cb + 1) * block);
          uint64_t tile_cells = 0;
          // Column-major within the tile: the smaller index goes first, as in
          // DistanceMatrix::Compute.
          for (size_t c = cb * block; c < c_end; ++c) {
            for (size_t r = std::max(r_begin, c + 1); r < r_end; ++r) {
              m->SetUnchecked(c, r, prepared->Distance(c, r));
              ++tile_cells;
            }
          }
          // One add per completed tile covers its whole cell set — per-pair
          // counting would perturb the hot path.
          distance_calls.Increment(tile_cells);
          if (options_.progress_cells != nullptr) {
            options_.progress_cells->fetch_add(tile_cells,
                                               std::memory_order_relaxed);
          }
        }
        return Status::OK();
      }));
  tiles_span.End();
  return Status::OK();
}

}  // namespace dpe::engine
