#include "engine/shard.h"

#include "engine/matrix_builder.h"

namespace dpe::engine {

Result<ShardPlan> PlanShards(size_t n, size_t block, size_t shard_count) {
  if (block == 0) {
    return Status::InvalidArgument("shard plan: block must be >= 1 (got 0)");
  }
  if (shard_count == 0) {
    return Status::InvalidArgument(
        "shard plan: shard count must be >= 1 (got 0)");
  }
  ShardPlan plan;
  plan.n = n;
  plan.block = block;
  plan.tile_count = TileCount(n, block);

  // Cumulative cell count per tile: diagonal tiles hold roughly half the
  // cells of square ones, so cutting by tile index alone would load the
  // first shard (which owns the diagonal-heavy prefix rows) unevenly.
  const std::vector<std::pair<size_t, size_t>> tiles = TileSchedule(n, block);
  std::vector<size_t> cumulative(tiles.size() + 1, 0);
  for (size_t t = 0; t < tiles.size(); ++t) {
    cumulative[t + 1] = cumulative[t] + TileCellCount(n, block, tiles[t].first,
                                                      tiles[t].second);
  }
  const size_t total_cells = cumulative.back();

  // Shard s gets the tiles whose cumulative cell count falls in
  // [total*s/k, total*(s+1)/k) — contiguous, disjoint, covering, and
  // balanced to within one tile's worth of cells. Cuts depend only on
  // (n, block, k), so every participant derives the identical plan.
  plan.ranges.reserve(shard_count);
  size_t cursor = 0;
  for (size_t s = 0; s < shard_count; ++s) {
    const size_t target = total_cells * (s + 1) / shard_count;
    TileRange range;
    range.begin = cursor;
    // Zero-cell tiles never stall this cut: they leave the cumulative count
    // unchanged, so `<=` consumes them — and the last shard's target is
    // total_cells exactly, which consumes every remaining tile.
    while (cursor < tiles.size() && cumulative[cursor + 1] <= target) {
      ++cursor;
    }
    range.end = cursor;
    plan.ranges.push_back(range);
  }
  return plan;
}

namespace {

Status ValidatePlan(const ShardPlan& plan, size_t shard_index, size_t n) {
  if (plan.block == 0) {
    return Status::InvalidArgument("shard worker: plan has block 0");
  }
  if (plan.n != n) {
    return Status::InvalidArgument(
        "shard worker: plan is for n = " + std::to_string(plan.n) +
        " queries but the log holds " + std::to_string(n));
  }
  if (plan.tile_count != TileCount(plan.n, plan.block)) {
    return Status::InvalidArgument(
        "shard worker: plan declares " + std::to_string(plan.tile_count) +
        " tiles; the schedule has " +
        std::to_string(TileCount(plan.n, plan.block)));
  }
  if (shard_index >= plan.shard_count()) {
    return Status::InvalidArgument(
        "shard worker: shard index " + std::to_string(shard_index) +
        " outside plan of " + std::to_string(plan.shard_count()) + " shards");
  }
  return Status::OK();
}

}  // namespace

Result<store::ShardManifest> ShardWorker::Run(
    const std::string& matrix_name,
    const std::vector<sql::SelectQuery>& queries,
    const distance::QueryDistanceMeasure& measure,
    const distance::MeasureContext& context, const ShardPlan& plan,
    size_t shard_index, store::MatrixStore& store) const {
  DPE_RETURN_NOT_OK(ValidatePlan(plan, shard_index, queries.size()));
  const TileRange& range = plan.ranges[shard_index];

  obs::MetricsRegistry& metrics =
      metrics_ != nullptr ? *metrics_ : obs::MetricsRegistry::Default();
  obs::TraceSpan run_span("shard.run", trace_);

  MatrixBuilder builder(
      pool_,
      MatrixBuilderOptions{plan.block, &metrics, trace_, progress_cells_});
  DPE_ASSIGN_OR_RETURN(
      distance::DistanceMatrix partial,
      builder.BuildTiles(queries, measure, context, range.begin, range.end));

  const std::vector<std::pair<size_t, size_t>> tiles =
      TileSchedule(plan.n, plan.block);
  uint64_t cells = 0;
  for (size_t t = range.begin; t < range.end; ++t) {
    cells += TileCellCount(plan.n, plan.block, tiles[t].first,
                           tiles[t].second);
  }
  metrics.counter("shard.cells_computed", {{"matrix", matrix_name}})
      .Increment(cells);

  store::ShardManifest manifest;
  manifest.matrix = matrix_name;
  manifest.shard_index = static_cast<uint32_t>(shard_index);
  manifest.shard_count = static_cast<uint32_t>(plan.shard_count());
  manifest.n = plan.n;
  manifest.block = plan.block;
  manifest.tile_begin = range.begin;
  manifest.tile_end = range.end;
  DPE_RETURN_NOT_OK(store.WriteShard(manifest, partial));
  metrics.counter("shard.exports").Increment();
  return manifest;
}

}  // namespace dpe::engine
