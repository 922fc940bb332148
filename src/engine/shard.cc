#include "engine/shard.h"

#include "engine/matrix_builder.h"

namespace dpe::engine {

using distance::DistanceTriangle;

Result<ShardPlan> PlanShards(size_t n, size_t shard_count) {
  if (shard_count == 0) {
    return Status::InvalidArgument(
        "shard plan: shard count must be >= 1 (got 0)");
  }
  ShardPlan plan;
  plan.n = n;
  plan.ranges.reserve(shard_count);

  // Shard s ends at the first row r whose prefix [0, r) holds at least
  // total * (s + 1) / k cells, so every cut lands within one row of its
  // even share; the last shard ends at n. Compared as products, so there
  // is no rounding to drift the cuts.
  const uint64_t total = DistanceTriangle::CellCount(n);
  size_t row = 0;
  for (size_t s = 0; s < shard_count; ++s) {
    RowRange range;
    range.begin = row;
    if (s + 1 == shard_count) {
      row = n;
    } else {
      while (row < n && DistanceTriangle::CellCount(row) * shard_count <
                            total * (s + 1)) {
        ++row;
      }
    }
    range.end = row;
    plan.ranges.push_back(range);
  }
  return plan;
}

Result<store::ShardManifest> ShardWorker::Run(
    const std::string& matrix_name,
    const std::vector<sql::SelectQuery>& queries,
    const distance::QueryDistanceMeasure& measure,
    const distance::MeasureContext& context, const ShardPlan& plan,
    size_t shard_index, store::MatrixStore& store) const {
  if (plan.n != queries.size()) {
    return Status::InvalidArgument(
        "shard worker: plan is for n = " + std::to_string(plan.n) +
        " queries but the log holds " + std::to_string(queries.size()));
  }
  if (shard_index >= plan.shard_count()) {
    return Status::InvalidArgument(
        "shard worker: shard index " + std::to_string(shard_index) +
        " outside plan of " + std::to_string(plan.shard_count()) + " shards");
  }
  const RowRange& range = plan.ranges[shard_index];

  obs::MetricsRegistry& metrics =
      metrics_ != nullptr ? *metrics_ : obs::MetricsRegistry::Default();
  obs::TraceSpan run_span("shard.run", trace_);

  const MatrixBuilder builder(pool_, {.metrics = &metrics,
                                      .trace = trace_,
                                      .progress_cells = progress_cells_});
  distance::DistanceMatrix partial(range.end);
  DPE_RETURN_NOT_OK(builder.ComputeRows(queries, measure, context, range.begin,
                                        range.end, &partial));
  metrics.counter("shard.cells_computed", {{"matrix", matrix_name}})
      .Increment(DistanceTriangle::CellCount(range.end) -
                 DistanceTriangle::CellCount(range.begin));

  store::ShardManifest manifest;
  manifest.matrix = matrix_name;
  manifest.shard_index = static_cast<uint32_t>(shard_index);
  manifest.shard_count = static_cast<uint32_t>(plan.shard_count());
  manifest.n = static_cast<uint32_t>(plan.n);
  manifest.row_begin = static_cast<uint32_t>(range.begin);
  manifest.row_end = static_cast<uint32_t>(range.end);
  DPE_RETURN_NOT_OK(store.WriteShard(manifest, partial));
  metrics.counter("shard.exports").Increment();
  return manifest;
}

}  // namespace dpe::engine
