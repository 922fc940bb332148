#include "core/dpe.h"

namespace dpe::core {

Result<DpeMatrices> ComputeBothMatrices(MeasureKind kind,
                                        const LogEncryptor& enc,
                                        const std::vector<sql::SelectQuery>& log,
                                        const db::Database& plain_db,
                                        const db::DomainRegistry& plain_domains) {
  std::unique_ptr<distance::QueryDistanceMeasure> measure = MakeMeasure(kind);

  distance::MeasureContext plain_ctx;
  plain_ctx.database = &plain_db;
  plain_ctx.domains = &plain_domains;

  DPE_ASSIGN_OR_RETURN(EncryptionArtifacts artifacts, enc.EncryptAll());
  distance::MeasureContext enc_ctx;
  db::DomainRegistry empty_domains;
  if (artifacts.encrypted_db.has_value()) {
    enc_ctx.database = &*artifacts.encrypted_db;
    enc_ctx.exec_options = &artifacts.provider_options;
  }
  enc_ctx.domains = artifacts.encrypted_domains.has_value()
                        ? &*artifacts.encrypted_domains
                        : &empty_domains;

  DpeMatrices out;
  DPE_ASSIGN_OR_RETURN(out.plain,
                       distance::DistanceMatrix::Compute(log, *measure, plain_ctx));
  DPE_ASSIGN_OR_RETURN(
      out.encrypted,
      distance::DistanceMatrix::Compute(artifacts.encrypted_log, *measure,
                                        enc_ctx));
  return out;
}

Result<DpeCheckReport> CheckDistancePreservation(
    MeasureKind kind, const LogEncryptor& enc,
    const std::vector<sql::SelectQuery>& log, const db::Database& plain_db,
    const db::DomainRegistry& plain_domains) {
  DPE_ASSIGN_OR_RETURN(
      DpeMatrices matrices,
      ComputeBothMatrices(kind, enc, log, plain_db, plain_domains));
  DpeCheckReport report;
  report.measure = MeasureKindName(kind);
  report.query_count = log.size();
  report.pair_count = log.size() * (log.size() - 1) / 2;
  DPE_ASSIGN_OR_RETURN(
      report.max_abs_delta,
      distance::DistanceMatrix::MaxAbsDifference(matrices.plain,
                                                 matrices.encrypted));
  return report;
}

}  // namespace dpe::core
