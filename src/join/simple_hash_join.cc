#include "join/simple_hash_join.h"

namespace apujoin::join {

apujoin::Status ShjEngine::Prepare() {
  APU_RETURN_IF_ERROR(PrepareKeys());
  // A fused-select filter inserts only its survivors: size the table (and
  // the pools) from that count, exactly as an unfused plan would after
  // materializing the filtered relation.
  if (opts_.num_buckets == 0) {
    opts_.num_buckets = opts_.layout == exec::HashLayout::kOpenAddressing
                            ? OpenBucketsFor(live_build_rows())
                            : NextPow2(live_build_rows());
  }
  PreparePools();
  // SHJ buckets are addressed by the unshifted hash.
  CreateTables({opts_.num_buckets}, /*shift=*/0);
  PrepareArrays();
  return apujoin::Status::OK();
}

double ShjEngine::TableWorkingSetBytes() const {
  const double nb = static_cast<double>(live_build_rows());
  if (opts_.layout == exec::HashLayout::kOpenAddressing) {
    // Bucket arrays (72 B/bucket; +32 B for the wide secondary key-word
    // line) + one rid node per build tuple.
    return static_cast<double>(opts_.num_buckets) * (wide_ ? 104.0 : 72.0) +
           nb * 8.0;
  }
  // Headers + key nodes (12 B, or 16 B with the secondary word) + rid nodes.
  return static_cast<double>(opts_.num_buckets) * 8.0 +
         nb * (wide_ ? 16.0 : 12.0) + nb * 8.0;
}

JoinCosts ShjEngine::Costs() const {
  const double header =
      opts_.layout == exec::HashLayout::kChained ? 8.0 : 4.0;
  return JoinCosts{TableWorkingSetBytes(),
                   static_cast<double>(opts_.num_buckets) * header};
}

JoinSide ShjEngine::BuildSide() const {
  return JoinSide{build_->size(), KeyViewOf(canonical_build()),
                  build_->rids.data(), build_filter_};
}

JoinSide ShjEngine::ProbeSide() const {
  return JoinSide{probe_->size(), KeyViewOf(canonical_probe()),
                  probe_->rids.data(), probe_filter_};
}

}  // namespace apujoin::join
