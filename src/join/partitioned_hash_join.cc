#include "join/partitioned_hash_join.h"

#include <algorithm>

namespace apujoin::join {

apujoin::Status PhjEngine::Prepare() {
  APU_RETURN_IF_ERROR(PrepareKeys());
  if (build_->key_schema == data::KeySchema::kDictString) {
    // The partitioners scatter whole tuples of the canonical copies.
    r_canon_.rids = build_->rids;
    s_canon_.rids = probe_->rids;
  }
  // A fused-select filter compacts pass 0 down to its survivors: plan the
  // radix layout (passes, partition count) and size the node pools from
  // that count, exactly as an unfused plan would after materializing the
  // filtered relation.
  plan_ = RadixPlan::Make(live_build_rows(), probe_->size(),
                          ctx_->memory().spec().l2_bytes, opts_);
  part_r_ = std::make_unique<RadixPartitioner>(ctx_, &canonical_build(),
                                               plan_, opts_);
  part_s_ = std::make_unique<RadixPartitioner>(ctx_, &canonical_probe(),
                                               plan_, opts_);
  APU_RETURN_IF_ERROR(part_r_->Prepare());
  APU_RETURN_IF_ERROR(part_s_->Prepare());
  PreparePools();
  PrepareArrays();
  return apujoin::Status::OK();
}

apujoin::Status PhjEngine::PrepareJoinPhase() {
  const auto& off_r = part_r_->offsets();
  const auto& off_s = part_s_->offsets();
  if (off_r.empty() || off_s.empty()) {
    return apujoin::Status::FailedPrecondition(
        "partitioning must complete before the join phase");
  }
  const bool open = opts_.layout == exec::HashLayout::kOpenAddressing;
  std::vector<uint32_t> buckets(plan_.total_partitions);
  for (uint32_t i = 0; i < plan_.total_partitions; ++i) {
    const uint32_t count = off_r[i + 1] - off_r[i];
    buckets[i] = open ? OpenBucketsFor(std::max<uint32_t>(count, 1))
                      : NextPow2(std::max<uint32_t>(count, 8));
  }
  // Partition buckets are addressed by the hash shifted past the radix
  // bits, so the radix partitioning does not degenerate them.
  CreateTables(buckets, plan_.partition_bits);
  MapPartitions(off_r, off_s);
  return apujoin::Status::OK();
}

double PhjEngine::PartitionWorkingSetBytes() const {
  const double nb = static_cast<double>(live_build_rows());
  if (opts_.layout == exec::HashLayout::kOpenAddressing) {
    // Bucket arrays (72 B/bucket narrow, 104 B with the wide-key lane;
    // ~1 bucket per 4 build keys) + rid nodes.
    const double per_bucket = wide_ ? 104.0 : 72.0;
    const double total =
        nb * (per_bucket / 4.0 + 8.0) +
        static_cast<double>(plan_.total_partitions) * per_bucket;
    return total / static_cast<double>(plan_.total_partitions);
  }
  // Bucket header + key node (12 B narrow, 16 B wide) + rid node per tuple.
  const double key_node = wide_ ? 16.0 : 12.0;
  const double total = nb * (8.0 + key_node + 8.0) +
                       static_cast<double>(plan_.total_partitions) * 64.0;
  return total / static_cast<double>(plan_.total_partitions);
}

uint64_t PhjEngine::CostModelBuckets() const {
  const uint32_t parts = std::max<uint32_t>(plan_.total_partitions, 1);
  const uint32_t per_part =
      static_cast<uint32_t>(std::max<uint64_t>(live_build_rows() / parts, 1));
  if (opts_.layout == exec::HashLayout::kOpenAddressing) {
    return uint64_t{OpenBucketsFor(per_part)} * kOpenSlotsPerBucket;
  }
  return NextPow2(std::max<uint32_t>(per_part, 8));
}

JoinSide PhjEngine::SideOf(const RadixPartitioner& part) {
  const data::Relation& out = part.output();
  return JoinSide{part.offsets().back(), KeyViewOf(out), out.rids.data(),
                  /*filter=*/nullptr};
}

JoinCosts PhjEngine::Costs() const {
  const double ws = PartitionWorkingSetBytes();
  return JoinCosts{ws, ws};
}

}  // namespace apujoin::join
