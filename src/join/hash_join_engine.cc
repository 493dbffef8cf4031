#include "join/hash_join_engine.h"

#include <algorithm>
#include <numeric>
#include <type_traits>
#include <unordered_map>

#include "join/groupby_engine.h"
#include "util/cpu_features.h"
#include "util/murmur_hash.h"

namespace apujoin::join {

using simcl::DeviceId;
using simcl::Phase;

namespace {

// ---------------------------------------------------------------------------
// Layout adapter: the two table layouts behind one call shape.
// ---------------------------------------------------------------------------

template <typename T>
inline constexpr bool kOpen = std::is_same_v<T, OpenHashTable>;

template <bool kWide, typename T>
int32_t FindOrAddKey(T* t, uint32_t bucket, const KeyView& k, uint64_t i,
                     [[maybe_unused]] DeviceId dev, uint32_t* work) {
  if constexpr (kOpen<T>) {
    // Open layout: keys live inline in the bucket arrays (no key node).
    if constexpr (kWide) {
      return t->FindOrAddKeyWide(bucket, k.lo[i], k.hi[i], work);
    } else {
      return t->FindOrAddKey(bucket, k.lo[i], work);
    }
  } else if constexpr (kWide) {
    return t->FindOrAddKeyWide(bucket, k.lo[i], k.hi[i], dev, WorkgroupOf(i),
                               work);
  } else {
    return t->FindOrAddKey(bucket, k.lo[i], dev, WorkgroupOf(i), work);
  }
}

template <bool kWide, typename T>
int32_t FindKey(const T* t, uint32_t bucket, const KeyView& k, uint64_t j,
                [[maybe_unused]] bool avx2, uint32_t* work) {
  if constexpr (kWide) {
    // Wide keys take the scalar two-word probe on both layouts; the AVX2
    // one-word bucket compare is ruled out per schema in PreparePools().
    return t->FindKeyWide(bucket, k.lo[j], k.hi[j], work);
  } else if constexpr (kOpen<T>) {
    return t->FindKey(bucket, k.lo[j], work, avx2);
  } else {
    return t->FindKey(bucket, k.lo[j], work);
  }
}

// ---------------------------------------------------------------------------
// Table selectors. Build(dev) / Probe() run once per morsel and return a
// functor mapping an item to its table.
// ---------------------------------------------------------------------------

/// SHJ: one table. The pointers are captured by value, so every item of a
/// morsel addresses the same table with no per-item lookup.
template <typename T>
struct SingleTable {
  using Table = T;
  static constexpr uint32_t shift = 0;
  T* cpu;
  T* gpu;  // == cpu in shared-table mode
  struct Bound {
    T* t;
    T* operator()(uint64_t) const { return t; }
  };
  Bound Build(DeviceId dev) const {
    return {dev == DeviceId::kGpu ? gpu : cpu};
  }
  Bound Probe() const { return {cpu}; }
};

/// PHJ: item i addresses its partition's table; bucket indices use the
/// hash bits above the radix bits, so partitioning does not degenerate the
/// in-partition bucket distribution.
template <typename T>
struct PartitionTables {
  using Table = T;
  const std::unique_ptr<T>* cpu;
  const std::unique_ptr<T>* gpu;  // == cpu in shared-table mode
  const uint32_t* part_of_r;
  const uint32_t* part_of_s;
  uint32_t shift;
  struct Bound {
    const std::unique_ptr<T>* tables;
    const uint32_t* part_of;
    T* operator()(uint64_t i) const { return tables[part_of[i]].get(); }
  };
  Bound Build(DeviceId dev) const {
    return {dev == DeviceId::kGpu ? gpu : cpu, part_of_r};
  }
  Bound Probe() const { return {cpu, part_of_s}; }
};

/// b1 / p1: hash every live key of `in` into `hash`.
template <bool kWide>
StepDef HashStep(const char* name, const JoinSide& in, uint32_t* hash) {
  StepDef st;
  st.name = name;
  st.profile = HashStepProfile(data::KeyBytes(in.keys.schema));
  st.items = in.items;
  st.run = [f = in.filter, k = in.keys, hash](const Morsel& m, DeviceId,
                                               uint32_t* lw) -> uint64_t {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      // Fused-select dead lanes are never hashed (b3/p3 check the filter
      // before reading the hash or bucket).
      if (f != nullptr && f[i] == 0) continue;
      if constexpr (kWide) {
        hash[i] = MurmurHash2x8(data::PackKeyPair(k.lo[i], k.hi[i]));
      } else {
        hash[i] = MurmurHash2x4(static_cast<uint32_t>(k.lo[i]));
      }
    }
    return ConstantWork(lw, m);
  };
  return st;
}

}  // namespace

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

apujoin::Status HashJoinEngine::PrepareKeys() {
  const data::Relation& build = *build_;
  const data::Relation& probe = *probe_;
  if (build.empty() || probe.empty()) {
    return apujoin::Status::InvalidArgument("empty relation");
  }
  const data::KeySchema schema = build.key_schema;
  wide_ = data::KeyIsWide(schema);
  if (probe.key_schema != schema) {
    return apujoin::Status::InvalidArgument(
        "build and probe key schemas differ");
  }
  if (!wide_) return apujoin::Status::OK();
  if (!opts_.shared_table) {
    return apujoin::Status::InvalidArgument(
        "wide key schemas require shared_table (the separate-table merge "
        "path is U32-only)");
  }
  if (schema == data::KeySchema::kU64 ||
      schema == data::KeySchema::kComposite) {
    if (build.key_hi.size() != build.size() ||
        probe.key_hi.size() != probe.size()) {
      return apujoin::Status::InvalidArgument(
          "wide key schema requires a key_hi column of matching length");
    }
    return apujoin::Status::OK();
  }

  const data::StringDict& bd = build.dict;
  const data::StringDict& pd = probe.dict;
  if (bd.strings.size() != bd.hashes.size() ||
      pd.strings.size() != pd.hashes.size()) {
    return apujoin::Status::InvalidArgument(
        "dict-string relation with out-of-sync dictionary hashes");
  }
  std::unordered_multimap<uint64_t, int32_t> by_hash;
  by_hash.reserve(bd.strings.size());
  for (size_t c = 0; c < bd.strings.size(); ++c) {
    by_hash.emplace(bd.hashes[c], static_cast<int32_t>(c));
  }
  std::vector<int32_t> xlat(pd.strings.size(), kNil);
  for (size_t c = 0; c < pd.strings.size(); ++c) {
    const auto range = by_hash.equal_range(pd.hashes[c]);
    for (auto it = range.first; it != range.second; ++it) {
      if (bd.strings[static_cast<size_t>(it->second)] == pd.strings[c]) {
        xlat[c] = it->second;
        break;
      }
    }
  }
  // One side: lo = low32 of the code's cached string hash, hi = the code
  // itself (build side) or its translation into build codes (probe side).
  const auto canonicalize = [schema](const data::Relation& in,
                                     const data::StringDict& dict,
                                     const int32_t* xlat_or_null,
                                     const char* side_error,
                                     data::Relation* out) {
    const uint64_t n = in.size();
    out->key_schema = schema;
    out->keys.resize(n);
    out->key_hi.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      const int32_t code = in.keys[i];
      if (code < 0 || static_cast<size_t>(code) >= dict.strings.size()) {
        return apujoin::Status::InvalidArgument(side_error);
      }
      out->keys[i] = static_cast<int32_t>(
          static_cast<uint32_t>(dict.hashes[static_cast<size_t>(code)]));
      out->key_hi[i] = xlat_or_null != nullptr
                           ? xlat_or_null[static_cast<size_t>(code)]
                           : code;
    }
    return apujoin::Status::OK();
  };
  APU_RETURN_IF_ERROR(canonicalize(
      build, bd, nullptr, "dict-string build code out of dictionary range",
      &r_canon_));
  return canonicalize(probe, pd, xlat.data(),
                      "dict-string probe code out of dictionary range",
                      &s_canon_);
}

const data::Relation& HashJoinEngine::canonical_build() const {
  return build_->key_schema == data::KeySchema::kDictString ? r_canon_
                                                            : *build_;
}

const data::Relation& HashJoinEngine::canonical_probe() const {
  return probe_->key_schema == data::KeySchema::kDictString ? s_canon_
                                                            : *probe_;
}

uint64_t HashJoinEngine::live_build_rows() const {
  return build_card_ != 0 ? std::min<uint64_t>(build_card_, build_->size())
                          : build_->size();
}

void HashJoinEngine::PreparePools() {
  // The AVX2 bucket compare covers one 32-bit word per slot, so wide
  // schemas fall back to the scalar two-word probe (per schema, decided
  // here — never per item inside a kernel).
  use_avx2_ =
      opts_.simd != SimdPolicy::kScalar && CpuSupportsAvx2() && !wide_;

  // Key nodes: one per distinct build key, plus slack for lost CAS races
  // and stranded allocator blocks. Rid nodes: one per build tuple + slack.
  // Separate tables need double headroom: the post-build merge re-allocates
  // a fresh node for every entry it moves (exactly like the real kernel —
  // nodes are never freed back into the pre-allocated array).
  // The open layout keeps keys inline in its bucket arrays, so its key
  // arena is vestigial — only the rid arena carries data.
  const bool open = opts_.layout == exec::HashLayout::kOpenAddressing;
  const uint64_t nb_live = live_build_rows();
  const uint64_t merge_headroom = opts_.shared_table ? 0 : nb_live;
  const uint64_t key_cap =
      open ? 64
           : nb_live + nb_live / 8 + merge_headroom +
                 PoolSlack(nb_live, opts_.block_bytes, wide_ ? 16 : 12);
  const uint64_t rid_cap =
      nb_live + merge_headroom + PoolSlack(nb_live, opts_.block_bytes, 8);
  pools_ = std::make_unique<NodePools>(key_cap, rid_cap, opts_.allocator,
                                       opts_.block_bytes, wide_);
}

void HashJoinEngine::PrepareArrays() {
  const uint64_t nb = build_->size();
  const uint64_t np = probe_->size();
  r_hash_.resize(nb);
  r_bucket_.resize(nb);
  r_keynode_.resize(nb);
  s_hash_.resize(np);
  s_bucket_.resize(np);
  s_keynode_.resize(np);
  s_count_.resize(np);
  perm_.clear();
}

void HashJoinEngine::CreateTables(const std::vector<uint32_t>& buckets,
                                  uint32_t shift) {
  shift_ = shift;
  chained_ = {};
  open_ = {};
  const auto fill = [&](auto& set) {
    using T = typename std::decay_t<decltype(set)>::Table;
    const auto make = [&](uint32_t b) {
      std::unique_ptr<T> t;
      if constexpr (kOpen<T>) {
        t = std::make_unique<T>(b, pools_.get(), wide_);
      } else {
        t = std::make_unique<T>(b, pools_.get());
      }
      if (ctx_->cache() != nullptr) t->set_cache(ctx_->cache());
      return t;
    };
    set.cpu.reserve(buckets.size());
    for (uint32_t b : buckets) {
      set.cpu.push_back(make(b));
      if (!opts_.shared_table) set.gpu.push_back(make(b));
    }
  };
  if (opts_.layout == exec::HashLayout::kOpenAddressing) {
    fill(open_);
  } else {
    fill(chained_);
  }
}

void HashJoinEngine::MapPartitions(const std::vector<uint32_t>& off_r,
                                   const std::vector<uint32_t>& off_s) {
  const auto map = [](const std::vector<uint32_t>& off,
                      std::vector<uint32_t>* part_of) {
    part_of->resize(off.back());
    for (uint32_t p = 0; p + 1 < off.size(); ++p) {
      std::fill(part_of->begin() + off[p], part_of->begin() + off[p + 1], p);
    }
  };
  map(off_r, &part_of_r_);
  map(off_s, &part_of_s_);
  partitioned_ = true;
}

template <typename T>
std::pair<uint64_t, uint64_t> HashJoinEngine::MergeTables(TableSet<T>& set) {
  uint64_t keys = 0;
  uint64_t rids = 0;
  for (size_t p = 0; p < set.gpu.size(); ++p) {
    std::pair<uint64_t, uint64_t> moved;
    if constexpr (kOpen<T>) {
      // Linear probing displaces keys from their home bucket, so the merge
      // recomputes homes with the kernels' hash shift.
      moved = set.cpu[p]->MergeFrom(*set.gpu[p], shift_, DeviceId::kCpu);
    } else {
      moved = set.cpu[p]->MergeFrom(*set.gpu[p], DeviceId::kCpu);
    }
    keys += moved.first;
    rids += moved.second;
  }
  return {keys, rids};
}

std::pair<uint64_t, uint64_t> HashJoinEngine::MergeSeparateTables() {
  if (opts_.shared_table) return {0, 0};
  return opts_.layout == exec::HashLayout::kOpenAddressing
             ? MergeTables(open_)
             : MergeTables(chained_);
}

void HashJoinEngine::BuildProbePermutation(uint64_t n, uint64_t begin,
                                           uint64_t end) {
  if (perm_.size() != n) {
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), 0u);
  }
  end = std::min(end, n);
  if (begin >= end) return;
  // Sort the GPU range [begin, end) by the p2 workload estimate so each
  // wavefront sees near-uniform work.
  std::stable_sort(perm_.begin() + static_cast<int64_t>(begin),
                   perm_.begin() + static_cast<int64_t>(end),
                   [this](uint32_t a, uint32_t b) {
                     return s_count_[a] < s_count_[b];
                   });
  // Two streaming passes (estimate + permute) charged to the GPU.
  const double bytes = static_cast<double>(end - begin) * 8.0 * 2.0;
  ctx_->log().Add(Phase::kGrouping,
                  ctx_->memory().SequentialNs(
                      ctx_->device(DeviceId::kGpu), bytes));
}

// ---------------------------------------------------------------------------
// The kernel family
// ---------------------------------------------------------------------------

template <typename Fn>
std::vector<StepDef> HashJoinEngine::Dispatch(Fn&& fn) {
  const auto with_width = [&](const auto& sel) {
    return wide_ ? fn(sel, std::true_type{}) : fn(sel, std::false_type{});
  };
  const auto with_selector = [&](auto& set) {
    using T = typename std::decay_t<decltype(set)>::Table;
    const std::unique_ptr<T>* cpu = set.cpu.data();
    const std::unique_ptr<T>* gpu =
        opts_.shared_table ? cpu : set.gpu.data();
    if (partitioned_) {
      return with_width(PartitionTables<T>{cpu, gpu, part_of_r_.data(),
                                           part_of_s_.data(), shift_});
    }
    return with_width(SingleTable<T>{cpu[0].get(), gpu[0].get()});
  };
  return opts_.layout == exec::HashLayout::kOpenAddressing
             ? with_selector(open_)
             : with_selector(chained_);
}

std::vector<StepDef> HashJoinEngine::BuildSteps() {
  const JoinSide r = BuildSide();
  const JoinCosts c = Costs();
  return Dispatch([&](const auto& sel, auto wide) {
    return BuildSeriesT<decltype(wide)::value>(sel, r, c);
  });
}

std::vector<StepDef> HashJoinEngine::ProbeSeries(ResultWriter* out,
                                                 GroupByEngine* agg) {
  const JoinSide s = ProbeSide();
  const JoinCosts c = Costs();
  return Dispatch([&](const auto& sel, auto wide) {
    return ProbeSeriesT<decltype(wide)::value>(sel, s, c, out, agg);
  });
}

template <bool kWide, typename Sel>
std::vector<StepDef> HashJoinEngine::BuildSeriesT(const Sel& sel,
                                                  const JoinSide& r,
                                                  const JoinCosts& c) {
  using Table = typename Sel::Table;
  // Column views captured once per step: the per-morsel calls below run
  // tight loops over these raw pointers with no per-item dispatch. The
  // backing vectors were sized before the series is built and are stable
  // from here on.
  const KeyView rk = r.keys;
  const int32_t* r_rids = r.rids;
  const uint8_t* bf = r.filter;
  const uint32_t dist = opts_.prefetch_dist;
  uint32_t* r_hash = r_hash_.data();
  uint32_t* r_bucket = r_bucket_.data();
  int32_t* r_keynode = r_keynode_.data();
  std::vector<StepDef> steps;
  steps.push_back(HashStep<kWide>("b1", r, r_hash));

  StepDef b2;
  b2.name = "b2";
  b2.profile = HeaderVisitProfile(c.header_bytes);
  b2.items = r.items;
  b2.run = [sel, bf, r_hash, r_bucket](const Morsel& m, DeviceId dev,
                                       uint32_t* lw) -> uint64_t {
    const auto tab = sel.Build(dev);
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (bf != nullptr && bf[i] == 0) continue;
      Table* t = tab(i);
      r_bucket[i] = t->BucketOf(r_hash[i] >> sel.shift);
      t->VisitHeader(r_bucket[i]);
    }
    return ConstantWork(lw, m);
  };
  steps.push_back(std::move(b2));

  StepDef b3;
  b3.name = "b3";
  b3.profile = kOpen<Table>
                   ? OpenKeyInsertProfile(c.table_bytes, opts_.locality_boost)
                   : KeyInsertProfile(c.table_bytes, opts_.locality_boost);
  b3.items = r.items;
  b3.run = [this, sel, bf, dist, rk, r_bucket, r_keynode](
               const Morsel& m, DeviceId dev, uint32_t* lw) -> uint64_t {
    const auto tab = sel.Build(dev);
    uint64_t total = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      Table* t = tab(i);
      if constexpr (kOpen<Table>) {
        if (dist != 0 && i + dist < m.end) {
          tab(i + dist)->PrefetchBucket(r_bucket[i + dist]);
        }
      }
      uint32_t work = 0;
      if (bf != nullptr && bf[i] == 0) {
        // Fused-select dead lane: the key is never inserted.
        r_keynode[i] = kNil;
      } else {
        r_keynode[i] =
            FindOrAddKey<kWide>(t, r_bucket[i], rk, i, dev, &work);
        if (r_keynode[i] == kNil) MarkOverflow();
      }
      total += RecordWork(lw, m, i, work);
    }
    return total;
  };
  steps.push_back(std::move(b3));

  StepDef b4;
  b4.name = "b4";
  b4.profile = RidInsertProfile(c.table_bytes);
  b4.items = r.items;
  b4.run = [this, sel, r_rids, r_bucket, r_keynode](
               const Morsel& m, DeviceId dev, uint32_t* lw) -> uint64_t {
    const auto tab = sel.Build(dev);
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (r_keynode[i] == kNil) continue;
      Table* t = tab(i);
      if (!t->InsertRid(r_keynode[i], r_rids[i], dev, WorkgroupOf(i))) {
        MarkOverflow();
        continue;
      }
      t->BumpCount(r_bucket[i]);
    }
    return ConstantWork(lw, m);
  };
  steps.push_back(std::move(b4));
  return steps;
}

template <bool kWide, typename Sel>
std::vector<StepDef> HashJoinEngine::ProbeSeriesT(
    const Sel& sel, const JoinSide& s, const JoinCosts& c, ResultWriter* out,
    GroupByEngine* agg) {
  using Table = typename Sel::Table;
  const uint64_t n = s.items;
  const KeyView sk = s.keys;
  const int32_t* s_rids = s.rids;
  const int32_t* s_keys = s.keys.lo;
  const uint8_t* pf = s.filter;
  const uint32_t dist = opts_.prefetch_dist;
  const bool avx2 = use_avx2_;
  uint32_t* s_hash = s_hash_.data();
  uint32_t* s_bucket = s_bucket_.data();
  int32_t* s_keynode = s_keynode_.data();
  int32_t* s_count = s_count_.data();
  std::vector<StepDef> steps;
  steps.push_back(HashStep<kWide>("p1", s, s_hash));

  StepDef p2;
  p2.name = "p2";
  p2.profile = HeaderVisitProfile(c.header_bytes);
  p2.items = n;
  p2.run = [sel, pf, s_hash, s_bucket, s_count](const Morsel& m, DeviceId,
                                                uint32_t* lw) -> uint64_t {
    const auto tab = sel.Probe();
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (pf != nullptr && pf[i] == 0) {
        s_count[i] = 0;  // the grouping sort reads every lane's estimate
        continue;
      }
      Table* t = tab(i);
      s_bucket[i] = t->BucketOf(s_hash[i] >> sel.shift);
      int32_t count = 0;
      t->VisitHeader(s_bucket[i], &count);
      s_count[i] = count;
    }
    return ConstantWork(lw, m);
  };
  p2.after = [this, n](uint64_t begin, uint64_t end) {
    if (opts_.grouping) BuildProbePermutation(n, begin, end);
  };
  steps.push_back(std::move(p2));

  StepDef p3;
  p3.name = "p3";
  p3.profile = kOpen<Table>
                   ? OpenKeySearchProfile(c.table_bytes, opts_.locality_boost)
                   : KeySearchProfile(c.table_bytes, opts_.locality_boost);
  p3.items = n;
  p3.run = [this, sel, pf, dist, avx2, sk, s_bucket, s_keynode](
               const Morsel& m, DeviceId, uint32_t* lw) -> uint64_t {
    // The grouping permutation is built by p2's after-hook, i.e. after this
    // StepDef was created — resolve the view per morsel, not per step.
    const uint32_t* perm = perm_.empty() ? nullptr : perm_.data();
    const auto tab = sel.Probe();
    uint64_t total = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      const uint64_t j = perm != nullptr ? perm[i] : i;
      if constexpr (kOpen<Table>) {
        if (dist != 0 && i + dist < m.end) {
          const uint64_t jn = perm != nullptr ? perm[i + dist] : i + dist;
          tab(jn)->PrefetchBucket(s_bucket[jn]);
        }
      }
      uint32_t work = 0;
      if (pf != nullptr && pf[j] == 0) {
        // Fused-select dead lane: the lookup never runs.
        s_keynode[j] = kNil;
      } else {
        s_keynode[j] = FindKey<kWide>(tab(j), s_bucket[j], sk, j, avx2, &work);
      }
      total += RecordWork(lw, m, i, work);
    }
    return total;
  };
  steps.push_back(std::move(p3));

  if (agg != nullptr) {
    StepDef p4g;
    p4g.name = "p4g";
    p4g.profile = FusedEmitAggProfile(
        c.table_bytes, agg->TableWorkingSetBytes(), opts_.locality_boost);
    p4g.items = n;
    p4g.run = [this, sel, agg, s_rids, s_keys, s_keynode](
                  const Morsel& m, DeviceId, uint32_t* lw) -> uint64_t {
      const uint32_t* perm = perm_.empty() ? nullptr : perm_.data();
      const auto tab = sel.Probe();
      uint64_t total = 0;
      for (uint64_t i = m.begin; i < m.end; ++i) {
        const uint64_t j = perm != nullptr ? perm[i] : i;
        uint32_t work = 1;
        if (s_keynode[j] != kNil) {
          const int32_t srid = s_rids[j];
          const int32_t skey = s_keys[j];
          work += tab(j)->ForEachRid(s_keynode[j], [agg, skey, srid](int32_t) {
            // The match streams into the aggregate table; the <build rid,
            // probe rid> pair is never materialized.
            agg->Accumulate(skey, static_cast<int64_t>(srid));
          });
        }
        total += RecordWork(lw, m, i, work);
      }
      return total;
    };
    steps.push_back(std::move(p4g));
    return steps;
  }

  StepDef p4;
  p4.name = "p4";
  p4.profile = EmitProfile(c.table_bytes, opts_.locality_boost);
  p4.items = n;
  p4.run = [this, sel, out, s_rids, s_keys, s_keynode](
               const Morsel& m, DeviceId dev, uint32_t* lw) -> uint64_t {
    const uint32_t* perm = perm_.empty() ? nullptr : perm_.data();
    const bool keyed = out->captures_keys();
    const auto tab = sel.Probe();
    uint64_t total = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      const uint64_t j = perm != nullptr ? perm[i] : i;
      uint32_t work = 1;
      if (s_keynode[j] != kNil) {
        const int32_t srid = s_rids[j];
        const uint32_t wg = WorkgroupOf(i);
        const int32_t skey = s_keys[j];
        work += tab(j)->ForEachRid(
            s_keynode[j],
            [this, out, keyed, skey, srid, dev, wg](int32_t brid) {
              const bool ok = keyed ? out->Emit(skey, brid, srid, dev, wg)
                                    : out->Emit(brid, srid, dev, wg);
              if (!ok) MarkOverflow();
            });
      }
      total += RecordWork(lw, m, i, work);
    }
    return total;
  };
  steps.push_back(std::move(p4));
  return steps;
}

}  // namespace apujoin::join
