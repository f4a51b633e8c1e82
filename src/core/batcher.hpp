#pragma once
// Depth-aware device batcher (ROADMAP item 5).
//
// The engines historically scheduled device work in fixed-site-count windows,
// so the device footprint of a window was an emergent property of whatever
// coverage the input happened to have: a 50-200x pileup island blows the
// per-window base-word payload up by the same factor.  The batcher inverts
// that: the caller states a byte budget and `plan_batches` packs sites — in
// position order, each exactly once — into contiguous batches whose *planned
// peak device bytes* never exceed it.  Effective batch size then floats with
// observed depth (many shallow sites per batch, few deep ones), the same
// variable-size-work-into-fixed-buffers move as minimap2-acceleration's
// memory_scheduler.
//
// The cost model is exact, not heuristic: it charges precisely the
// allocations the device pipeline makes for a batch of S sites and W base
// words, phase by phase, and takes the maximum (the phases free their scratch
// before the next begins):
//
//   resident          4W (base words)  +  8(S+1) (CSR offsets)
//   sort scratch      max over occupied size classes c of
//                       12*m_c  (ClassMeta starts u64 + sizes u32)
//                     + 4*m_c*P_c (padded gather buffer), where m_c counts
//                     member arrays (size >= 2) and P_c = next_pow2 of the
//                     class bound (next_pow2 of the batch's largest array for
//                     the overflow class) — multipass.cpp sorts one class at
//                     a time and frees between classes
//   likelihood        4*kDepEntriesPerSite*S (dep_count) + 80S (out doubles)
//   posterior         80S (type_likely) + 80S (priors) + 4S (packed calls)
//
//   planned_peak = resident + max(sort, likelihood, posterior)
//
// Because every term is monotone in the appended site, greedy position-order
// packing with an O(#classes) incremental update is optimal for "never
// exceed the budget" packing and is what plan_batches implements.  Sortnet
// bucket occupancy (per-class member counts) is therefore known at pack time
// — it is stored on each SiteBatch — instead of discovered inside the sort.
//
// Batches are sub-ranges of one loader window, never spanning windows: the
// GSNPOUT2 writer emits one compressed frame per window, so splitting (not
// merging) is the only packing that keeps output byte-identical to the
// fixed-window baseline (DESIGN.md "Batcher").

#include <span>
#include <vector>

#include "src/common/error.hpp"
#include "src/sortnet/multipass.hpp"

namespace gsnp::core {

/// Thrown when a single site's device footprint already exceeds the byte
/// budget — no valid packing exists.  Callers surface this typed (the daemon
/// maps it to a client error rather than a crash).
class BatchBudgetError : public Error {
 public:
  BatchBudgetError(u64 budget_bytes, u64 needed_bytes, u64 site_index);

  u64 budget_bytes() const { return budget_bytes_; }
  u64 needed_bytes() const { return needed_bytes_; }
  /// Window-local index of the site that cannot fit alone.
  u64 site_index() const { return site_index_; }

 private:
  u64 budget_bytes_ = 0;
  u64 needed_bytes_ = 0;
  u64 site_index_ = 0;
};

/// One capacity-bounded batch: sites [begin, end) of a window's CSR, whose
/// base words occupy [words_begin, words_end) of the window word array.
struct SiteBatch {
  u32 begin = 0;
  u32 end = 0;
  u64 words_begin = 0;
  u64 words_end = 0;
  /// Cost-model peak for this batch; never exceeds the plan's budget.
  u64 planned_peak_bytes = 0;
  /// Sortnet bucket occupancy planned at pack time: member count per size
  /// class (one entry per bound in `class_bounds`, plus the overflow class).
  /// Arrays of size <= 1 are skipped by the sort and counted nowhere, same
  /// as sort_device_multipass_resident.
  std::vector<u32> class_members;
  /// Largest per-site array in the batch (drives the overflow class pad).
  u32 max_array_size = 0;

  u32 sites() const { return end - begin; }
  u64 words() const { return words_end - words_begin; }
};

/// plan_batches output: position-ordered batches covering every site of the
/// window exactly once.
struct BatchPlan {
  u64 budget_bytes = 0;
  std::vector<SiteBatch> batches;
  /// max over batches of planned_peak_bytes (0 for an empty window).
  u64 planned_peak_bytes = 0;
};

/// Exact planned device peak for one batch under the model above.  Exposed so
/// tests can pin the model against hand-computed values; `class_members` must
/// have class_bounds.size() + 1 entries (last = overflow class).
u64 planned_batch_peak_bytes(u64 sites, u64 words,
                             std::span<const u32> class_members,
                             u32 max_array_size,
                             std::span<const u32> class_bounds);

/// Pack the window described by its CSR `offsets` (site i owns words
/// [offsets[i], offsets[i+1]); offsets.size() == sites + 1) into batches with
/// planned peaks <= budget_bytes.  Greedy in position order.  Throws
/// BatchBudgetError if any single site alone exceeds the budget;
/// GSNP_CHECKs budget_bytes > 0 (a zero budget means "batching off" and must
/// be handled by the caller, not here).
BatchPlan plan_batches(
    std::span<const u64> offsets, u64 budget_bytes,
    std::span<const u32> class_bounds = sortnet::kDefaultClassBounds);

/// Worst-case device footprint of a run with the given batch budget and
/// window size: the resident score tables (p_matrix + new_p_matrix) plus one
/// batch at the budget plus the per-window RLE-DICT output scratch (the
/// output phase compresses whole windows, outside the batch budget; its
/// per-column scratch is bounded by a small constant times the window size).
/// This is what gsnpd admission control compares against its device-capacity
/// limit before admitting a job.
u64 worst_case_device_bytes(u64 batch_bytes, u64 window_size);

/// Per-run batching statistics, aggregated across windows into
/// RunReport::batch and surfaced in bench_smoke JSON / engine metrics.
struct BatchStats {
  u64 budget_bytes = 0;
  u64 batches = 0;
  u64 windows_planned = 0;
  u32 min_batch_sites = 0;
  u32 max_batch_sites = 0;
  /// max over batches of the cost model's planned peak.
  u64 planned_peak_bytes = 0;
  /// max over batches of the device watermark actually measured while the
  /// batch's phases ran (serial device path; 0 for host backends, which
  /// only plan).
  u64 actual_peak_bytes = 0;

  /// Fold one window's plan into the run aggregate.
  void absorb(const BatchPlan& plan);
  /// Record one batch's measured device peak.
  void record_actual(u64 peak_bytes);
};

}  // namespace gsnp::core
