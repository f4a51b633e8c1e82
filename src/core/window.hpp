#pragma once
// Window loading (workflow component read_site) and per-site counting
// (component counting).
//
// The pipeline processes the reference in fixed-size windows of sites.  The
// alignment stream is position-sorted, so the loader pulls records until one
// starts at/after the window end, keeping records that extend into the next
// window in a carry buffer.  Counting then converts a window's records into:
//   * an arrival-order CSR of per-site observations (always; posterior's
//     rank-sum test needs the raw quality lists),
//   * per-site aggregate statistics (best/second base bookkeeping),
//   * and either the dense BaseOccWindow or the sparse BaseWordWindow,
//     depending on the engine.
// Only uniquely aligned reads (hit_count == 1) contribute to the likelihood
// structures; all reads contribute to the statistics, with a unique/total
// split (SOAPsnp's columns 8/9 and 12/13).

#include <array>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/types.hpp"
#include "src/core/base_occ.hpp"
#include "src/core/base_word.hpp"
#include "src/reads/alignment.hpp"
#include "src/reads/simulator.hpp"

namespace gsnp::core {

/// A window's worth of alignment records (records overlapping the window;
/// boundary records also appear in the neighbouring window's set).
struct WindowRecords {
  u64 start = 0;
  u32 size = 0;
  std::vector<reads::AlignmentRecord> records;
};

/// Streams windows out of a position-sorted record source.
class WindowLoader {
 public:
  using RecordSource = std::function<std::optional<reads::AlignmentRecord>()>;

  WindowLoader(RecordSource source, u64 total_sites, u32 window_size);

  /// Load the next window; returns false after the final window.
  bool next(WindowRecords& out);

 private:
  RecordSource source_;
  u64 total_sites_;
  u32 window_size_;
  u64 next_start_ = 0;
  std::deque<reads::AlignmentRecord> carry_;
  std::optional<reads::AlignmentRecord> pending_;
  bool source_done_ = false;
};

/// Arrival-order per-site observations for one window (CSR).
struct WindowObs {
  std::vector<u64> offsets;          ///< window size + 1
  std::vector<AlignedBase> obs;      ///< concatenated, arrival order
  std::vector<u32> hits;             ///< parallel hit_count per observation

  u32 window_size() const { return static_cast<u32>(offsets.size() - 1); }
  std::span<const AlignedBase> site(u32 s) const {
    return std::span<const AlignedBase>(obs).subspan(
        offsets[s], offsets[s + 1] - offsets[s]);
  }
  std::span<const u32> site_hits(u32 s) const {
    return std::span<const u32>(hits).subspan(offsets[s],
                                              offsets[s + 1] - offsets[s]);
  }
};

/// Per-site aggregate statistics over ALL aligned reads.
struct SiteStats {
  std::array<u32, kNumBases> count_uniq = {0, 0, 0, 0};
  std::array<u32, kNumBases> count_all = {0, 0, 0, 0};
  std::array<u32, kNumBases> qual_sum_all = {0, 0, 0, 0};
  u32 depth = 0;    ///< total aligned bases (all hits)
  u32 hit_sum = 0;  ///< sum of hit_count values (for average copy number)
};

/// Counting pass: records -> arrival-order observations + stats.  The dense
/// and sparse structures are filled only if non-null (unique hits only).
/// The dense matrix accumulates, so it must arrive recycled; the sparse CSR
/// is rebuilt whole, whatever it held.
void count_window(const WindowRecords& win, WindowObs& obs_out,
                  std::vector<SiteStats>& stats_out, BaseOccWindow* dense,
                  BaseWordWindow* sparse);

}  // namespace gsnp::core
