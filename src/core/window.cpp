#include "src/core/window.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace gsnp::core {

WindowLoader::WindowLoader(RecordSource source, u64 total_sites,
                           u32 window_size)
    : source_(std::move(source)), total_sites_(total_sites),
      window_size_(window_size) {
  GSNP_CHECK(window_size_ > 0);
}

bool WindowLoader::next(WindowRecords& out) {
  if (next_start_ >= total_sites_) return false;
  const u64 start = next_start_;
  const u64 end = std::min(start + window_size_, total_sites_);
  out.start = start;
  out.size = static_cast<u32>(end - start);
  out.records.clear();

  // Records carried over from previous windows that overlap this one.
  // (Every carried record started before a previous window's end, so only
  // the right boundary needs checking.)
  for (const auto& rec : carry_)
    if (rec.pos + rec.length > start) out.records.push_back(rec);

  // Pull records starting inside this window.  `pending_` holds the one
  // look-ahead record that was read past a window boundary.
  while (!source_done_) {
    reads::AlignmentRecord rec;
    if (pending_) {
      if (pending_->pos >= end) break;  // still beyond this window
      rec = std::move(*pending_);
      pending_.reset();
    } else {
      auto r = source_();
      if (!r) {
        source_done_ = true;
        break;
      }
      if (r->pos >= end) {
        pending_ = std::move(r);
        break;
      }
      rec = std::move(*r);
    }
    if (rec.pos + rec.length > start) out.records.push_back(rec);
    if (rec.pos + rec.length > end) carry_.push_back(std::move(rec));
  }

  // Carried records that end within this window are never needed again.
  std::erase_if(carry_, [end](const reads::AlignmentRecord& rec) {
    return rec.pos + rec.length <= end;
  });

  next_start_ = end;
  return true;
}

void count_window(const WindowRecords& win, WindowObs& obs_out,
                  std::vector<SiteStats>& stats_out, BaseOccWindow* dense,
                  BaseWordWindow* sparse) {
  const u32 w = win.size;
  stats_out.assign(w, SiteStats{});
  obs_out.offsets.assign(static_cast<std::size_t>(w) + 1, 0);
  obs_out.obs.clear();
  obs_out.hits.clear();

  // Pass 1: per-site observation counts (for CSR offsets).
  for (const auto& rec : win.records) {
    const u64 lo = std::max<u64>(rec.pos, win.start);
    const u64 hi = std::min<u64>(rec.pos + rec.length, win.start + w);
    for (u64 p = lo; p < hi; ++p) ++obs_out.offsets[p - win.start + 1];
  }
  for (u32 s = 0; s < w; ++s) obs_out.offsets[s + 1] += obs_out.offsets[s];
  const u64 total = obs_out.offsets[w];
  obs_out.obs.resize(total);
  obs_out.hits.resize(total);

  // Pass 2: fill observations in record-arrival order per site (two passes
  // over records in the same order keep per-site ordering stable).
  std::vector<u64> cursor(obs_out.offsets.begin(), obs_out.offsets.end() - 1);
  for (const auto& rec : win.records) {
    const u64 lo = std::max<u64>(rec.pos, win.start);
    const u64 hi = std::min<u64>(rec.pos + rec.length, win.start + w);
    for (u64 p = lo; p < hi; ++p) {
      reads::SiteObservation so;
      const bool ok = reads::observe_site(rec, p, so);
      GSNP_CHECK(ok);
      const u32 s = static_cast<u32>(p - win.start);
      AlignedBase ab;
      ab.base = so.base;
      ab.quality = so.quality;
      ab.coord = so.coord;
      ab.strand = so.strand;
      obs_out.obs[cursor[s]] = ab;
      obs_out.hits[cursor[s]] = rec.hit_count;
      ++cursor[s];
    }
  }

  // Pass 3: aggregates + likelihood structures.
  for (u32 s = 0; s < w; ++s) {
    SiteStats& st = stats_out[s];
    const auto site_obs = obs_out.site(s);
    const auto site_hits = obs_out.site_hits(s);
    for (std::size_t k = 0; k < site_obs.size(); ++k) {
      const AlignedBase& ab = site_obs[k];
      const bool unique = site_hits[k] == 1;
      ++st.count_all[ab.base];
      st.qual_sum_all[ab.base] += ab.quality;
      ++st.depth;
      st.hit_sum += site_hits[k];
      if (unique) {
        ++st.count_uniq[ab.base];
        if (dense) dense->add(s, ab);
      }
    }
  }

  if (sparse) {
    // CSR fill of base_word (unique hits only), arrival order within a site.
    // Every offset and word is written, so no reset is needed first.
    sparse->offsets.resize(static_cast<std::size_t>(w) + 1);
    sparse->offsets[0] = 0;
    for (u32 s = 0; s < w; ++s) {
      const auto site_hits = obs_out.site_hits(s);
      u64 n = 0;
      for (const u32 h : site_hits) n += (h == 1);
      sparse->offsets[s + 1] = sparse->offsets[s] + n;
    }
    sparse->words.resize(sparse->offsets[w]);
    for (u32 s = 0; s < w; ++s) {
      const auto site_obs = obs_out.site(s);
      const auto site_hits = obs_out.site_hits(s);
      u64 cur = sparse->offsets[s];
      for (std::size_t k = 0; k < site_obs.size(); ++k) {
        if (site_hits[k] != 1) continue;
        sparse->words[cur++] = base_word_pack(site_obs[k]);
      }
    }
  }
}

}  // namespace gsnp::core
