#include "src/core/likelihood.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "src/common/thread_pool.hpp"
#include "src/core/adjust.hpp"
#include "src/core/log_table.hpp"

namespace gsnp::core {

namespace {

std::string unsorted_window_message(std::size_t index, u32 previous,
                                    u32 word) {
  std::ostringstream os;
  os << "likelihood_sparse_site: base_word array is not sorted — word["
     << index << "] = " << word << " after " << previous
     << "; run likelihood_sort (Algorithm 4) before the computation step";
  return os.str();
}

}  // namespace

UnsortedWindowError::UnsortedWindowError(std::size_t index, u32 previous,
                                         u32 word)
    : Error(unsorted_window_message(index, previous, word)) {}

namespace detail {

void throw_unsorted_window(std::size_t index, u32 previous, u32 word) {
  assert(!"likelihood_sparse_site: unsorted base_word window");
  throw UnsortedWindowError(index, previous, word);
}

}  // namespace detail

TypeLikely likelihood_dense_site(std::span<const u8> base_occ,
                                 const PMatrix& pm) {
  TypeLikely type_likely{};
  std::array<u16, kNumStrands * kMaxReadLen> dep_count{};
  const double* logs = log_table().data();

  for (int base = 0; base < kNumBases; ++base) {
    dep_count.fill(0);  // Alg. 1 line 3
    for (int score = kQualityLevels - 1; score >= 0; --score) {
      for (int coord = 0; coord < kMaxReadLen; ++coord) {
        for (int strand = 0; strand < kNumStrands; ++strand) {
          const u8 occ = base_occ[base_occ_index(base, score, coord, strand)];
          for (u8 k = 0; k < occ; ++k) {
            const int dep = ++dep_count[static_cast<std::size_t>(
                strand * kMaxReadLen + coord)];
            const int q_adj = adjust_quality(score, dep, logs);
            // likely_update (Algorithm 2) for the ten allele pairs.
            int combo = 0;
            for (int a1 = 0; a1 < kNumBases; ++a1) {
              for (int a2 = a1; a2 < kNumBases; ++a2) {
                const double p1 = pm[PMatrix::index(q_adj, coord, a1, base)];
                const double p2 = pm[PMatrix::index(q_adj, coord, a2, base)];
                type_likely[static_cast<std::size_t>(combo)] +=
                    likely_log10(p1, p2);
                ++combo;
              }
            }
          }
        }
      }
    }
  }
  return type_likely;
}

TypeLikely likelihood_sparse_site(std::span<const u32> sorted_words,
                                  const NewPMatrix& npm) {
  TypeLikely type_likely{};
  std::array<u16, kNumStrands * kMaxReadLen> dep_count{};
  const double* logs = log_table().data();

  int last_base = 0;
  u32 prev_word = 0;
  std::size_t index = 0;
  for (const u32 word : sorted_words) {
    // The depth-count recycle below only resets on a base *increase*; an
    // out-of-order word (word < its predecessor) would silently reuse stale
    // depth counts, so sortedness is validated rather than assumed.
    if (word < prev_word) detail::throw_unsorted_window(index, prev_word, word);
    prev_word = word;
    ++index;
    const AlignedBase ab = base_word_unpack(word);
    if (ab.base > last_base) {  // Alg. 4 lines 8-10
      dep_count.fill(0);
      last_base = ab.base;
    }
    const int dep = ++dep_count[static_cast<std::size_t>(
        static_cast<int>(ab.strand) * kMaxReadLen + ab.coord)];
    const int q_adj = adjust_quality(ab.quality, dep, logs);
    // opt_likely_update (Algorithm 3): one table row, ten reads, no log10.
    const u64 row = NewPMatrix::index(q_adj, ab.coord, ab.base, 0);
    for (int combo = 0; combo < kNumGenotypes; ++combo)
      type_likely[static_cast<std::size_t>(combo)] +=
          npm.flat()[row + static_cast<u64>(combo)];
  }
  return type_likely;
}

void likelihood_sort_cpu(BaseWordWindow& window) {
  parallel_for(window.window_size(), 1024, [&](std::size_t s, std::size_t) {
    auto site = window.site(static_cast<u32>(s));
    std::sort(site.begin(), site.end());
  });
}

}  // namespace gsnp::core
