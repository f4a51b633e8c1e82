#pragma once
// Sorting strategies for a large number of small, variable-size arrays
// (paper §IV-C and Fig 7).
//
//  * sort_cpu_batch       — parallel CPU baseline: parallel_for lanes sort
//                           whole arrays with std::sort (the paper's
//                           multi-threaded CPU quicksort).
//  * sort_device_multipass — GSNP's strategy: bucket arrays into size classes,
//                           pad each class to its own power-of-two batch size,
//                           and run the batch bitonic primitive per class.
//  * sort_device_singlepass — pad *every* array to the global maximum size and
//                           run one batch sort (wastes work on padding).
//  * sort_device_noneq    — sort each array with a bitonic network padded to
//                           its own size, but launched with a uniform block
//                           size; small arrays leave most threads idle
//                           (workload imbalance the paper observed).
//  * sort_device_radix_seq — sorts arrays one at a time with the device-wide
//                           radix sort; models the Thrust-style baseline that
//                           underutilizes the device and pays per-array
//                           launch overhead.
//
// All strategies sort each array ascending in place and are interchangeable;
// tests verify they agree with std::sort.

#include <array>
#include <span>
#include <vector>

#include "src/device/device.hpp"
#include "src/obs/trace.hpp"
#include "src/sortnet/batch_sort.hpp"
#include "src/sortnet/var_arrays.hpp"

namespace gsnp::sortnet {

/// Size-class upper bounds for the multipass strategy.  The paper's six
/// passes: [0,1], (1,8], (8,16], (16,32], (32,64], (64, inf).
inline constexpr std::array<u32, 5> kDefaultClassBounds = {1, 8, 16, 32, 64};

void sort_cpu_batch(VarArrays& va);

/// Statistics a strategy reports (for the Fig 7b analysis).  One definition
/// across every strategy: `elements_real` counts the input elements of the
/// arrays a strategy actually sorted (arrays of size <= 1 are skipped and not
/// counted anywhere), so it is identical for the same VarArrays no matter the
/// path; `elements_padded` counts compare-network slots including padding —
/// the device work actually done, and the number Fig 7(b) compares.
struct SortStats {
  u64 arrays_sorted = 0;
  u64 elements_real = 0;    ///< input elements of the sorted arrays
  u64 elements_padded = 0;  ///< network slots incl. padding (work done)
  u32 passes = 0;
};

SortStats sort_device_multipass(
    device::Device& dev, VarArrays& va,
    std::span<const u32> class_bounds = kDefaultClassBounds,
    obs::Tracer* tracer = nullptr);

/// Device-resident multipass sort: the concatenated arrays stay in device
/// global memory; per-class gather/scatter between the CSR layout and the
/// padded batch layout runs as kernels (device-to-device), so the only PCIe
/// traffic is the small per-class member metadata.  This is how the real
/// GSNP pipeline keeps base_word on the card between counting, sorting and
/// likelihood.  `offsets_host` is the CSR offset table (count+1 entries)
/// matching the resident `words` buffer.
SortStats sort_device_multipass_resident(
    device::Device& dev, device::DeviceBuffer<u32>& words,
    std::span<const u64> offsets_host,
    std::span<const u32> class_bounds = kDefaultClassBounds,
    obs::Tracer* tracer = nullptr);

SortStats sort_device_singlepass(device::Device& dev, VarArrays& va);

SortStats sort_device_noneq(device::Device& dev, VarArrays& va);

SortStats sort_device_radix_seq(device::Device& dev, VarArrays& va);

}  // namespace gsnp::sortnet
