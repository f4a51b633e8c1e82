// Reproduces paper Fig 7(a): batch-sort throughput (million elements/sec)
// as a function of the batch array size, for three implementations:
//   cpu_qsort  — parallel CPU sort, parallel_for lanes over whole arrays
//                (measured)
//   batch_bitonic — our device batch-sort primitive (modeled M2050 time)
//   radix_seq  — device-wide radix sort applied to one array at a time
//                (modeled; the Thrust-style baseline)
//
// Expected shape: batch_bitonic above cpu_qsort (paper: ~1.5x); radix_seq
// orders of magnitude below both; throughput decreases as arrays grow.

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "src/common/timer.hpp"
#include "src/device/perf_model.hpp"
#include "src/sortnet/batch_sort.hpp"
#include "src/sortnet/multipass.hpp"

using namespace gsnp;
using namespace gsnp::bench;

int main(int argc, char** argv) {
  const u64 total_elements = flag_u64(argc, argv, "--elements", 2'000'000);
  const u64 radix_arrays = flag_u64(argc, argv, "--radix-arrays", 64);
  print_banner("bench_fig7a_batchsort",
               "Fig 7(a): batch sort throughput vs array size",
               "Throughput = elements sorted / second (Melem/s); GPU rows "
               "are modeled M2050 time.");
  const device::PerfModel model;

  std::printf("%10s %16s %16s %16s\n", "array_size", "cpu_qsort",
              "batch_bitonic", "radix_seq");

  for (const u32 array_size : {16u, 32u, 64u, 128u, 256u}) {
    const u64 num_arrays = total_elements / array_size;

    // CPU parallel quicksort (measured wall-clock).
    double cpu_melems;
    {
      sortnet::VarArrays va =
          sortnet::equal_var_arrays(num_arrays, array_size, 1u << 18, 5);
      Timer t;
      sortnet::sort_cpu_batch(va);
      cpu_melems = static_cast<double>(total_elements) / t.seconds() / 1e6;
    }

    // Device batch bitonic (modeled).
    double gpu_melems;
    {
      sortnet::VarArrays va =
          sortnet::equal_var_arrays(num_arrays, array_size, 1u << 18, 6);
      device::Device dev;
      auto buf = dev.to_device(std::span<const u32>(va.values));
      dev.reset_counters();
      sortnet::batch_bitonic_sort(dev, buf, array_size, num_arrays);
      gpu_melems = static_cast<double>(total_elements) /
                   model.seconds(dev.counters()) / 1e6;
    }

    // Sequential device radix per array (modeled; run on a subsample — the
    // per-array cost is constant for equal sizes, so throughput is exact).
    double radix_melems;
    {
      sortnet::VarArrays va = sortnet::equal_var_arrays(
          std::min(radix_arrays, num_arrays), array_size, 1u << 18, 7);
      device::Device dev;
      dev.reset_counters();
      sortnet::sort_device_radix_seq(dev, va);
      radix_melems = static_cast<double>(va.total_elements()) /
                     model.seconds(dev.counters()) / 1e6;
    }

    std::printf("%10u %13.1f M/s %13.1f M/s %13.3f M/s\n", array_size,
                cpu_melems, gpu_melems, radix_melems);
  }
  print_paper_note("GPU batch sort ~1.5x the parallel-CPU throughput; the "
                   "sequential radix baseline is orders of magnitude lower; "
                   "throughput decreases with array size");
  return 0;
}
