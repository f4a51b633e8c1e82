#include "src/device/device.hpp"

#include <exception>
#include <functional>
#include <sstream>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/device/perf_model.hpp"

namespace gsnp::device {

Device::Device(const DeviceSpec& spec) : spec_(spec) {}

void Device::reserve_global(u64 bytes) {
  const u64 seq = alloc_seq_++;
  if (spec_.fault.hits(spec_.fault.fail_alloc_at, seq)) {
    std::ostringstream os;
    os << "injected device OOM at allocation #" << seq << " (" << bytes
       << " bytes requested, " << global_used_.load() << " allocated)";
    throw DeviceOomError(os.str(), bytes, global_used_.load());
  }
  const u64 used = global_used_.fetch_add(bytes) + bytes;
  if (used > spec_.global_bytes) {
    global_used_ -= bytes;
    std::ostringstream os;
    os << "device global memory exceeded: " << bytes << " bytes requested, "
       << (used - bytes) << " allocated of " << spec_.global_bytes;
    throw DeviceOomError(os.str(), bytes, used - bytes);
  }
  u64 peak = global_peak_.load();
  while (peak < used && !global_peak_.compare_exchange_weak(peak, used)) {
  }
  u64 wpeak = watermark_peak_.load();
  while (wpeak < used && !watermark_peak_.compare_exchange_weak(wpeak, used)) {
  }
}

void Device::begin_launch() {
  const u64 seq = launch_seq_++;
  if (spec_.fault.hits(spec_.fault.fail_launch_at, seq)) {
    std::ostringstream os;
    os << "injected device fault: kernel launch #" << seq << " failed";
    throw DeviceFaultError(os.str());
  }
}

void Device::verify_transfer(const char* dir, std::span<std::byte> dst,
                             u32 src_crc, u64 seq, bool corrupt) {
  if (corrupt && !dst.empty()) {
    // Deterministic corruption: one seeded-random byte XORed with a nonzero
    // mask, different per transfer.
    Rng rng(spec_.fault.seed ^ (seq * 0x9E3779B97F4A7C15ULL));
    const u64 at = rng.uniform(dst.size());
    dst[at] ^= static_cast<std::byte>(1 + rng.uniform(255));
  }
  const u32 dst_crc = crc32(dst.data(), dst.size());
  if (dst_crc != src_crc) {
    std::ostringstream os;
    os << dir << " transfer #" << seq << " corrupted: crc " << std::hex
       << dst_crc << " != " << src_crc << " over " << std::dec << dst.size()
       << " bytes";
    throw DeviceFaultError(os.str());
  }
}

void Device::finish_h2d(std::span<std::byte> dst, u32 src_crc) {
  const u64 seq = h2d_seq_++;
  verify_transfer("h2d", dst, src_crc, seq,
                  spec_.fault.hits(spec_.fault.corrupt_h2d_at, seq));
}

void Device::finish_d2h(std::span<std::byte> dst, u32 src_crc) {
  const u64 seq = d2h_seq_++;
  verify_transfer("d2h", dst, src_crc, seq,
                  spec_.fault.hits(spec_.fault.corrupt_d2h_at, seq));
}

void Device::run_blocks(u32 grid_dim, u32 block_dim,
                        const std::function<void(BlockContext&)>& body) {
  // Per-lane shared-memory arenas and counter shards, reduced at the end;
  // kernels therefore never contend on the device-wide counter struct.  An
  // arena is sized on its lane's first block, so a small grid allocates
  // only the lanes it uses.  Every simulated access bumps a shard counter,
  // so each shard gets its own cache lines: packed 120-byte shards falsely
  // share lines and cost more than the block parallelism gains.
  struct alignas(64) Shard {
    DeviceCounters counters;
  };
  const std::size_t width = parallel_width();
  std::vector<std::vector<std::byte>> arenas(width);
  std::vector<Shard> shards(width);

  // A throwing block (kernels throw on contract violations such as
  // out-of-range accesses or shared-memory overflow) cancels the blocks not
  // yet started; parallel_for rethrows it once the running ones finish.
  std::exception_ptr error;
  try {
    parallel_for(grid_dim, 16, [&](std::size_t b, std::size_t lane) {
      auto& arena = arenas[lane];
      if (arena.empty()) arena.resize(spec_.shared_bytes);
      BlockContext blk(static_cast<u32>(b), grid_dim, block_dim,
                       std::span<std::byte>(arena), &shards[lane].counters);
      body(blk);
    });
  } catch (...) {
    error = std::current_exception();
  }

  // Shards are reduced exactly once, aborted launch or not: blocks that ran
  // before the cancellation still count (their work happened), blocks that
  // were skipped contributed nothing to their shard.
  for (const Shard& shard : shards) counters_ += shard.counters;
  if (error) std::rethrow_exception(error);
}

void Device::notify_launch(std::string_view name, u32 grid_dim, u32 block_dim,
                           const DeviceCounters& before, bool failed) {
  LaunchInfo info;
  info.name = name;
  info.grid_dim = grid_dim;
  info.block_dim = block_dim;
  info.stream_id = current_stream_;
  info.failed = failed;
  info.delta = counters_delta(before, counters_);
  info.allocated_bytes = global_used_.load();
  info.peak_global_bytes = global_peak_.load();
  if (auto* listener = listener_.load(std::memory_order_acquire))
    listener->on_kernel_launch(info);
}

}  // namespace gsnp::device
