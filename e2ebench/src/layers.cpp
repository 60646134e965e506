// Per-layer probes: the benchmark calls one layer's public functions
// directly on the blocks a workload wrote, and the host bounds those
// layers run against.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "format/crc32.hpp"
#include "format/dh5.hpp"
#include "format/pipeline.hpp"
#include "shm/event_queue.hpp"
#include "shm/shared_buffer.hpp"

namespace e2e {
namespace {

using namespace dmr;

std::uint64_t total_bytes(const ProbeInput& in) {
  std::uint64_t n = 0;
  for (const auto& b : in.blocks) n += b.size();
  return n;
}

/// Repetitions so that one measurement covers at least `target` bytes.
int reps_for(std::uint64_t bytes, std::uint64_t target, int min_reps) {
  return std::max<int>(min_reps, static_cast<int>((target + bytes - 1) / bytes));
}

/// Median GB/s of `rounds` timed calls of `fn`, each moving `bytes`.
template <typename Fn>
double rate_gb_s(int rounds, std::uint64_t bytes, Fn&& fn) {
  std::vector<double> rates;
  for (int r = 0; r < rounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    rates.push_back(static_cast<double>(bytes) / seconds_since(t0) / 1e9);
  }
  return median(rates);
}

}  // namespace

void probe_shm(const ProbeInput& in, SpanLane* lane, Values& values) {
  ScopedSpan span(lane, "shm.handoff", "shm", "ingest");
  shm::SharedBuffer buffer(in.buffer_bytes, shm::AllocPolicy::kMutexFirstFit, in.clients);
  shm::EventQueue queue;
  const std::size_t size = in.blocks.front().size();
  const int warmup = 100;
  const int reps = in.smoke ? 200 : reps_for(size, 512ull << 20, 300);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < warmup + reps; ++r) {
    const auto& src = in.blocks[static_cast<std::size_t>(r) % in.blocks.size()];
    const Clock::time_point t0 = Clock::now();
    auto block = buffer.allocate(size, r % in.clients);
    if (!block.is_ok()) continue;
    std::memcpy(buffer.data(block.value()), src.data(), size);
    shm::Message msg;
    msg.type = shm::MessageType::kWriteNotification;
    msg.client_id = r % in.clients;
    msg.iteration = r;
    msg.block = block.value();
    if (!queue.push(msg)) {
      buffer.deallocate(block.value());
      continue;
    }
    auto popped = queue.pop();
    if (popped) buffer.deallocate(popped->block);
    if (r >= warmup) us.push_back(seconds_since(t0) * 1e6);
  }
  const double p50 = median(us);
  values["shm.handoff_us"] = p50;
  values["shm.handoff_gb_s"] = p50 > 0.0 ? static_cast<double>(size) / (p50 * 1e-6) / 1e9 : 0.0;
}

void probe_format(const ProbeInput& in, SpanLane* lane, Values& values, Report& report) {
  const std::uint64_t bytes = total_bytes(in);
  const int rounds = in.smoke ? 1 : 5;
  const int reps = in.smoke ? 1 : reps_for(bytes, 64ull << 20, 1);
  {
    // Every round must give the same checksum over the blocks.
    ScopedSpan span(lane, "format.crc32", "format", "storage");
    std::vector<std::uint32_t> sums;
    values["format.crc32_gb_s"] = rate_gb_s(rounds, bytes * reps, [&] {
      std::uint32_t sum = 0;
      for (int r = 0; r < reps; ++r) {
        for (const auto& b : in.blocks) sum = format::crc32(b, sum);
      }
      sums.push_back(sum);
    });
    report.check(std::all_of(sums.begin(), sums.end(), [&](std::uint32_t x) { return x == sums[0]; }),
                 "crc32 probe is deterministic");
  }
  std::vector<format::EncodedBuffer> encoded(in.blocks.size());
  {
    ScopedSpan span(lane, "format.encode_identity", "format", "transform");
    values["format.encode_identity_gb_s"] = rate_gb_s(rounds, bytes * reps, [&] {
      for (int r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < in.blocks.size(); ++i) {
          encoded[i] = format::Pipeline::identity().encode(in.blocks[i]);
        }
      }
    });
  }
  {
    // One iteration into one DH5 file, as the persistency layer writes it.
    ScopedSpan span(lane, "format.dh5_write", "format", "storage");
    const std::string path = in.out_dir + "/probe.dh5";
    format::Layout layout;
    layout.type = format::DataType::kFloat32;
    layout.dims = in.dims;
    const int files = in.smoke ? 1 : std::min(reps, 8);
    bool ok = true;
    values["format.dh5_write_gb_s"] = rate_gb_s(rounds, bytes * files, [&] {
      for (int f = 0; f < files; ++f) {
        auto writer = format::Dh5Writer::create(path);
        if (!writer.is_ok()) {
          ok = false;
          return;
        }
        for (std::size_t i = 0; i < encoded.size(); ++i) {
          format::DatasetInfo info;
          info.name = "probe";
          info.iteration = static_cast<std::int64_t>(i);
          info.source = 0;
          info.layout = layout;
          ok = writer.value().add_encoded(info, encoded[i], in.blocks[i].size()).is_ok() && ok;
        }
        ok = writer.value().finalize().is_ok() && ok;
      }
    });
    std::filesystem::remove(path);
    report.check(ok, "format probe DH5 writes succeed");
  }
  {
    // Lossless encode over at most 3 MiB of the blocks.
    ScopedSpan span(lane, "format.encode_lossless", "format", "transform");
    std::size_t n = 0;
    std::uint64_t raw = 0;
    while (n < in.blocks.size() && raw + in.blocks[n].size() <= (3ull << 20)) raw += in.blocks[n++].size();
    if (n == 0) raw = in.blocks[n++].size();
    std::uint64_t stored = 0;
    bool round_trip = true;
    const double gb_s = rate_gb_s(in.smoke ? 1 : 3, raw, [&] {
      stored = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const format::EncodedBuffer enc = format::Pipeline::lossless().encode(in.blocks[i]);
        stored += enc.data.size();
        if (i == 0) {
          auto back = format::Pipeline::decode(enc);
          round_trip = back.is_ok() && back.value().size() == in.blocks[0].size() &&
                       std::memcmp(back.value().data(), in.blocks[0].data(), in.blocks[0].size()) == 0;
        }
      }
    });
    report.check(round_trip, "lossless probe round-trips");
    values["format.encode_lossless_mb_s"] = gb_s * 1e3;
    values["format.compression_ratio"] = stored > 0 ? static_cast<double>(raw) / static_cast<double>(stored) : 0.0;
  }
}

void probe_rooflines(const ProbeInput& in, Values& values, Report& report) {
  const std::size_t block = in.blocks.front().size();
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (llc <= 0) llc = 32l << 20;
  // One array of at least 4x the last-level cache; each pass copies its
  // first half onto its second half in block-sized memcpys.
  std::size_t array = in.smoke ? (64ull << 20) : 4 * static_cast<std::size_t>(llc);
  const std::size_t half = (array / 2 + block - 1) / block * block;
  array = 2 * half;
  {
    std::unique_ptr<std::byte[]> mem(new std::byte[array]);
    std::memset(mem.get(), 1, array);
    values["roofline.memcpy_gb_s"] = rate_gb_s(in.smoke ? 1 : 3, half, [&] {
      for (std::size_t off = 0; off < half; off += block) {
        std::memcpy(mem.get() + half + off, mem.get() + off, block);
      }
    });
    report.note("roofline.memcpy_gb_s: " + std::to_string(block) + " B memcpys over one " +
                std::to_string(array >> 20) + " MiB array (last-level cache " +
                std::to_string(llc >> 20) + " MiB" + (in.smoke ? ", smoke size" : "") + ")");
  }
  // Disk: write + fdatasync; the program itself never fsyncs its files.
  const std::string path = in.out_dir + "/roofline.bin";
  const std::size_t chunk = 1u << 20;
  const std::size_t total = in.smoke ? (4u << 20) : (64u << 20);
  std::vector<std::byte> buf(chunk, std::byte{0x5a});
  bool ok = true;
  values["roofline.disk_gb_s"] = rate_gb_s(in.smoke ? 1 : 3, total, [&] {
    const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
    if (fd < 0) {
      ok = false;
      return;
    }
    for (std::size_t done = 0; done < total; done += chunk) {
      ok = ::write(fd, buf.data(), chunk) == static_cast<ssize_t>(chunk) && ok;
    }
    ok = ::fdatasync(fd) == 0 && ok;
    ok = ::close(fd) == 0 && ok;
  });
  std::filesystem::remove(path);
  report.check(ok, "disk roofline writes succeed");
  report.note("roofline.disk_gb_s: " + std::to_string(total >> 20) +
              " MiB in 1 MiB writes + fdatasync to the output directory; the "
              "program does not fsync its DH5 files");
}

}  // namespace e2e
