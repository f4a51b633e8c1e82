#include "perfbench/src/util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/sha256.hpp"
#include "src/core/simd.hpp"

extern char** environ;

namespace perfbench {

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Result::fail(std::string what) {
  correct = false;
  problems.push_back(std::move(what));
}

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void log_stage(const char* what, gsnp::Timer& timer) {
  std::fprintf(stderr, "perfbench: %-10s %.3fs\n", what, timer.seconds());
  timer.reset();
}

void log_samples(const char* what, const std::vector<double>& v) {
  if (v.empty()) return;
  std::fprintf(stderr, "perfbench: %-10s n=%zu min=%.6g median=%.6g max=%.6g\n",
               what, v.size(), *std::min_element(v.begin(), v.end()), median(v),
               *std::max_element(v.begin(), v.end()));
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << json_quote(metrics[i].name) << ": {\"value\": "
       << number(metrics[i].value) << ", \"unit\": "
       << json_quote(metrics[i].unit) << "}";
  }
  os << "}}";
  return os.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return out.good();
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

void flush_filesystem(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  GSNP_CHECK_MSG(fd >= 0, "cannot open " << dir);
  const int rc = ::syncfs(fd);
  ::close(fd);
  GSNP_CHECK_MSG(rc == 0, "syncfs " << dir << " failed");
}

std::string file_sha256(const fs::path& path) {
  return gsnp::sha256_file_hex(path);
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  GSNP_CHECK_MSG(in.good(), "cannot open " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

u64 derive_seed(u64 seed, u64 a, u64 b) {
  u64 state = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^ (b * 0xC2B2AE3D27D4EB4FULL);
  gsnp::splitmix64_next(state);
  return gsnp::splitmix64_next(state);
}

std::string environment_json() {
  std::string cpu_model;
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) cpu_model = line.substr(colon + 2);
        break;
      }
    }
  }
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << json_quote(cpu_model) << ", \"simd_level\": "
     << json_quote(gsnp::core::simd::level_name(
            gsnp::core::simd::active_level()))
     << ", \"env\": {";
  bool first = true;
  for (char** e = environ; e && *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("OMP_", 0) != 0 && kv.rfind("GOMP_", 0) != 0 &&
        kv.rfind("GSNP_", 0) != 0)
      continue;
    const auto eq = kv.find('=');
    os << (first ? "" : ", ") << json_quote(kv.substr(0, eq)) << ": "
       << json_quote(eq == std::string::npos ? "" : kv.substr(eq + 1));
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
