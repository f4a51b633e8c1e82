// gsnp_perfbench — the repository benchmark program (see perfbench/README.md).
//
//   gsnp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR
//   gsnp_perfbench --self-test --workdir DIR
//
// Prints one environment line and then, as the last line of standard
// output, the result object.  Exit codes: 0 ran (the result says whether
// outputs were correct), 1 self-test failure or error, 2 usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "perfbench/src/workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gsnp_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n"
               "       gsnp_perfbench --self-test --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (!value) return usage();
    ++i;
    if (arg == "--workload") opts.workload = value;
    else if (arg == "--seed") opts.seed = std::strtoull(value, nullptr, 10);
    else if (arg == "--seconds") opts.seconds = std::strtod(value, nullptr);
    else if (arg == "--trace") opts.trace = std::strcmp(value, "0") != 0;
    else if (arg == "--workdir") opts.workdir = value;
    else return usage();
  }
  if (opts.workdir.empty()) return usage();
  try {
    if (self_test) return perfbench::run_self_test(opts.workdir) == 0 ? 0 : 1;
    perfbench::Result result;
    if (opts.workload == "service_mixed")
      result = perfbench::run_service_workload(opts);
    else if (opts.workload == "genome_device" || opts.workload == "genome_host_deep")
      result = perfbench::run_genome_workload(opts);
    else
      return usage();
    for (const std::string& p : result.problems)
      std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    std::printf("{\"environment\": %s}\n", perfbench::environment_json().c_str());
    std::printf("%s\n", result.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
