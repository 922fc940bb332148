// perfbench: the owner->provider benchmark program (README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> --out-dir <dir> [--tiny]
//
// Prints the environment, one line per metric with its unit, and as its
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 1 on any mismatch against the plaintext references, 2 on usage or
// environment errors.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "common/simd.h"

namespace {

using perfbench::RunConfig;
using perfbench::RunOutput;

/// Variables that would change what an untraced run measures.
constexpr const char* kPinnedEnv[] = {"DPE_TRACE", "DPE_FAULT",
                                      "DPE_KERNEL_BACKEND",
                                      "DPE_TELEMETRY_PORT",
                                      "DPE_TELEMETRY_PUSH_URL"};

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> --out-dir <dir> "
               "[--tiny]\n",
               msg);
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--tiny") {
      config.tiny = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      config.workload = v;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::atof(v);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--workdir") {
      config.workdir = v;
    } else if (arg == "--out-dir") {
      config.out_dir = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) {
    known = known || w == config.workload;
  }
  if (!known) return Usage(("unknown workload '" + config.workload + "'").c_str());
  if (!have_seed || config.seconds <= 0 || config.workdir.empty() ||
      config.out_dir.empty()) {
    return Usage("--seed, --seconds > 0, --workdir and --out-dir are required");
  }
  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; unset it so the "
                   "run measures the pinned configuration\n",
                   name);
      return 2;
    }
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.tiny ? " (tiny sizes)" : "");
  std::printf("kernel_backend=%s engine_threads=%zu nproc=%u cpu=\"%s\"\n",
              dpe::common::simd::BackendName(
                  perfbench::PinnedOptions(false).kernel_backend),
              perfbench::kThreads, std::thread::hardware_concurrency(),
              CpuModel().c_str());
  std::printf("load: closed loop, 1 client, one process; "
              "fsync_policy=on_checkpoint; engine trace off; telemetry off\n");
  std::fflush(stdout);

  RunOutput out;
  const dpe::Status status = config.trace
                                 ? perfbench::RunTraced(config, out)
                                 : perfbench::RunWorkload(config, out);
  if (!status.ok()) out.checker.Fail("workload aborted", status);
  perfbench::RemoveTree(config.workdir);
  for (const auto& [name, m] : out.metrics) {
    out.checker.Expect(std::isfinite(m.value), name + " was not measured");
  }
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());

  const uint64_t attempted = std::max<uint64_t>(out.checker.attempted(), 1);
  const uint64_t failed = out.checker.failed();
  const bool correct = status.ok() && failed == 0;
  for (const auto& [name, m] : out.metrics) {
    std::printf("  %-42s %18.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-42s %18.6f %s  (%llu failed / %llu attempted)\n",
              "error_rate", static_cast<double>(failed) / attempted, "ratio",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
