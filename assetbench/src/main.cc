// assetbench: runs one named workload against the ASSET library and
// prints one JSON result line (see ../README.md).
//
//   assetbench --workload <ledger_durable|session_rtt|extended_models>
//              --seed <n> --seconds <s> --trace <0|1>
//              --run-dir <dir> --out-dir <dir> [--short] [--plant <name>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// half untraced, half traced, and prints the per-layer metrics.
// --short shrinks sizes and probe budgets; --plant writes one wrong
// outcome into the program's state before the checks (tests only).
// Exit status: 0 when every check passed, 1 when one failed (the
// result line is still printed), 2 on a usage or set-up error.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "assetbench: %s\n", why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  assetbench::MarkProcessStart();
  assetbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--run-dir") {
      args.run_dir = value();
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else if (flag == "--short") {
      args.small = true;
    } else if (flag == "--plant") {
      args.plant = value();
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) Usage("--seconds must be positive");
  if (args.run_dir.empty() || args.out_dir.empty()) {
    Usage("--run-dir and --out-dir are required");
  }
  std::filesystem::remove_all(args.run_dir);
  std::filesystem::create_directories(args.run_dir);

  assetbench::Result r;
  if (args.workload == "ledger_durable") {
    assetbench::RunLedgerDurable(args, &r);
  } else if (args.workload == "session_rtt") {
    assetbench::RunSessionRtt(args, &r);
  } else if (args.workload == "extended_models") {
    assetbench::RunExtendedModels(args, &r);
  } else {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  std::filesystem::remove_all(args.run_dir);
  if (r.attempted == 0) r.Fail("no operation was attempted");
  std::printf("%s\n", r.Json().c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
