// Shared helpers for the benchmark binaries.
//
// Every binary follows the same shape: main() prints the paper-figure
// reproduction table(s) on stdout, then hands over to google-benchmark for
// the timing section, so the stdout of a run is the reproduction record.
//
// Machine-readable perf trajectory: every binary declares a JSON artifact
// name (RESCHED_BENCH_MAIN's second argument, e.g. "BENCH_profile.json").
// When the RESCHED_BENCH_JSON environment variable is set to a directory
// (use "." for the cwd) and the caller did not pass --benchmark_out
// themselves, the run is mirrored there through google-benchmark's JSON
// reporter, so CI can archive BENCH_*.json across PRs and diff the numbers.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace resched::benchutil {

inline void print_header(const std::string& experiment,
                         const std::string& description) {
  std::cout << "\n=== " << experiment << " ===\n" << description << "\n\n";
}

inline void print_table(const Table& table) {
  std::cout << table.to_string() << "\n";
}

// Standard main body: tables first, then timings (optionally mirrored to
// $RESCHED_BENCH_JSON/<json_name> as google-benchmark JSON).
inline int bench_main(int argc, char** argv, void (*print_tables)(),
                      const char* json_name) {
  print_tables();
  std::vector<char*> args(argv, argv + argc);
  bool explicit_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0 ||
        std::strcmp(argv[i], "--benchmark_out") == 0)
      explicit_out = true;
  // Storage must outlive Initialize(); keep the flag strings here.
  std::string out_flag;
  std::string format_flag;
  const char* json_dir = std::getenv("RESCHED_BENCH_JSON");
  if (json_dir != nullptr && *json_dir != '\0' && !explicit_out) {
    out_flag = std::string("--benchmark_out=") + json_dir + "/" + json_name;
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  ::benchmark::Initialize(&effective_argc, args.data());
  if (::benchmark::ReportUnrecognizedArguments(effective_argc, args.data()))
    return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

#define RESCHED_BENCH_MAIN(print_tables_fn, json_name)                     \
  int main(int argc, char** argv) {                                        \
    return ::resched::benchutil::bench_main(argc, argv, print_tables_fn,   \
                                            json_name);                    \
  }

}  // namespace resched::benchutil
