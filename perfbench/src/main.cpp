// alsmf_perfbench: one workload through the whole life of a model —
// ingest a ratings file, train to a held-out RMSE target with a checkpoint
// per iteration, publish the model with an IVF index and serve it, keep
// serving while older checkpoints are republished — calling only the
// library's public functions. See README.md in this directory.
//
//   alsmf_perfbench --workload <ntfx_k10|ymr4_k100> --seed <n> --seconds <s>
//                   --trace <0|1> [--scratch <dir>]
//   alsmf_perfbench --short [--scratch <dir>]
//   alsmf_perfbench --reference --workload <name> [--seed <n>] [--scratch <dir>]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Diagnostics go to standard error. --reference prints the
// README's ungated reference figures for one workload.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "bench.hpp"
#include "inputs.hpp"
#include "phases.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool reduced = false;
  bool reference = false;
  std::string scratch = ".bench_build/scratch";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: alsmf_perfbench --workload <ntfx_k10|ymr4_k100> "
               "--seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]\n"
               "       alsmf_perfbench --short [--scratch <dir>]\n"
               "       alsmf_perfbench --reference --workload <name> [--seed <n>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      a.reduced = true;
      continue;
    }
    if (flag == "--reference") {
      a.reference = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value after " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.reduced && a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds must be in (0, 600]");
  return a;
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

/// Layers whose calls the traced run must have wrapped in spans.
constexpr const char* kLayers[] = {"data.", "sparse.", "als.", "devsim.",
                                   "robust.", "index.", "recsys.", "serve."};

/// Metrics a complete run reports (BENCHMARK.json lists the same names).
constexpr std::size_t kEndToEndMetrics = 5;
constexpr std::size_t kLayerMetrics = 45;

struct Outcome {
  bool correct = false;
  long attempted = 0, failed = 0;
  Report report;
};

Outcome run_workload(const Workload& w, std::uint64_t seed, double seconds,
                     bool trace, const std::string& scratch_root) {
  const HostCpu host0 = HostCpu::read();
  const auto t0 = Clock::now();
  Tracer tracer(trace);
  Ledger ledger;
  Outcome out;
  ScratchDir scratch(scratch_root + "/" + w.name + "-" + std::to_string(seed) + "-" +
                     std::to_string(::getpid()));
  RunContext ctx{w, seed, seconds, scratch.path, &tracer, &ledger, &out.report};
  {
    Tracer::Scope root(tracer, "run");
    // Phase 1, untimed: the workload's inputs as a ratings text file.
    Inputs inputs;
    const std::string ratings = scratch.path + "/ratings.txt";
    {
      Tracer::Scope span(tracer, "phase.prepare");
      inputs = generate_inputs(w, seed);
      write_ratings_text(ratings, inputs);
    }
    auto prep = run_setup(ctx, ratings);
    const auto checkpoints = run_training(ctx, *prep);
    run_serving(ctx, inputs, checkpoints);
  }
  out.report.per_layer("host.steal_share", HostCpu::steal_share(host0, HostCpu::read()),
                       "fraction");
  if (trace) {
    for (const char* layer : kLayers) {
      ledger.record(tracer.spans_with_prefix(layer) > 0,
                    std::string("traced run recorded no span for layer ") + layer);
    }
    const std::string dir = scratch_root + "/../traces";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + w.name + "-" + std::to_string(seed) + ".json";
    ledger.record(tracer.write_chrome(path), "could not write the trace " + path);
    std::fprintf(stderr, "# trace: %zu spans written to %s\n", tracer.span_count(),
                 path.c_str());
  }
  out.attempted = ledger.attempted();
  out.failed = ledger.failed();
  out.correct = out.failed == 0;
  for (const auto& f : ledger.failures()) std::fprintf(stderr, "# FAILED: %s\n", f.c_str());
  std::fprintf(stderr, "# %s seed %" PRIu64 ": %.1f s wall, %ld operations, %ld failed\n",
               w.name.c_str(), seed, seconds_between(t0, Clock::now()), out.attempted,
               out.failed);
  return out;
}

void print_metrics(std::FILE* f, const std::map<std::string, Metric>& metrics) {
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                 name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
}

void print_result(const Outcome& o, bool trace) {
  // Both sets go to stderr so traced and untraced runs can be compared.
  for (const auto* set : {&o.report.end_to_end, &o.report.layer}) {
    for (const auto& [name, m] : *set) {
      std::fprintf(stderr, "#   %-32s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              o.correct ? "true" : "false", o.attempted, o.failed);
  print_metrics(stdout, trace ? o.report.layer : o.report.end_to_end);
  std::printf("}}\n");
  std::fflush(stdout);
}

int main_impl(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.reference) {
    const Workload w = workload_by_name(a.workload, false);
    Tracer tracer(false);
    Ledger ledger;
    Report report;
    ScratchDir scratch(a.scratch + "/reference-" + std::to_string(::getpid()));
    RunContext ctx{w, a.seed, a.seconds, scratch.path, &tracer, &ledger, &report};
    const std::string ratings = scratch.path + "/ratings.txt";
    write_ratings_text(ratings, generate_inputs(w, a.seed));
    run_reference(ctx, *run_setup(ctx, ratings));
    return 0;
  }
  if (!a.reduced) {
    const Workload w = workload_by_name(a.workload, false);
    print_result(run_workload(w, a.seed, a.seconds, a.trace, a.scratch), a.trace);
    return 0;
  }
  // Short mode: every phase and check of both workloads at reduced size,
  // traced, for the benchmark's own test.
  bool all_correct = true;
  for (const auto& name : workload_names()) {
    const Outcome o = run_workload(workload_by_name(name, true), a.seed, 1.0, true, a.scratch);
    const bool complete = o.report.end_to_end.size() == kEndToEndMetrics && o.report.layer.size() == kLayerMetrics;
    std::printf("%s: correct=%s attempted=%ld failed=%ld metrics=%zu+%zu\n", name.c_str(),
                o.correct ? "true" : "false", o.attempted, o.failed,
                o.report.end_to_end.size(), o.report.layer.size());
    all_correct = all_correct && o.correct && complete;
  }
  return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
