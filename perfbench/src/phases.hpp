// The phases of one benchmark run. Each phase calls only the library's
// public functions, times each call, and records its metrics, spans and
// checks in the run's context.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "als/options.hpp"
#include "als/solver.hpp"
#include "devsim/device.hpp"
#include "devsim/profile.hpp"
#include "inputs.hpp"
#include "linalg/dense.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "tracer.hpp"

namespace perfbench {

struct RunContext {
  Workload w;
  std::uint64_t seed = 0;
  double seconds = 0;      ///< serving phases share this wall budget
  std::string workdir;     ///< scratch directory of this run
  Tracer* tracer = nullptr;
  Ledger* ledger = nullptr;
  Report* report = nullptr;
};

/// Phase 2's products: what the CLI and Recommender build before training.
struct Prepared {
  alsmf::Coo test;
  alsmf::Csr train;
  alsmf::AlsOptions options;
  alsmf::devsim::DeviceProfile profile;
  alsmf::AlsVariant variant;
  std::unique_ptr<alsmf::devsim::Device> device;
  std::unique_ptr<alsmf::AlsSolver> solver;  ///< holds a reference to train
};

/// Ingest -> split -> CSR -> variant selection -> solver, repeated
/// w.setup_repeats times; returns the last repetition's products.
std::unique_ptr<Prepared> run_setup(RunContext& ctx,
                                    const std::string& ratings_path);

/// Factors saved after one training iteration, kept for the checkpoint
/// reload check and for checking served answers of that version.
struct SavedCheckpoint {
  std::string path;
  alsmf::Matrix x, y;
};

/// Trains to the budget with a held-out evaluation and a checkpoint after
/// every iteration, then reruns to the target for the remaining
/// time-to-target samples.
std::vector<SavedCheckpoint> run_training(RunContext& ctx, Prepared& prep);

/// Reference figures that are not gated: iter_s with a single-worker pool,
/// and modeled seconds to the target's iteration count on every device
/// profile from accounting-only reruns. Prints one line per figure.
void run_reference(RunContext& ctx, Prepared& prep);

/// Publishes the final checkpoint, runs the saturation, open-loop and
/// refresh phases, and measures recall.
void run_serving(RunContext& ctx, const Inputs& inputs,
                 const std::vector<SavedCheckpoint>& checkpoints);

}  // namespace perfbench
