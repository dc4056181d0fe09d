// RCU-style published model snapshots for zero-downtime retraining.
//
// A ModelSnapshot is an immutable copy of everything serving needs (factor
// matrices, optional bias block, the fold-in λ). The ModelStore publishes
// snapshots through a shared_ptr guarded by a mutex that is held only to
// copy or swap the pointer: readers acquire the current snapshot and keep
// serving from it even while a retrained model is swapped in — in-flight
// requests finish on the old snapshot, which is reclaimed when its last
// reader drops the reference (the read-copy-update pattern, with shared_ptr
// as the grace period).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "linalg/dense.hpp"
#include "recsys/bias.hpp"

namespace alsmf {
class Recommender;
}

namespace alsmf::index {
class IvfIndex;
struct IvfOptions;
}

namespace alsmf::serve {

/// Factor-snapshot compression for serving. Quantization happens once at
/// snapshot-build time (before the IVF index is attached, so the index is
/// built over the values requests actually score against); the serving path
/// keeps scoring in fp32 over the dequantized values, so only the resident
/// footprint and refresh traffic shrink, not the scoring kernels.
enum class SnapshotQuantization {
  kNone,  ///< fp32 factors as trained (4 B/element)
  kFp16,  ///< IEEE half storage, subnormals flushed (2 B/element)
  kInt8,  ///< symmetric per-row int8, scale = maxabs/127 (1 B + scale/row)
};

const char* to_string(SnapshotQuantization q);

struct ModelSnapshot {
  Matrix x;  ///< user factors (users × k)
  Matrix y;  ///< item factors (items × k)
  BiasModel bias;
  bool has_bias = false;
  real lambda = 0.1f;  ///< regularization used for fold-in row solves
  std::uint64_t version = 0;  ///< assigned by ModelStore::publish
  /// Optional ANN top-N index over `y`. Built before publish and immutable
  /// alongside the factors, so one snapshot acquire always yields a matched
  /// model+index pair — there is no window where a request could score
  /// against one model version and probe an index built for another.
  /// Null = exhaustive scoring.
  std::shared_ptr<const index::IvfIndex> ann;
  /// Storage format the factors were rounded through (quantize_snapshot).
  SnapshotQuantization quantization = SnapshotQuantization::kNone;

  index_t users() const { return x.rows(); }
  index_t items() const { return y.rows(); }
  int k() const { return static_cast<int>(y.cols()); }

  /// Modeled resident bytes of the factor block under `quantization`
  /// (int8 includes the per-row fp32 scales).
  std::size_t factor_bytes() const;
};

/// Deep-copies a trained Recommender into a publishable snapshot.
std::shared_ptr<ModelSnapshot> snapshot_from_recommender(const Recommender& rec,
                                                         real lambda = 0.1f);

/// Wraps raw factor matrices (moved in) into a snapshot.
std::shared_ptr<ModelSnapshot> snapshot_from_factors(Matrix x, Matrix y,
                                                     real lambda = 0.1f);

/// Builds an IVF index over `snap->y` (honoring the snapshot's bias model)
/// and attaches it. Call before publishing; the snapshot must not be
/// visible to readers yet.
void attach_ivf_index(ModelSnapshot& snap, const index::IvfOptions& options);

/// Rounds both factor matrices through the requested storage format in
/// place and records it on the snapshot. Call before attach_ivf_index /
/// publish, while the snapshot is still private — quantizing a published
/// snapshot would mutate state concurrent readers are scoring against.
void quantize_snapshot(ModelSnapshot& snap, SnapshotQuantization q);

class ModelStore {
 public:
  /// Starts empty when `initial` is null; publish() before serving.
  explicit ModelStore(std::shared_ptr<ModelSnapshot> initial = nullptr);

  /// Atomically replaces the served snapshot. Assigns the next version
  /// number to `next` and returns it. The previous snapshot stays alive
  /// until the last in-flight reader releases it.
  std::uint64_t publish(std::shared_ptr<ModelSnapshot> next);

  /// The current snapshot (null before first publish). The lock covers only
  /// the pointer copy, never a reader's use of the snapshot.
  std::shared_ptr<const ModelSnapshot> current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snap_;
  }

  /// Version of the currently published snapshot (0 when empty).
  std::uint64_t version() const;

  /// Number of publishes so far.
  std::uint64_t publish_count() const {
    return publishes_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ModelSnapshot> snap_;  ///< guarded by mu_
  std::atomic<std::uint64_t> next_version_{1};
  std::atomic<std::uint64_t> publishes_{0};
};

}  // namespace alsmf::serve
