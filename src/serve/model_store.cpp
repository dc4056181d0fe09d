#include "serve/model_store.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/halfprec.hpp"
#include "index/ivf_index.hpp"
#include "recsys/recommender.hpp"

namespace alsmf::serve {

const char* to_string(SnapshotQuantization q) {
  switch (q) {
    case SnapshotQuantization::kNone: return "fp32";
    case SnapshotQuantization::kFp16: return "fp16";
    case SnapshotQuantization::kInt8: return "int8";
  }
  return "?";
}

namespace {

void quantize_fp16(Matrix& m) {
  real* p = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    p[i] = static_cast<real>(fp16_round_ftz(static_cast<float>(p[i])));
  }
}

/// Symmetric per-row int8: scale = maxabs/127, values snapped to the
/// reconstruction grid q*scale. An all-zero row keeps scale 0 and stays
/// exactly zero.
void quantize_int8(Matrix& m) {
  const int k = static_cast<int>(m.cols());
  for (index_t r = 0; r < m.rows(); ++r) {
    real* row = m.data() + static_cast<std::size_t>(r) * k;
    real maxabs = 0;
    for (int j = 0; j < k; ++j) maxabs = std::max(maxabs, std::abs(row[j]));
    if (maxabs == real{0}) continue;
    const real scale = maxabs / real{127};
    for (int j = 0; j < k; ++j) {
      row[j] = std::round(row[j] / scale) * scale;
    }
  }
}

}  // namespace

std::size_t ModelSnapshot::factor_bytes() const {
  const std::size_t elems = x.size() + y.size();
  const std::size_t rows =
      static_cast<std::size_t>(x.rows()) + static_cast<std::size_t>(y.rows());
  switch (quantization) {
    case SnapshotQuantization::kNone: return elems * 4;
    case SnapshotQuantization::kFp16: return elems * 2;
    case SnapshotQuantization::kInt8: return elems + rows * sizeof(float);
  }
  return elems * 4;
}

void quantize_snapshot(ModelSnapshot& snap, SnapshotQuantization q) {
  ALSMF_CHECK_MSG(snap.ann == nullptr,
                  "quantize_snapshot must run before attach_ivf_index so the "
                  "index is built over the values requests score against");
  snap.quantization = q;
  if (q == SnapshotQuantization::kNone) return;
  if (q == SnapshotQuantization::kFp16) {
    quantize_fp16(snap.x);
    quantize_fp16(snap.y);
  } else {
    quantize_int8(snap.x);
    quantize_int8(snap.y);
  }
}

std::shared_ptr<ModelSnapshot> snapshot_from_recommender(const Recommender& rec,
                                                         real lambda) {
  ALSMF_CHECK_MSG(rec.trained(), "snapshot of an untrained Recommender");
  auto snap = std::make_shared<ModelSnapshot>();
  snap->x = rec.user_factors();
  snap->y = rec.item_factors();
  if (rec.has_bias()) {
    snap->bias = rec.bias();
    snap->has_bias = true;
  }
  snap->lambda = lambda;
  return snap;
}

std::shared_ptr<ModelSnapshot> snapshot_from_factors(Matrix x, Matrix y,
                                                     real lambda) {
  ALSMF_CHECK_MSG(x.cols() == y.cols(), "factor rank mismatch");
  auto snap = std::make_shared<ModelSnapshot>();
  snap->x = std::move(x);
  snap->y = std::move(y);
  snap->lambda = lambda;
  return snap;
}

void attach_ivf_index(ModelSnapshot& snap, const index::IvfOptions& options) {
  snap.ann = index::IvfIndex::build(snap.y, options,
                                    snap.has_bias ? &snap.bias : nullptr);
}

ModelStore::ModelStore(std::shared_ptr<ModelSnapshot> initial) {
  if (initial) publish(std::move(initial));
}

std::uint64_t ModelStore::publish(std::shared_ptr<ModelSnapshot> next) {
  ALSMF_CHECK_MSG(next != nullptr, "publishing a null snapshot");
  ALSMF_CHECK_MSG(next->x.cols() == next->y.cols(),
                  "snapshot factor rank mismatch");
  // A mismatched model+index pair must never become visible to readers.
  ALSMF_CHECK_MSG(!next->ann || (next->ann->items() == next->y.rows() &&
                                 next->ann->k() == next->y.cols()),
                  "snapshot index was built for a different item factor "
                  "matrix shape");
  const std::uint64_t v = next_version_.fetch_add(1, std::memory_order_relaxed);
  next->version = v;
  std::shared_ptr<const ModelSnapshot> previous(std::move(next));
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap_.swap(previous);
  }
  // `previous` is released here, outside the lock: when it was the last
  // reference, freeing a whole model must not stall readers.
  publishes_.fetch_add(1, std::memory_order_relaxed);
  return v;
}

std::uint64_t ModelStore::version() const {
  const auto snap = current();
  return snap ? snap->version : 0;
}

}  // namespace alsmf::serve
