// Phases 4 to 6: publish, serve (closed-loop saturation, open-loop
// read-only, open-loop under checkpoint republishing) and recall.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <thread>
#include <unordered_set>

#include "common/thread_pool.hpp"
#include "index/ivf_index.hpp"
#include "phases.hpp"
#include "recsys/batch_score.hpp"
#include "recsys/fold_in.hpp"
#include "reference.hpp"
#include "robust/checkpoint.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

using alsmf::Matrix;
using alsmf::serve::RecommendService;
using alsmf::serve::ServeResult;

/// Share of the serving wall budget given to each phase.
constexpr double kSaturationShare = 0.2;
constexpr double kReadOnlyShare = 0.35;
constexpr double kRefreshShare = 0.45;
/// One answer in this many is kept for the deep checks at phase end.
constexpr long kSampleEvery = 8;
/// One request in this many is traced (its submit and its whole life).
constexpr long kTraceEvery = 16;

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(alsmf::real)) == 0;
}

/// Cheap checks every answer gets: OK, n distinct in-range items, scores
/// that never rise, a factor of the model's rank for fold-ins, and no rated
/// item among a fold-in's recommendations.
bool answer_is_sane(const ServeResult& r, const RequestStream::Request& q,
                    const Inputs& inputs, int n, int k) {
  if (!r.ok() || static_cast<int>(r.topn.size()) != n) return false;
  std::unordered_set<index_t> seen;
  for (std::size_t j = 0; j < r.topn.size(); ++j) {
    const auto& rec = r.topn[j];
    if (rec.item < 0 || rec.item >= inputs.items || !seen.insert(rec.item).second ||
        !std::isfinite(rec.score)) {
      return false;
    }
    if (j > 0 && rec.score > r.topn[j - 1].score) return false;
  }
  if (!q.fold_in) return true;
  if (static_cast<int>(r.factor.size()) != k) return false;
  const auto& rated = inputs.cold[static_cast<std::size_t>(q.id)].items;
  return std::none_of(r.topn.begin(), r.topn.end(), [&](const auto& rec) {
    return std::find(rated.begin(), rated.end(), rec.item) != rated.end();
  });
}

struct Sampled {
  RequestStream::Request request;
  ServeResult result;
};

/// Deep check of a kept answer against the factors of the version that
/// produced it: every score equals the benchmark's own dot product, and a
/// fold-in's factor equals the benchmark's own solve.
bool answer_matches_model(const Sampled& s, const Matrix& x, const Matrix& y,
                          const Inputs& inputs, std::string* why) {
  std::span<const alsmf::real> factor =
      s.request.fold_in ? std::span<const alsmf::real>(s.result.factor)
                        : x.row(s.request.id);
  if (s.request.fold_in) {
    const ColdUser& cu = inputs.cold[static_cast<std::size_t>(s.request.id)];
    const auto r = ref::solve_row(y, cu.items, cu.ratings, kLambda);
    if (!ref::factor_matches(r, factor, why)) return false;
  }
  const double tol = ref::score_tolerance(factor, y);
  for (const auto& rec : s.result.topn) {
    if (std::abs(rec.score - ref::dot(factor, y.row(rec.item))) > tol) {
      if (why) *why = "served score differs from the dot product";
      return false;
    }
  }
  return true;
}

std::future<ServeResult> submit(RecommendService& svc, const RequestStream::Request& q,
                                const Inputs& inputs, int n) {
  if (!q.fold_in) return svc.submit_topn(q.id, n);
  const ColdUser& cu = inputs.cold[static_cast<std::size_t>(q.id)];
  return svc.submit_fold_in(cu.items, cu.ratings, n);
}

/// What one serving phase observed from the client side.
struct PhaseLog {
  std::vector<double> latency_us;  ///< completion minus due time
  std::vector<double> late_us;     ///< send minus due time
  std::vector<Sampled> kept;
  std::vector<std::uint64_t> versions;  ///< distinct versions answered
  long answered = 0;  ///< every request sent, once its answer arrived
};

/// Open-loop load: a generator thread sends each request at its Poisson due
/// time whatever the backlog; a collector thread waits for the answers in
/// send order. Latency is timed from the due time. The destructor joins.
class OpenLoop {
 public:
  OpenLoop(RecommendService& svc, const Inputs& inputs, const Workload& w,
           std::uint64_t seed, double seconds, Tracer& tracer, Ledger& ledger)
      : svc_(svc),
        inputs_(inputs),
        w_(w),
        stream_(w, inputs.users, inputs.cold.size(), seed),
        seconds_(seconds),
        tracer_(tracer),
        ledger_(ledger) {
    collector_ = std::jthread([this] { collect(); });
    generator_ = std::jthread([this] { generate(); });
  }
  ~OpenLoop() { finish(); }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Waits for the schedule to end and every answer to arrive.
  PhaseLog& finish() {
    if (generator_.joinable()) generator_.join();
    if (collector_.joinable()) collector_.join();
    return log_;
  }

 private:
  struct Pending {
    Clock::time_point due, sent;
    RequestStream::Request request;
    long id = 0;
    std::future<ServeResult> future;
  };

  // Thread entry points: a failure ends the phase's load and counts as a
  // failed operation instead of escaping the thread.
  void generate() {
    try {
      send_schedule();
    } catch (const std::exception& e) {
      ledger_.record(false, std::string("load generator failed: ") + e.what());
    }
    {
      std::scoped_lock lk(m_);
      done_ = true;
    }
    cv_.notify_one();
  }

  void collect() {
    try {
      receive_answers();
    } catch (const std::exception& e) {
      ledger_.record(false, std::string("answer collector failed: ") + e.what());
    }
  }

  void send_schedule() {
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds_));
    auto due = start;
    for (long id = 0;; ++id) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(stream_.next_gap_s()));
      if (due >= stop) break;
      std::this_thread::sleep_until(due);
      Pending p{due, Clock::now(), stream_.next(), id, {}};
      p.future = submit(svc_, p.request, inputs_, kTopN);
      if (id % kTraceEvery == 0) {
        tracer_.add(p.request.fold_in ? "serve.submit_fold_in" : "serve.submit_topn",
                    p.sent, Clock::now(), -1, id);
      }
      if (p.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        complete(p);  // answered on the submitting thread (cache hit)
        continue;
      }
      {
        std::scoped_lock lk(m_);
        queue_.push_back(std::move(p));
      }
      cv_.notify_one();
    }
  }

  void receive_answers() {
    while (true) {
      Pending p;
      {
        std::unique_lock lk(m_);
        cv_.wait(lk, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      p.future.wait();
      complete(p);
    }
  }

  void complete(Pending& p) {
    const auto done = Clock::now();
    ServeResult r;
    bool ok = true;
    try {
      r = p.future.get();
    } catch (const std::exception&) {
      ok = false;
    }
    ok = ok && answer_is_sane(r, p.request, inputs_, kTopN, w_.k);
    ledger_.record(ok, "served answer failed its checks");
    if (p.id % kTraceEvery == 0) tracer_.add("serve.request", p.due, done, -1, p.id);
    std::scoped_lock lk(log_m_);
    log_.answered += 1;
    log_.latency_us.push_back(micros_between(p.due, done));
    log_.late_us.push_back(micros_between(p.due, p.sent));
    if (std::find(log_.versions.begin(), log_.versions.end(), r.model_version) ==
        log_.versions.end()) {
      log_.versions.push_back(r.model_version);
    }
    if (p.id % kSampleEvery == 0) {
      log_.kept.push_back({p.request, std::move(r)});
    }
  }

  RecommendService& svc_;
  const Inputs& inputs_;
  const Workload& w_;
  RequestStream stream_;
  const double seconds_;
  Tracer& tracer_;
  Ledger& ledger_;

  std::mutex m_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;  // guarded by m_
  bool done_ = false;          // guarded by m_

  std::mutex log_m_;
  PhaseLog log_;  // guarded by log_m_ until finish()

  std::jthread collector_;  // last: joined before the members above die
  std::jthread generator_;
};

/// Closed loop with a fixed in-flight window on the calling thread.
struct SaturationLog {
  long completed = 0;
  double wall_s = 0, cpu_s = 0;
  std::vector<std::uint64_t> versions;
};

SaturationLog saturate(RecommendService& svc, const Inputs& inputs,
                       const Workload& w, std::uint64_t seed, double seconds,
                       Ledger& ledger) {
  RequestStream stream(w, inputs.users, inputs.cold.size(), seed);
  std::deque<std::pair<RequestStream::Request, std::future<ServeResult>>> inflight;
  SaturationLog log;
  long failed = 0;
  auto finish_one = [&](RequestStream::Request& q, std::future<ServeResult>& f) {
    try {
      const ServeResult r = f.get();
      if (!answer_is_sane(r, q, inputs, kTopN, w.k)) ++failed;
      if (std::find(log.versions.begin(), log.versions.end(), r.model_version) ==
          log.versions.end()) {
        log.versions.push_back(r.model_version);
      }
    } catch (const std::exception&) {
      ++failed;
    }
    ++log.completed;
  };
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  while (Clock::now() < stop) {
    while (inflight.size() < static_cast<std::size_t>(kWindow)) {
      auto q = stream.next();
      inflight.emplace_back(q, submit(svc, q, inputs, kTopN));
    }
    finish_one(inflight.front().first, inflight.front().second);
    inflight.pop_front();
  }
  for (auto& [q, f] : inflight) finish_one(q, f);
  log.wall_s = seconds_between(t0, Clock::now());
  log.cpu_s = process_cpu_seconds() - cpu0;
  ledger.record_ok(log.completed - failed);
  for (long i = 0; i < failed; ++i) ledger.record(false, "saturation answer failed its checks");
  return log;
}

/// The service's own ledger balances, the client saw every request it
/// sent answered, and every answer names a version that was published.
void check_accounting(const RecommendService& svc, long client_sent,
                      const std::vector<std::uint64_t>& answered,
                      const std::map<std::uint64_t, int>& published,
                      const char* phase, Ledger& ledger) {
  const auto& m = svc.metrics();
  const bool balanced = m.submitted() == m.completed() + m.shed_queue_full() + m.shed_deadline() &&
                        m.submitted() == static_cast<std::uint64_t>(client_sent);
  const bool known = std::all_of(answered.begin(), answered.end(),
                                 [&](std::uint64_t v) { return published.count(v) > 0; });
  ledger.record(balanced, std::string(phase) + ": submitted != completed + shed");
  ledger.record(known, std::string(phase) + ": an answer names an unpublished version");
}

void deep_check(const PhaseLog& log, const std::map<std::uint64_t, int>& published,
                const std::vector<SavedCheckpoint>& ckpts, const Inputs& inputs,
                const char* phase, Ledger& ledger) {
  for (const Sampled& s : log.kept) {
    const auto it = published.find(s.result.model_version);
    std::string why = "unknown version";
    const bool ok = it != published.end() &&
                    answer_matches_model(s, ckpts[static_cast<std::size_t>(it->second)].x,
                                         ckpts[static_cast<std::size_t>(it->second)].y,
                                         inputs, &why);
    ledger.record(ok, std::string(phase) + ": " + why);
  }
}

}  // namespace

void run_serving(RunContext& ctx, const Inputs& inputs,
                 const std::vector<SavedCheckpoint>& ckpts) {
  Tracer& tracer = *ctx.tracer;
  Ledger& ledger = *ctx.ledger;
  Report& report = *ctx.report;
  const Workload& w = ctx.w;

  // Serving and the refresh index builds each get their own pool, together
  // no more workers than cores: two threads calling parallel_for on one
  // pool at once abort the process.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  alsmf::ThreadPool serve_pool(std::max(1u, cores / 2));
  alsmf::ThreadPool build_pool(std::max(1u, cores - cores / 2));
  alsmf::serve::ServiceOptions sopt;
  sopt.pool = &serve_pool;
  sopt.nprobe = w.nprobe;
  alsmf::index::IvfOptions iopt;
  iopt.nprobe = w.nprobe;

  // Phase 4: publish the final factors with an IVF index.
  const int last = static_cast<int>(ckpts.size()) - 1;
  std::shared_ptr<alsmf::serve::ModelSnapshot> final_snap;
  std::vector<double> build_s;
  {
    Tracer::Scope phase(tracer, "phase.publish");
    {
      Tracer::Scope span(tracer, "serve.snapshot_from_factors");
      final_snap = alsmf::serve::snapshot_from_factors(ckpts[static_cast<std::size_t>(last)].x,
                                                       ckpts[static_cast<std::size_t>(last)].y,
                                                       kLambda);
    }
    const auto b0 = Clock::now();
    {
      Tracer::Scope span(tracer, "index.IvfIndex::build");
      final_snap->ann = alsmf::index::IvfIndex::build(final_snap->y, iopt, nullptr, &build_pool);
    }
    build_s.push_back(seconds_between(b0, Clock::now()));
  }
  const auto& ann = *final_snap->ann;
  // Every phase serves from a service of its own, so each phase's service
  // metrics and cache cover that phase alone. The published snapshot is
  // version 1 of each.
  const std::map<std::uint64_t, int> initial_versions{{1, last}};

  // Saturation: closed loop, fixed in-flight window.
  {
    Tracer::Scope phase(tracer, "phase.saturation");
    RecommendService svc(final_snap, sopt);
    const auto log = saturate(svc, inputs, w, derive_seed(ctx.seed, 10),
                              ctx.seconds * kSaturationShare, ledger);
    check_accounting(svc, log.completed, log.versions, initial_versions, "saturation", ledger);
    report.per_layer("serve_cpu_us_per_req", log.cpu_s * 1e6 / std::max(1L, log.completed), "us");
    report.per_layer("serve.saturated_qps", static_cast<double>(log.completed) / log.wall_s,
                     "1/s");
    tracer.count("serve.saturated_qps", static_cast<double>(log.completed) / log.wall_s);
  }

  // Read-only open loop at the workload's fixed rate.
  {
    Tracer::Scope phase(tracer, "phase.open_loop");
    RecommendService svc(final_snap, sopt);
    OpenLoop load(svc, inputs, w, derive_seed(ctx.seed, 11), ctx.seconds * kReadOnlyShare,
                  tracer, ledger);
    const PhaseLog& log = load.finish();
    check_accounting(svc, log.answered, log.versions, initial_versions, "open loop", ledger);
    deep_check(log, initial_versions, ckpts, inputs, "open loop", ledger);
    const auto& m = svc.metrics();
    report.per_layer("serve_p50_us", median(log.latency_us), "us");
    report.per_layer("serve.p90_us", percentile(log.latency_us, 90), "us");
    report.per_layer("serve.p99_us", percentile(log.latency_us, 99), "us");
    report.per_layer("serve.gen_late_p99_us", percentile(log.late_us, 99), "us");
    report.per_layer("serve.internal_p50_us", m.total_us_percentile(0.5), "us");
    report.per_layer("serve.queue_p50_us", m.queue_us_percentile(0.5), "us");
    report.per_layer("serve.batch_mean", m.mean_batch_size(), "requests");
    report.per_layer("serve.cache_hit_ratio", svc.cache_stats().hit_rate(), "fraction");
    tracer.count("serve.cache_hit_ratio", svc.cache_stats().hit_rate());
  }

  // Refresh: the same open loop while checkpoints are republished in order.
  {
    Tracer::Scope phase(tracer, "phase.refresh");
    RecommendService svc(final_snap, sopt);
    std::map<std::uint64_t, int> versions = initial_versions;
    std::vector<double> refresh_s, swap_us, load_s;
    const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(ctx.seconds * kRefreshShare));
    {
      OpenLoop load(svc, inputs, w, derive_seed(ctx.seed, 12), ctx.seconds * kRefreshShare,
                    tracer, ledger);
      for (std::size_t c = 0; Clock::now() < stop; c = (c + 1) % ckpts.size()) {
        Tracer::Scope publish(tracer, "refresh.publish");
        const auto t0 = Clock::now();
        alsmf::robust::TrainingCheckpoint loaded;
        {
          Tracer::Scope span(tracer, "robust.load_checkpoint_file");
          loaded = alsmf::robust::load_checkpoint_file(ckpts[c].path);
        }
        const auto t1 = Clock::now();
        std::shared_ptr<alsmf::serve::ModelSnapshot> snap;
        {
          Tracer::Scope span(tracer, "serve.snapshot_from_factors");
          snap = alsmf::serve::snapshot_from_factors(std::move(loaded.x), std::move(loaded.y),
                                                     kLambda);
        }
        const auto t2 = Clock::now();
        {
          Tracer::Scope span(tracer, "index.IvfIndex::build");
          snap->ann = alsmf::index::IvfIndex::build(snap->y, iopt, nullptr, &build_pool);
        }
        const auto t3 = Clock::now();
        std::uint64_t version = 0;
        {
          Tracer::Scope span(tracer, "serve.swap_model");
          version = svc.swap_model(snap);
        }
        const auto t4 = Clock::now();
        refresh_s.push_back(seconds_between(t0, t4));
        load_s.push_back(seconds_between(t0, t1));
        build_s.push_back(seconds_between(t2, t3));
        swap_us.push_back(micros_between(t3, t4));
        versions[version] = static_cast<int>(c);
        ledger.record(same_bits(snap->x, ckpts[c].x) && same_bits(snap->y, ckpts[c].y),
                      "checkpoint " + ckpts[c].path + " did not reload bit-identical");
      }
      const PhaseLog& log = load.finish();
      check_accounting(svc, log.answered, log.versions, versions, "refresh", ledger);
      deep_check(log, versions, ckpts, inputs, "refresh", ledger);
      report.per_layer("refresh_p50_us", median(log.latency_us), "us");
    }
    report.per_layer("refresh_s", median(refresh_s), "s");
    report.per_layer("serve.swap_us", median(swap_us), "us");
    report.per_layer("serve.refresh_cache_hit_ratio", svc.cache_stats().hit_rate(), "fraction");
    report.per_layer("robust.ckpt_load_s", median(load_s), "s");
    ledger.record(!refresh_s.empty(), "refresh phase published no checkpoint");
  }
  report.per_layer("index.build_s", median(build_s), "s");
  report.per_layer("index.imbalance", ann.build_stats().imbalance, "ratio");

  // Recall and the direct layer probes, over a seeded user sample.
  Tracer::Scope phase(tracer, "phase.recall");
  const Matrix& x = final_snap->x;
  const Matrix& y = final_snap->y;
  Random pick(derive_seed(ctx.seed, 13));
  std::vector<double> recall, query_us, exact_us, fold_us, candidates;
  for (int s = 0; s < w.recall_users; ++s) {
    const auto u = static_cast<index_t>(pick.below(static_cast<std::uint64_t>(x.rows())));
    const auto scores = ref::all_scores(x.row(u), y);
    const auto exact = ref::top_items(scores, kTopN);
    alsmf::index::IvfQueryStats qs;
    const auto q0 = Clock::now();
    std::vector<alsmf::Recommendation> got;
    {
      Tracer::Scope span(tracer, "index.IvfIndex::topn");
      got = ann.topn(x.row(u), y, kTopN, w.nprobe, nullptr, -1, {}, &qs);
    }
    const auto q1 = Clock::now();
    {
      Tracer::Scope span(tracer, "recsys.topn_from_factor");
      (void)alsmf::topn_from_factor(x.row(u), y, kTopN);
    }
    const auto q2 = Clock::now();
    query_us.push_back(micros_between(q0, q1));
    exact_us.push_back(micros_between(q1, q2));
    candidates.push_back(static_cast<double>(qs.candidates));
    int hits = 0;
    for (const auto& rec : got) {
      hits += std::find(exact.begin(), exact.end(), rec.item) != exact.end();
    }
    recall.push_back(static_cast<double>(hits) / kTopN);

    // Every returned score is the exact dot product, and probing every
    // partition gives the exact top-n, up to ties within single-precision
    // rounding of the scores.
    const double tol = ref::score_tolerance(x.row(u), y);
    auto scores_exact = [&](const std::vector<alsmf::Recommendation>& list, double floor) {
      bool ok = static_cast<int>(list.size()) == kTopN;
      for (const auto& rec : list) {
        const double d = scores[static_cast<std::size_t>(rec.item)];
        ok = ok && d >= floor && std::abs(rec.score - d) <= tol;
      }
      return ok;
    };
    bool ok = scores_exact(got, -HUGE_VAL);
    if (s % 8 == 0) {
      const double nth = scores[static_cast<std::size_t>(exact.back())];
      ok = scores_exact(ann.topn(x.row(u), y, kTopN, ann.clusters()), nth - 2 * tol) && ok;
    }
    ledger.record(ok, "IVF top-n scores are not exact, or a full probe is not the exact top-n");
  }
  for (std::size_t c = 0; c < inputs.cold.size() && static_cast<int>(c) < w.recall_users; ++c) {
    const ColdUser& cu = inputs.cold[c];
    const auto f0 = Clock::now();
    std::vector<alsmf::real> factor;
    {
      Tracer::Scope span(tracer, "recsys.fold_in_user");
      factor = alsmf::fold_in_user(y, cu.items, cu.ratings, kLambda);
    }
    fold_us.push_back(micros_between(f0, Clock::now()));
    std::string why;
    ledger.record(ref::factor_matches(ref::solve_row(y, cu.items, cu.ratings, kLambda), factor, &why),
                  "fold_in_user differs from the reference solve: " + why);
  }
  report.e2e("recall_at_10", mean(recall), "fraction");
  report.per_layer("index.query_us", median(query_us), "us");
  report.per_layer("index.candidates", mean(candidates), "items");
  report.per_layer("recsys.exact_topn_us", median(exact_us), "us");
  report.per_layer("recsys.fold_in_us", median(fold_us), "us");
}

}  // namespace perfbench
