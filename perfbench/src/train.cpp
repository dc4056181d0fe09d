// Phases 2 and 3: set-up and training.
#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>

#include "als/metrics.hpp"
#include "als/variant_select.hpp"
#include "data/split.hpp"
#include "devsim/trace.hpp"
#include "phases.hpp"
#include "reference.hpp"
#include "robust/checkpoint.hpp"
#include "sparse/convert.hpp"
#include "sparse/io.hpp"

namespace perfbench {

namespace {

constexpr double kHoldout = 0.1;

std::vector<index_t> sample_ids(index_t n, int count, Random& rng) {
  std::set<index_t> picked;
  while (static_cast<index_t>(picked.size()) < std::min<index_t>(count, n)) {
    picked.insert(static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n))));
  }
  return {picked.begin(), picked.end()};
}

/// Device counters summed over every kernel section, and launches counted
/// once per launch (a launch appears under each of its sections).
struct DeviceTotals {
  alsmf::devsim::LaunchCounters counters;
  std::size_t launches = 0;
};

DeviceTotals device_totals(const alsmf::devsim::Device& dev) {
  DeviceTotals t;
  std::map<std::string, std::size_t> per_kernel;
  for (const auto& [key, stats] : dev.stats()) {
    t.counters += stats.counters;
    auto& n = per_kernel[key.substr(0, key.find('/'))];
    n = std::max(n, stats.launches);
  }
  for (const auto& [name, n] : per_kernel) t.launches += n;
  return t;
}

/// Turns the device launches recorded since `from` into child spans of
/// `parent` (the library's recorder times each launch; the span names are
/// the benchmark's).
void launches_to_spans(Tracer& tracer, const alsmf::devsim::TraceRecorder& rec,
                       Clock::time_point rec_epoch, std::size_t& from,
                       int parent) {
  const auto& events = rec.events();
  for (; from < events.size(); ++from) {
    const auto& e = events[from];
    if (e.wall_start_s < 0) continue;
    const char* name = e.name.starts_with("update_x")   ? "devsim.launch update_x"
                       : e.name.starts_with("update_y") ? "devsim.launch update_y"
                                                        : "devsim.launch";
    const auto start = rec_epoch + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(e.wall_start_s));
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(e.wall_duration_s));
    tracer.add(name, start, stop, parent);
  }
}

/// Timed pieces of one training iteration.
struct IterationTimes {
  double iteration = 0, eval = 0, save = 0;
  double kernel_x = 0, kernel_y = 0;
  double rmse = 0;
  double total() const { return iteration + eval + save; }
};

/// run_iteration, held-out RMSE, checkpoint save: the unit time-to-target
/// is made of. Spans nest under the caller's open span.
IterationTimes timed_iteration(Tracer& tracer, const Prepared& prep,
                               alsmf::AlsSolver& solver,
                               alsmf::devsim::Device& dev,
                               const std::string& ckpt_path,
                               const alsmf::devsim::TraceRecorder* rec,
                               Clock::time_point rec_epoch,
                               std::size_t& rec_seen) {
  IterationTimes t;
  const double kx0 = dev.wall_seconds_matching("update_x");
  const double ky0 = dev.wall_seconds_matching("update_y");
  const auto t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "als.run_iteration");
    solver.run_iteration();
    if (rec) launches_to_spans(tracer, *rec, rec_epoch, rec_seen, span.id());
  }
  const auto t1 = Clock::now();
  {
    Tracer::Scope span(tracer, "als.rmse");
    t.rmse = alsmf::rmse(prep.test, solver.x(), solver.y());
  }
  const auto t2 = Clock::now();
  {
    Tracer::Scope span(tracer, "robust.save_checkpoint");
    solver.save_checkpoint(ckpt_path);
  }
  const auto t3 = Clock::now();
  t.iteration = seconds_between(t0, t1);
  t.eval = seconds_between(t1, t2);
  t.save = seconds_between(t2, t3);
  t.kernel_x = dev.wall_seconds_matching("update_x") - kx0;
  t.kernel_y = dev.wall_seconds_matching("update_y") - ky0;
  tracer.count("als.heldout_rmse", t.rmse);
  return t;
}

}  // namespace

std::unique_ptr<Prepared> run_setup(RunContext& ctx,
                                    const std::string& ratings_path) {
  Tracer& tracer = *ctx.tracer;
  const Workload& w = ctx.w;
  std::vector<double> total, read, split, csr, select, init;
  std::unique_ptr<Prepared> prep;
  for (int rep = 0; rep < w.setup_repeats; ++rep) {
    prep.reset();
    auto p = std::make_unique<Prepared>();
    alsmf::Coo all, train_coo;
    Tracer::Scope phase(tracer, "phase.setup");
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "data.read_ratings_file");
      all = alsmf::read_ratings_file(ratings_path);
    }
    const auto t1 = Clock::now();
    {
      Tracer::Scope span(tracer, "data.split_holdout");
      auto halves = alsmf::split_holdout(all, kHoldout, derive_seed(ctx.seed, 2));
      train_coo = std::move(halves.first);
      p->test = std::move(halves.second);
    }
    const auto t2 = Clock::now();
    {
      Tracer::Scope span(tracer, "sparse.coo_to_csr");
      p->train = alsmf::coo_to_csr(train_coo);
    }
    const auto t3 = Clock::now();
    p->options.k = w.k;
    p->options.lambda = kLambda;
    p->options.iterations = w.budget;
    p->options.seed = derive_seed(ctx.seed, 3);
    p->profile = alsmf::devsim::profile_by_name(w.profile);
    {
      Tracer::Scope span(tracer, "als.select_variant_heuristic");
      p->variant = alsmf::select_variant_heuristic(p->train, p->options, p->profile);
    }
    const auto t4 = Clock::now();
    {
      Tracer::Scope span(tracer, "als.AlsSolver");
      p->device = std::make_unique<alsmf::devsim::Device>(p->profile);
      p->solver = std::make_unique<alsmf::AlsSolver>(p->train, p->options,
                                                     p->variant, *p->device);
    }
    const auto t5 = Clock::now();
    total.push_back(seconds_between(t0, t5));
    read.push_back(seconds_between(t0, t1));
    split.push_back(seconds_between(t1, t2));
    csr.push_back(seconds_between(t2, t3));
    select.push_back(seconds_between(t3, t4));
    init.push_back(seconds_between(t4, t5));

    // Ingest check: every generated rating arrives, and the split keeps
    // every rating on exactly one side at about the held-out share.
    const double share = static_cast<double>(p->test.nnz()) /
                         static_cast<double>(std::max<long>(all.nnz(), 1));
    ctx.ledger->record(all.nnz() == w.nnz && all.rows() == w.users &&
                           all.cols() == w.items &&
                           train_coo.nnz() + p->test.nnz() == all.nnz() &&
                           p->train.nnz() == train_coo.nnz() &&
                           share > kHoldout * 0.8 && share < kHoldout * 1.2,
                       "setup: ingested, split or CSR counts differ from the input");
    prep = std::move(p);
  }
  Report& r = *ctx.report;
  r.e2e("setup_s", median(total), "s");
  r.per_layer("data.read_s", median(read), "s");
  r.per_layer("data.split_s", median(split), "s");
  r.per_layer("sparse.csr_build_s", median(csr), "s");
  r.per_layer("als.variant_select_s", median(select), "s");
  r.per_layer("als.solver_init_s", median(init), "s");
  return prep;
}

std::vector<SavedCheckpoint> run_training(RunContext& ctx, Prepared& prep) {
  Tracer& tracer = *ctx.tracer;
  Ledger& ledger = *ctx.ledger;
  const Workload& w = ctx.w;
  alsmf::AlsSolver& solver = *prep.solver;
  alsmf::devsim::Device& dev = *prep.device;
  const std::string ckpt_dir = ctx.workdir + "/checkpoints";

  // Rows whose solves the benchmark repeats in double precision.
  Random pick(derive_seed(ctx.seed, 5));
  const auto users = sample_ids(prep.train.rows(), w.check_rows, pick);
  const auto items = sample_ids(prep.train.cols(), w.check_rows, pick);
  const auto columns = ref::gather_columns(prep.train, items);

  std::unique_ptr<alsmf::devsim::TraceRecorder> rec;
  const auto rec_epoch = Clock::now();
  std::size_t rec_seen = 0;
  if (tracer.enabled()) {
    rec = std::make_unique<alsmf::devsim::TraceRecorder>();
    dev.set_trace(rec.get());
  }

  std::vector<double> iter_s, kx_s, ky_s, kernel_s, host_s, eval_s, save_s,
      ttt_s;
  std::vector<SavedCheckpoint> saved;
  int crossed = 0;
  double elapsed = 0, modeled_at = 0, final_rmse = 0, ckpt_bytes = 0;
  alsmf::StepBreakdown steps_at;
  DeviceTotals totals_at;
  double prev_objective = ref::objective(prep.train, solver.x(), solver.y(), kLambda);

  auto keep_sample = [&](const IterationTimes& t) {
    iter_s.push_back(t.iteration);
    kx_s.push_back(t.kernel_x);
    ky_s.push_back(t.kernel_y);
    kernel_s.push_back(t.kernel_x + t.kernel_y);
    host_s.push_back(t.iteration - t.kernel_x - t.kernel_y);
    eval_s.push_back(t.eval);
    save_s.push_back(t.save);
  };

  {
    Tracer::Scope phase(tracer, "phase.train");
    for (int it = 1; it <= w.budget; ++it) {
      const alsmf::Matrix y_prev = solver.y();
      const std::string path = alsmf::robust::checkpoint_path(ckpt_dir, it);
      const IterationTimes t =
          timed_iteration(tracer, prep, solver, dev, path, rec.get(), rec_epoch, rec_seen);
      keep_sample(t);
      elapsed += t.total();
      final_rmse = t.rmse;
      if (!crossed && t.rmse <= w.rmse_target) {
        crossed = it;
        ttt_s.push_back(elapsed);
        modeled_at = solver.modeled_seconds();
        steps_at = solver.step_breakdown();
        totals_at = device_totals(dev);
      }
      saved.push_back({path, solver.x(), solver.y()});
      ckpt_bytes = static_cast<double>(std::filesystem::file_size(path));

      // Checks, untimed: X rows solve over the Y they were computed from, Y
      // rows over the new X, and the objective does not rise.
      Tracer::Scope check(tracer, "check.training");
      bool ok = true;
      std::string why;
      for (const index_t u : users) {
        const auto r = ref::solve_row(y_prev, prep.train.row_cols(u),
                                      prep.train.row_values(u), kLambda);
        ok = ref::factor_matches(r, solver.x().row(u), &why) && ok;
      }
      for (std::size_t c = 0; c < items.size(); ++c) {
        const auto r = ref::solve_row(solver.x(), columns[c].users,
                                      columns[c].ratings, kLambda);
        ok = ref::factor_matches(r, solver.y().row(items[c]), &why) && ok;
      }
      const double objective = ref::objective(prep.train, solver.x(), solver.y(), kLambda);
      const bool descends = objective <= prev_objective * (1 + 1e-6);
      prev_objective = objective;
      ledger.record(ok && descends,
                    "training iteration " + std::to_string(it) +
                        (descends ? ": row solve differs from reference, " + why
                                  : ": objective rose"));
      std::fprintf(stderr, "# %s iteration %d: %.4f s, heldout_rmse %.6f objective %.6g\n",
                   w.name.c_str(), it, t.iteration, t.rmse, objective);
    }
    ledger.record(crossed > 0, "training never reached the held-out RMSE target");

    // Further runs to the target give time-to-target a median; they follow
    // the same trajectory, so they must cross at the same iteration.
    for (int rep = 1; rep < w.ttt_repeats && crossed > 0; ++rep) {
      alsmf::devsim::Device dev2(prep.profile);
      std::unique_ptr<alsmf::AlsSolver> again;
      {
        Tracer::Scope span(tracer, "als.AlsSolver");
        again = std::make_unique<alsmf::AlsSolver>(prep.train, prep.options,
                                                   prep.variant, dev2);
      }
      double run = 0;
      int reached = 0;
      std::size_t seen2 = 0;
      for (int it = 1; it <= w.budget && !reached; ++it) {
        const IterationTimes t = timed_iteration(
            tracer, prep, *again, dev2, ctx.workdir + "/repeat.alsckpt", nullptr,
            rec_epoch, seen2);
        keep_sample(t);
        std::fprintf(stderr, "# %s repeat %d iteration %d: %.4f s\n", w.name.c_str(), rep, it,
                     t.iteration);
        run += t.total();
        if (t.rmse <= w.rmse_target) reached = it;
      }
      if (reached) ttt_s.push_back(run);
      ledger.record(reached == crossed, "repeated training crossed the target at iteration " +
                                            std::to_string(reached) + ", first run at " +
                                            std::to_string(crossed));
    }
  }
  dev.set_trace(nullptr);

  Report& r = *ctx.report;
  r.per_layer("time_to_target_s", median(ttt_s), "s");
  r.per_layer("iter_s", median(iter_s), "s");
  r.e2e("iters_to_target", crossed, "iterations");
  r.e2e("modeled_s", modeled_at, "s_modeled");
  r.e2e("test_rmse", final_rmse, "rating");
  r.per_layer("als.update_x_s", median(kx_s), "s");
  r.per_layer("als.update_y_s", median(ky_s), "s");
  r.per_layer("als.eval_s", median(eval_s), "s");
  r.per_layer("als.host_s", median(host_s), "s");
  r.per_layer("devsim.kernel_wall_s", median(kernel_s), "s");
  r.per_layer("devsim.launches", static_cast<double>(totals_at.launches), "count");
  r.per_layer("devsim.s1_modeled_s", steps_at.s1, "s_modeled");
  r.per_layer("devsim.s2_modeled_s", steps_at.s2, "s_modeled");
  r.per_layer("devsim.s3_modeled_s", steps_at.s3, "s_modeled");
  r.per_layer("devsim.global_bytes", totals_at.counters.global_bytes, "bytes");
  r.per_layer("devsim.scattered_accesses", totals_at.counters.scattered_accesses, "count");
  r.per_layer("devsim.useful_flops", totals_at.counters.useful_flops, "flop");
  r.per_layer("devsim.spill_bytes", totals_at.counters.spill_bytes, "bytes");
  r.per_layer("devsim.local_bytes", totals_at.counters.local_bytes, "bytes");
  r.per_layer("robust.ckpt_save_s", median(save_s), "s");
  r.per_layer("robust.ckpt_bytes", ckpt_bytes, "bytes");
  return saved;
}

}  // namespace perfbench

namespace perfbench {

void run_reference(RunContext& ctx, Prepared& prep) {
  const Workload& w = ctx.w;
  // The iteration count the functional run needs to reach the target.
  int crossed = 0;
  for (int it = 1; it <= w.budget && !crossed; ++it) {
    prep.solver->run_iteration();
    if (alsmf::rmse(prep.test, prep.solver->x(), prep.solver->y()) <= w.rmse_target) {
      crossed = it;
    }
  }
  if (!crossed) throw std::runtime_error("reference: the RMSE target was not reached");

  alsmf::ThreadPool single(1);
  alsmf::devsim::Device dev(prep.profile, &single);
  alsmf::AlsSolver solver(prep.train, prep.options, prep.variant, dev);
  std::vector<double> iter_s;
  for (int it = 1; it <= crossed; ++it) {
    const auto t0 = Clock::now();
    solver.run_iteration();
    iter_s.push_back(seconds_between(t0, Clock::now()));
  }
  std::printf("%s single_worker_iter_s %.6g (median of %d)\n", w.name.c_str(),
              median(iter_s), crossed);

  for (const char* name : {"gpu", "cpu", "mic"}) {
    const auto profile = alsmf::devsim::profile_by_name(name);
    alsmf::AlsOptions options = prep.options;
    options.functional = false;
    const auto variant = alsmf::select_variant_heuristic(prep.train, options, profile);
    alsmf::devsim::Device modeled(profile);
    alsmf::AlsSolver accounting(prep.train, options, variant, modeled);
    for (int it = 1; it <= crossed; ++it) accounting.run_iteration();
    std::printf("%s modeled_s[%s] %.6g (%s, %d iterations)\n", w.name.c_str(), name,
                accounting.modeled_seconds(), variant.name().c_str(), crossed);
  }
}

}  // namespace perfbench
