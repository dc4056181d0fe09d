#include "als/audit_kernels.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "als/implicit_device.hpp"
#include "als/kernels.hpp"
#include "als/kernels_sell.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"
#include "devsim/device.hpp"
#include "devsim/profile.hpp"
#include "ocl/analyze/deep_lint.hpp"
#include "ocl/analyze/parser.hpp"
#include "ocl/kernel_flavors.hpp"
#include "sparse/sell.hpp"

namespace alsmf {

namespace {

namespace az = ocl::analyze;
namespace pz = ocl::analyze::precision;
namespace vf = ocl::analyze::verify;

const char* space_name(az::MemSpace s) {
  switch (s) {
    case az::MemSpace::kGlobal: return "global";
    case az::MemSpace::kLocal: return "local";
    case az::MemSpace::kPrivate: return "private";
  }
  return "?";
}

az::DatasetStats stats_of(const Csr& m) {
  az::DatasetStats s;
  s.rows = static_cast<double>(m.rows());
  s.nnz = static_cast<double>(m.nnz());
  const auto& rp = m.row_ptr();
  for (index_t u = 0; u < m.rows(); ++u) {
    if (rp[static_cast<std::size_t>(u) + 1] > rp[static_cast<std::size_t>(u)])
      s.nonempty_rows += 1;
  }
  return s;
}

/// Checked execution of every devsim kernel on every profile.
void check_leg(const AuditOptions& o, const Csr& r, AuditReport& out) {
  Rng rng(o.seed);
  Matrix src(r.cols(), o.k);
  src.fill_uniform(rng, -0.5f, 0.5f);

  for (const std::string& profile : o.profiles) {
    devsim::Device device(devsim::profile_by_name(profile));
    AlsOptions strat;
    strat.k = o.k;
    strat.row_solver = RowSolverKind::kCg;
    const auto cg = make_row_solver(strat);
    strat.row_solver = RowSolverKind::kSubspace;
    const auto subspace = make_row_solver(strat);
    // Drains the device's accumulated check report into one entry.
    const auto take = [&](const std::string& kernel) {
      const CheckEntry& e = out.check.emplace_back(
          CheckEntry{kernel, profile, device.check_report()});
      device.reset_check_report();
      for (const auto& f : e.report.findings) {
        out.diagnostics.push_back(profile + "/" + kernel + ": " +
                                  f.to_string());
      }
    };
    // Each run updates a fresh dst so cross-variant state never aliases.
    const auto run_variant = [&](const AlsVariant& v, int tile_rows,
                                 const std::string& label,
                                 const RowSolver* row_solver = nullptr) {
      Matrix dst(r.rows(), o.k);
      UpdateArgs args;
      args.r = &r;
      args.src = &src;
      args.dst = &dst;
      args.k = o.k;
      args.variant = v;
      args.tile_rows = tile_rows;
      args.row_solver = row_solver;
      launch_update(device, label, args, o.num_groups, o.group_size,
                    /*functional=*/true, /*validate=*/true);
      take(label);
    };

    // Flat baseline + the paper's 8 batched variants, the local-memory ones
    // again at the forced tile; then the iterative S3 strategies (CG across
    // all 8 variants, one subspace run). The exact runs cover cholesky.
    run_variant(AlsVariant::flat_baseline(), 0, "flat");
    for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
      const AlsVariant v = AlsVariant::from_mask(mask);
      run_variant(v, 0, v.name());
      if (v.use_local) {
        const int tile = kAuditTileRows[1];
        run_variant(v, tile, v.name() + "/tile" + std::to_string(tile));
      }
    }
    for (unsigned mask = 0; mask < AlsVariant::kVariantCount; ++mask) {
      const AlsVariant v = AlsVariant::from_mask(mask);
      run_variant(v, 0, v.name() + "/cg", cg.get());
    }
    run_variant(AlsVariant::batch_local_reg(), 0, "batch_local_reg/subspace",
                subspace.get());
    run_variant(AlsVariant::flat_baseline(), 0, "flat/cg", cg.get());

    // Flat over SELL-C-sigma storage.
    const SellMatrix sell(r, device.profile().simd_width,
                          device.profile().simd_width * 4);
    Matrix dst(r.rows(), o.k);
    SellUpdateArgs sell_args;
    sell_args.r = &sell;
    sell_args.src = &src;
    sell_args.dst = &dst;
    sell_args.k = o.k;
    launch_update_flat_sell(device, "flat_sell", sell_args,
                            /*functional=*/true, /*validate=*/true);
    take("flat_sell");

    // Implicit-feedback device path (one iteration = two half-updates).
    ImplicitOptions iopt;
    iopt.k = o.k;
    iopt.seed = o.seed;
    iopt.alpha = 1.0f;
    DeviceImplicitAls als(r, iopt, device);
    als.num_groups = o.num_groups;
    als.group_size = o.group_size;
    als.validate = true;
    als.run_iteration();
    take("implicit");
  }
}

/// One generated flavor, parsed and lowered once for every static leg.
struct ParsedFlavor {
  ocl::KernelFlavor flavor;
  az::TranslationUnit tu;
  std::vector<az::KernelIR> kernels;
};

/// Verify and precision legs of one flavor at one tile setting; the verify
/// reports go to `verified`, to be reported per profile.
void certify_flavor(const ParsedFlavor& f, const AuditOptions& o,
                    AuditTile& tile, std::vector<VerifyEntry>& verified,
                    AuditReport& out) {
  const std::string& name = f.flavor.name;
  for (const az::KernelIR& ir : f.kernels) {
    VerifyEntry& v = verified.emplace_back(VerifyEntry{
        name, "", vf::verify_kernel(ir, als_kernel_contract(ir))});
    for (auto& d : verify_diagnostics(name, v.report)) {
      out.diagnostics.push_back(std::move(d));
    }
    for (const auto& err : v.report.errors) {
      out.errors.push_back(name + ": " + err);
    }

    // A source holds one kernel plus helpers; only the entry point is
    // certified.
    if (ir.name != name) continue;
    PrecisionEntry p{
        {name, "", pz::analyze_kernel_precision(f.tu, ir, o.assumptions)},
        {},
        true};
    if (f.flavor.storage != StoragePrecision::kFp32) {
      pz::ShadowWitnessConfig wc;
      wc.k = o.k;
      wc.group_size = o.group_size;
      wc.assumptions = o.assumptions;
      p.witness = pz::run_shadow_witness(f.tu, name, f.flavor.storage, wc);
      // A witness that failed to run asserts nothing — fail closed.
      p.dominated =
          p.witness.ran && p.witness.observed_err <= p.report.output.err;
    }
    const std::string where =
        (tile.tile_rows ? "tile" + std::to_string(tile.tile_rows) : "auto") +
        "/" + name + ".cl:";
    for (const auto& finding : p.report.findings) {
      if (!pz::gates_certification(finding.kind)) continue;
      out.diagnostics.push_back(where + std::to_string(finding.line) +
                                ":0: " + pz::to_string(finding.kind) + " " +
                                finding.what + ": " + finding.message);
    }
    if (!p.dominated || p.witness.overflow_observed) {
      out.diagnostics.push_back(where + "0:0: shadow witness not dominated "
                                        "by the static bound");
    }
    tile.precision.push_back(std::move(p));
  }
}

/// Deep lint of every auto-tile flavor per profile, then its static profile
/// at each tile setting. As in the checked launches, the setting forces
/// the launch's staging tile on the auto-tile source.
void static_profile_leg(const std::vector<ParsedFlavor>& flavors,
                        const az::DatasetStats& stats, const AuditOptions& o,
                        AuditReport& out) {
  for (const std::string& profile_name : o.profiles) {
    const devsim::DeviceProfile profile = devsim::profile_by_name(profile_name);
    az::DeepLintOptions lint_options;
    lint_options.local_capacity_bytes = devsim::local_capacity_bytes(profile);
    // Structural capacity check: hardware scratch-pads only (emulated
    // local memory has no hard per-group limit).
    if (profile.has_hw_local_mem) {
      lint_options.limits.local_mem_bytes = profile.local_mem_bytes;
    }
    for (const ParsedFlavor& f : flavors) {
      const std::string& name = f.flavor.name;
      const ocl::LintReport lint =
          az::deep_lint_kernels(f.flavor.source, f.kernels, lint_options);
      for (const auto& issue : lint.issues) {
        out.diagnostics.push_back(profile_name + "/" + name + ".cl:" +
                                  std::to_string(issue.line) + ":" +
                                  std::to_string(issue.col) + ": " +
                                  issue.message);
      }
      if (!lint.clean()) continue;  // a diagnosed source has no profile
      for (AuditTile& tile : out.tiles) {
        az::StaticLaunchParams launch;
        launch.num_groups = o.num_groups;
        launch.group_size = o.group_size;
        launch.tile_rows = tile.tile_rows;
        for (const az::KernelIR& ir : f.kernels) {
          StaticProfileEntry e{
              {name, profile_name,
               az::build_static_profile(ir, stats, launch, profile)},
              {}};
          e.json = az::profile_json(e.report, ir);
          tile.static_profiles.push_back(std::move(e));
        }
      }
    }
  }
}

void write_verify(json::JsonWriter& w, const VerifyEntry& e) {
  const auto& r = e.report;
  w.begin_object()
      .field("kernel", e.kernel)
      .field("profile", e.profile)
      .field("clean", r.clean());
  w.key("bounds")
      .begin_object()
      .field("refs", r.refs_total)
      .field("proven_safe", r.refs_proven_safe)
      .field("proven_violating", r.refs_proven_violating)
      .field("unprovable", r.refs_unprovable);
  w.key("findings").begin_array();
  for (const auto& f : r.bounds_findings) {
    w.begin_object()
        .field("buffer", f.buffer)
        .field("space", space_name(f.space))
        .field("store", f.is_store)
        .field("verdict", to_string(f.verdict))
        .field("line", f.line)
        .field("col", f.col)
        .field("index", f.index)
        .field("detail", f.detail)
        .end_object();
  }
  w.end_array().end_object();
  w.key("races")
      .begin_object()
      .field("pairs", r.pairs_checked)
      .field("proven", r.races_proven)
      .field("unprovable", r.races_unprovable);
  w.key("findings").begin_array();
  for (const auto& f : r.race_findings) {
    w.begin_object()
        .field("buffer", f.buffer)
        .field("space", space_name(f.space))
        .field("verdict", to_string(f.verdict))
        .field("cross_group", f.cross_group)
        .field("a", std::to_string(f.line_a) + ":" + std::to_string(f.col_a))
        .field("b", std::to_string(f.line_b) + ":" + std::to_string(f.col_b))
        .field("detail", f.detail)
        .end_object();
  }
  w.end_array().end_object();
  w.key("widths").begin_array();
  for (const auto& wr : r.widths) {
    w.begin_object()
        .field("buffer", wr.buffer)
        .field("space", space_name(wr.space))
        .field("mixed", wr.mixed);
    w.key("widths").begin_array();
    for (int b : wr.widths) w.value(b);
    w.end_array().end_object();
  }
  w.end_array().end_object();
}

}  // namespace

AuditReport audit_kernels(const AuditOptions& o) {
  SyntheticSpec spec;
  spec.users = static_cast<index_t>(o.users);
  spec.items = static_cast<index_t>(o.items);
  spec.nnz = static_cast<nnz_t>(o.nnz);
  spec.seed = o.seed;
  const Csr r = generate_synthetic_csr(spec);

  AuditReport out;
  check_leg(o, r, out);
  std::vector<ParsedFlavor> auto_flavors;
  for (const int tile_rows : kAuditTileRows) {
    AuditTile& tile = out.tiles.emplace_back();
    tile.tile_rows = tile_rows;
    ocl::KernelConfig kc;
    kc.k = o.k;
    kc.group_size = o.group_size;
    if (tile_rows > 0) kc.tile_rows = tile_rows;

    std::vector<VerifyEntry> verified;
    for (ocl::KernelFlavor& flavor : ocl::enumerate_kernel_flavors(kc)) {
      const std::string name = flavor.name;
      try {
        az::TranslationUnit tu = az::parse_translation_unit(flavor.source);
        std::vector<az::KernelIR> kernels = az::lower_kernels(tu);
        if (kernels.empty()) {
          out.errors.push_back(name + ": no __kernel function found");
          continue;
        }
        ParsedFlavor f{std::move(flavor), std::move(tu), std::move(kernels)};
        certify_flavor(f, o, tile, verified, out);
        if (tile_rows == 0) auto_flavors.push_back(std::move(f));
      } catch (const az::ParseError& e) {
        out.errors.push_back(name + ": line " + std::to_string(e.line) + ": " +
                             e.message);
      } catch (const std::exception& e) {
        out.errors.push_back(name + ": " + e.what());
      }
    }
    for (const std::string& profile : o.profiles) {
      for (VerifyEntry e : verified) {
        e.profile = profile;
        tile.verify.push_back(std::move(e));
      }
    }
  }
  static_profile_leg(auto_flavors, stats_of(r), o, out);
  return out;
}

bool AuditReport::clean() const {
  if (!errors.empty() || !diagnostics.empty() || check.empty() ||
      tiles.size() != std::size(kAuditTileRows)) {
    return false;
  }
  for (const auto& e : check) {
    if (!e.report.clean()) return false;
  }
  for (const auto& t : tiles) {
    if (t.verify.empty() || t.precision.empty()) return false;
    for (const auto& e : t.verify) {
      if (!e.report.clean()) return false;
    }
    for (const auto& e : t.precision) {
      if (!e.clean()) return false;
    }
  }
  return true;
}

std::string AuditReport::summary() const {
  std::size_t launches = 0, findings = 0, clean_checks = 0;
  for (const auto& e : check) {
    launches += e.report.launches;
    findings += e.report.total_findings;
    clean_checks += e.report.clean() ? 1 : 0;
  }
  std::ostringstream os;
  os << "check: " << check.size() << " kernel/profile combinations, "
     << launches << " checked launches, " << clean_checks << " clean, "
     << findings << " finding(s)\n";
  for (const auto& t : tiles) {
    long refs = 0, safe = 0, violating = 0, unprovable = 0;
    long pairs = 0, races = 0, races_unprovable = 0;
    for (const auto& e : t.verify) {
      refs += e.report.refs_total;
      safe += e.report.refs_proven_safe;
      violating += e.report.refs_proven_violating;
      unprovable += e.report.refs_unprovable;
      pairs += e.report.pairs_checked;
      races += e.report.races_proven;
      races_unprovable += e.report.races_unprovable;
    }
    std::size_t certified = 0, witnessed = 0;
    for (const auto& e : t.precision) {
      certified += e.report.certified ? 1 : 0;
      witnessed += e.witness.ran ? 1 : 0;
    }
    os << "tile " << (t.tile_rows ? std::to_string(t.tile_rows) : "auto")
       << ": " << t.static_profiles.size() << " static profiles; "
       << t.verify.size() << " verified, " << refs << " references (" << safe
       << " proven safe, " << violating << " violating, " << unprovable
       << " unprovable), " << pairs << " MHP pairs (" << races << " races, "
       << races_unprovable << " unprovable); " << t.precision.size()
       << " kernels, " << certified << " certified, " << witnessed
       << " witnessed\n";
  }
  os << "audit-kernels: " << diagnostics.size() << " diagnostic(s), "
     << errors.size() << " error(s), " << (clean() ? "clean" : "NOT CLEAN")
     << "\n";
  return os.str();
}

std::string AuditReport::to_json() const {
  json::JsonWriter w;
  w.begin_object().field("clean", clean());
  const auto strings = [&](const char* key,
                           const std::vector<std::string>& items) {
    w.key(key).begin_array();
    for (const auto& s : items) w.value(s);
    w.end_array();
  };
  strings("errors", errors);
  strings("diagnostics", diagnostics);
  w.key("check").begin_array();
  for (const auto& e : check) {
    w.begin_object()
        .field("kernel", e.kernel)
        .field("profile", e.profile)
        .field_raw("report", e.report.to_json())
        .end_object();
  }
  w.end_array().key("tiles").begin_array();
  for (const auto& t : tiles) {
    w.begin_object().field("tile_rows", t.tile_rows);
    w.key("static_profiles").begin_array();
    for (const auto& e : t.static_profiles) {
      w.begin_object()
          .field("kernel", e.kernel)
          .field("profile", e.profile)
          .field_raw("static_profile", e.json)
          .end_object();
    }
    w.end_array().key("verify").begin_array();
    for (const auto& e : t.verify) write_verify(w, e);
    w.end_array().key("precision").begin_array();
    for (const auto& e : t.precision) {
      w.begin_object().field_raw("certificate", pz::to_json(e.report));
      w.key("witness")
          .begin_object()
          .field("ran", e.witness.ran)
          .field("observed_err", e.witness.observed_err)
          .field("overflow_observed", e.witness.overflow_observed)
          .field("dominated", e.dominated)
          .end_object()
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return w.str();
}

vf::KernelContract als_kernel_contract(const az::KernelIR& ir) {
  using vf::BufferContract;
  using vf::SymExpr;
  const long k = ir.k > 0 ? ir.k : 1;
  const long ws = ir.ws > 0 ? ir.ws : 1;
  const auto buffer = [](SymExpr extent) {
    BufferContract b;
    b.has_extent = true;
    b.extent = std::move(extent);
    return b;
  };
  // A buffer whose values lie in [lo, hi].
  const auto ranged = [&](SymExpr extent, SymExpr lo, SymExpr hi) {
    BufferContract b = buffer(std::move(extent));
    b.has_values = true;
    b.value_min = std::move(lo);
    b.value_max = std::move(hi);
    return b;
  };

  vf::KernelContract ct;
  ct.lower = {{"ROWS", 1}, {"COLS", 1}, {"NNZ", 0},
              {"SLICES", 1}, {"PADDED", 0}};
  ct.buffers["Y"] = buffer(SymExpr::sym("COLS", k));
  ct.buffers["X"] = buffer(SymExpr::sym("ROWS", k));
  // CSR storage holds NNZ entries; SELL-C-sigma pads values/col_idx to
  // PADDED elements.
  const bool sell =
      std::any_of(ir.args.begin(), ir.args.end(),
                  [](const auto& a) { return a.name == "slice_ptr"; });
  const SymExpr entries = SymExpr::sym(sell ? "PADDED" : "NNZ");
  const SymExpr zero = SymExpr::constant(0);
  ct.buffers["values"] = buffer(entries);
  ct.buffers["col_idx"] = ranged(entries, zero, SymExpr::sym("COLS", 1, -1));
  if (sell) {
    // Slice offsets pair with per-lane lengths; perm scatters rows.
    BufferContract sp = ranged(SymExpr::sym("SLICES", 1, 1), zero, entries);
    sp.offsets = true;
    sp.offsets_total = entries;
    sp.paired_lengths = "lane_len";
    sp.pair_stride = ws;
    sp.pair_total = entries;
    ct.buffers["slice_ptr"] = sp;

    BufferContract perm =  // -1 pads short slices
        ranged(SymExpr::sym("SLICES", ws), SymExpr::constant(-1),
               SymExpr::sym("ROWS", 1, -1));
    perm.injective = true;
    ct.buffers["perm"] = perm;
    ct.buffers["lane_len"] = ranged(SymExpr::sym("SLICES", ws), zero, entries);
    ct.has_group_upper = true;
    ct.group_upper = SymExpr::sym("SLICES");
  } else {
    BufferContract rp = ranged(SymExpr::sym("ROWS", 1, 1), zero, entries);
    rp.offsets = true;
    rp.offsets_total = entries;
    ct.buffers["row_ptr"] = rp;
  }
  ct.scalar_args["rows"] = SymExpr::sym("ROWS");

  // Two consistent shape points: a square one and a ROWS > COLS one (the
  // latter witnesses output-aliasing overflows that a square grid hides).
  ct.witness_grid = {
      {{"ROWS", 8}, {"COLS", 8}, {"NNZ", 32}, {"SLICES", 1}, {"PADDED", 64}},
      {{"ROWS", 12}, {"COLS", 8}, {"NNZ", 32}, {"SLICES", 1}, {"PADDED", 64}},
  };
  return ct;
}

VerifySourceResult verify_kernel_source(const std::string& source) {
  VerifySourceResult out;
  try {
    const auto kernels = az::lower_kernels(az::parse_translation_unit(source));
    if (kernels.empty()) {
      out.errors.push_back("no __kernel function found in source");
      return out;
    }
    for (const auto& ir : kernels) {
      out.reports.push_back(vf::verify_kernel(ir, als_kernel_contract(ir)));
    }
  } catch (const az::ParseError& e) {
    out.errors.push_back("line " + std::to_string(e.line) + ": " + e.message);
  } catch (const std::exception& e) {
    out.errors.push_back(e.what());
  }
  return out;
}

std::vector<std::string> verify_diagnostics(
    const std::string& kernel, const vf::KernelVerifyReport& report) {
  std::vector<std::string> out;
  for (const auto& f : report.bounds_findings) {
    std::ostringstream os;
    os << kernel << ".cl:" << f.line << ":" << f.col << ": "
       << to_string(f.verdict) << " " << space_name(f.space)
       << (f.is_store ? " store " : " load ") << f.buffer << "[" << f.index
       << "]: " << f.detail;
    out.push_back(os.str());
  }
  for (const auto& f : report.race_findings) {
    std::ostringstream os;
    os << kernel << ".cl:" << f.line_a << ":" << f.col_a << ": "
       << to_string(f.verdict) << " race on " << space_name(f.space) << " "
       << f.buffer << " (with " << kernel << ".cl:" << f.line_b << ":"
       << f.col_b << "): " << f.detail;
    out.push_back(os.str());
  }
  return out;
}

}  // namespace alsmf
