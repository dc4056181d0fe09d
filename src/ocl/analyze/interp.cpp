#include "ocl/analyze/interp.hpp"

#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>

#include "devsim/check/span.hpp"
#include "ocl/analyze/parser.hpp"

namespace alsmf::ocl::analyze {

namespace {

using devsim::check::GlobalSpan;
using devsim::check::LocalSpan;

[[noreturn]] void fail(int line, const std::string& msg) {
  throw ParseError{line, "interp: " + msg};
}

bool is_narrow_type(const std::string& t) {
  return t == "storage_t" || t == "half" || t == "bfloat16";
}

/// Runtime value: scalar int/real, an OpenCL short vector (vloadN result),
/// a pointer into a buffer, or a per-lane private array.
struct Value {
  enum class Kind { kInt, kReal, kVec, kPtr, kArr };
  Kind kind = Kind::kInt;
  long i = 0;
  double r = 0;
  bool narrow = false;  // declared in a narrow storage type (shadow mode)
  std::vector<double> vec;  // kVec components / kArr storage

  // kPtr: space 0 = global real, 1 = global int, 2 = local.
  int space = 0;
  int buf = -1;
  long off = 0;

  static Value of_int(long v) {
    Value x;
    x.kind = Kind::kInt;
    x.i = v;
    return x;
  }
  static Value of_real(double v) {
    Value x;
    x.kind = Kind::kReal;
    x.r = v;
    return x;
  }
  double as_real(int line) const {
    if (kind == Kind::kReal) return r;
    if (kind == Kind::kInt) return static_cast<double>(i);
    fail(line, "expected a scalar value");
  }
  long as_int(int line) const {
    if (kind == Kind::kInt) return i;
    if (kind == Kind::kReal) return static_cast<long>(r);
    fail(line, "expected an integer value");
  }
  bool truthy(int line) const {
    if (kind == Kind::kInt) return i != 0;
    if (kind == Kind::kReal) return r != 0;
    fail(line, "expected a scalar condition");
  }
};

enum class LaneStatus { kActive, kContinued, kBroken, kReturned };

struct Lane {
  int id = 0;
  LaneStatus status = LaneStatus::kActive;
  std::vector<std::map<std::string, Value>> scopes;
};

class Machine {
 public:
  Machine(const TranslationUnit& tu, const FunctionDecl& fn,
          devsim::GroupCtx& ctx, const std::vector<InterpArg>& args,
          float (*quantizer)(float))
      : tu_(tu), fn_(fn), ctx_(ctx), quantizer_(quantizer) {
    if (args.size() != fn.params.size()) {
      fail(fn.line, "kernel '" + fn.name + "' expects " +
                        std::to_string(fn.params.size()) + " arguments, got " +
                        std::to_string(args.size()));
    }
    lanes_.resize(static_cast<std::size_t>(ctx.group_size()));
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      lanes_[l].id = static_cast<int>(l);
      lanes_[l].scopes.emplace_back();
    }
    for (std::size_t p = 0; p < args.size(); ++p) {
      bind_param(fn.params[p], args[p]);
    }
  }

  void run() {
    std::vector<int> active;
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      active.push_back(static_cast<int>(l));
    }
    exec_list(fn_.body, active);
  }

 private:
  const TranslationUnit& tu_;
  const FunctionDecl& fn_;
  devsim::GroupCtx& ctx_;
  float (*quantizer_)(float) = nullptr;
  std::vector<Lane> lanes_;
  std::vector<GlobalSpan<float>> greal_;
  std::vector<bool> greal_narrow_;  // shadow mode: round on load/store
  std::vector<GlobalSpan<int>> gint_;
  std::vector<LocalSpan<float>> locals_;
  // Stable names for local_alloc (LocalSpan keeps the const char*).
  std::vector<std::unique_ptr<std::string>> local_names_;

  void bind_param(const ParamDecl& p, const InterpArg& a) {
    Value v;
    switch (a.kind) {
      case InterpArg::Kind::kRealBuf:
        v.kind = Value::Kind::kPtr;
        v.space = 0;
        v.buf = static_cast<int>(greal_.size());
        greal_.push_back(ctx_.global_span(p.name.c_str(), a.real_data, a.n));
        greal_narrow_.push_back(quantizer_ != nullptr &&
                                is_narrow_type(p.type));
        break;
      case InterpArg::Kind::kIntBuf:
        v.kind = Value::Kind::kPtr;
        v.space = 1;
        v.buf = static_cast<int>(gint_.size());
        gint_.push_back(ctx_.global_span(p.name.c_str(), a.int_data, a.n));
        break;
      case InterpArg::Kind::kIntScalar:
        v = Value::of_int(a.int_value);
        break;
      case InterpArg::Kind::kRealScalar:
        v = Value::of_real(a.real_value);
        break;
    }
    for (auto& lane : lanes_) lane.scopes.front()[p.name] = v;
  }

  // --- environment ---

  Value* find_var(Lane& lane, const std::string& name) {
    for (auto it = lane.scopes.rbegin(); it != lane.scopes.rend(); ++it) {
      auto v = it->find(name);
      if (v != it->end()) return &v->second;
    }
    return nullptr;
  }

  void push_scopes() {
    for (auto& lane : lanes_) lane.scopes.emplace_back();
  }
  void pop_scopes() {
    for (auto& lane : lanes_) lane.scopes.pop_back();
  }

  // --- checked element accesses (always record traffic so the launch
  //     passes the counter-honesty gate) ---

  double load_elem(const Value& p, long idx, int lane, int line) {
    const long at = p.off + idx;
    const auto u = static_cast<std::size_t>(at < 0 ? -1 : at);
    ctx_.set_lane(lane);
    switch (p.space) {
      case 0: {
        ctx_.global_read_coalesced(sizeof(float));
        const double v = greal_[static_cast<std::size_t>(p.buf)].read(u);
        if (greal_narrow_[static_cast<std::size_t>(p.buf)]) {
          return static_cast<double>(quantizer_(static_cast<float>(v)));
        }
        return v;
      }
      case 1:
        ctx_.global_read_coalesced(sizeof(int));
        return static_cast<double>(
            gint_[static_cast<std::size_t>(p.buf)].read(u));
      case 2:
        ctx_.local_read(sizeof(float));
        return locals_[static_cast<std::size_t>(p.buf)].read(u);
    }
    fail(line, "bad pointer space");
  }

  void store_elem(const Value& p, long idx, double v, int lane, int line) {
    const long at = p.off + idx;
    const auto u = static_cast<std::size_t>(at < 0 ? -1 : at);
    ctx_.set_lane(lane);
    switch (p.space) {
      case 0:
        ctx_.global_write_coalesced(sizeof(float));
        if (greal_narrow_[static_cast<std::size_t>(p.buf)]) {
          v = static_cast<double>(quantizer_(static_cast<float>(v)));
        }
        greal_[static_cast<std::size_t>(p.buf)].write(u,
                                                      static_cast<float>(v));
        return;
      case 1:
        ctx_.global_write_coalesced(sizeof(int));
        gint_[static_cast<std::size_t>(p.buf)].write(u,
                                                     static_cast<int>(v));
        return;
      case 2:
        ctx_.local_write(sizeof(float));
        locals_[static_cast<std::size_t>(p.buf)].write(u,
                                                       static_cast<float>(v));
        return;
    }
    fail(line, "bad pointer space");
  }

  bool int_typed(const Value& p) const { return p.space == 1; }

  // --- statement execution over an active-lane set ---

  void exec_list(const std::vector<StmtPtr>& stmts, std::vector<int> active) {
    for (const auto& s : stmts) {
      prune(active);
      if (active.empty()) return;
      exec_stmt(*s, active);
    }
  }

  /// Drops lanes whose status left kActive (returned / broke / continued).
  void prune(std::vector<int>& active) const {
    std::vector<int> keep;
    for (int l : active) {
      if (lanes_[static_cast<std::size_t>(l)].status == LaneStatus::kActive) {
        keep.push_back(l);
      }
    }
    active.swap(keep);
  }

  void exec_stmt(const Stmt& s, const std::vector<int>& active) {
    switch (s.kind) {
      case Stmt::Kind::kDecl:
        exec_decl(s, active);
        return;
      case Stmt::Kind::kExpr:
        for (int l : active) eval(*s.cond, l);
        return;
      case Stmt::Kind::kIf: {
        std::vector<int> yes, no;
        for (int l : active) {
          (eval(*s.cond, l).truthy(s.line) ? yes : no).push_back(l);
        }
        if (!yes.empty()) {
          push_scopes();
          exec_list(s.body, yes);
          pop_scopes();
        }
        if (!no.empty() && !s.else_body.empty()) {
          push_scopes();
          exec_list(s.else_body, no);
          pop_scopes();
        }
        return;
      }
      case Stmt::Kind::kFor:
      case Stmt::Kind::kWhile:
        exec_loop(s, active);
        return;
      case Stmt::Kind::kBlock:
        push_scopes();
        exec_list(s.body, active);
        pop_scopes();
        return;
      case Stmt::Kind::kReturn:
        for (int l : active) {
          lanes_[static_cast<std::size_t>(l)].status = LaneStatus::kReturned;
        }
        return;
      case Stmt::Kind::kContinue:
        for (int l : active) {
          lanes_[static_cast<std::size_t>(l)].status = LaneStatus::kContinued;
        }
        return;
      case Stmt::Kind::kBreak:
        for (int l : active) {
          lanes_[static_cast<std::size_t>(l)].status = LaneStatus::kBroken;
        }
        return;
      case Stmt::Kind::kBarrier:
        // One group-wide sequence point regardless of how many lanes are
        // still active (barriers in the subset sit in uniform control flow).
        ctx_.group_barrier();
        return;
    }
  }

  void exec_decl(const Stmt& s, const std::vector<int>& active) {
    if (s.is_local) {
      // __local declarations are group-level: allocate once, bind the span
      // pointer into every active lane.
      if (active.empty()) return;
      const long n = eval(*s.array_extent, active.front()).as_int(s.line);
      local_names_.push_back(std::make_unique<std::string>(s.name));
      Value v;
      v.kind = Value::Kind::kPtr;
      v.space = 2;
      v.buf = static_cast<int>(locals_.size());
      locals_.push_back(ctx_.local_alloc<float>(
          static_cast<std::size_t>(n), local_names_.back()->c_str()));
      for (int l : active) {
        lanes_[static_cast<std::size_t>(l)].scopes.back()[s.name] = v;
      }
      return;
    }
    const bool real = s.type == "real_t" || s.type == "float" ||
                      s.type == "double" || is_narrow_type(s.type);
    const bool narrow = quantizer_ != nullptr && is_narrow_type(s.type);
    for (int l : active) {
      Value v;
      if (s.array_extent) {
        v.kind = Value::Kind::kArr;
        v.vec.assign(
            static_cast<std::size_t>(eval(*s.array_extent, l).as_int(s.line)),
            0.0);
      } else if (s.init) {
        const Value init = eval(*s.init, l);
        if (init.kind == Value::Kind::kVec ||
            init.kind == Value::Kind::kPtr) {
          v = init;  // floatN registers and pointer offsets keep their kind
        } else {
          v = real ? Value::of_real(init.as_real(s.line))
                   : Value::of_int(init.as_int(s.line));
        }
      } else {
        v = real ? Value::of_real(0) : Value::of_int(0);
      }
      v.narrow = narrow;
      if (narrow && v.kind == Value::Kind::kReal) {
        v.r = static_cast<double>(quantizer_(static_cast<float>(v.r)));
      }
      lanes_[static_cast<std::size_t>(l)].scopes.back()[s.name] = v;
    }
  }

  void exec_loop(const Stmt& s, const std::vector<int>& active) {
    push_scopes();
    if (s.kind == Stmt::Kind::kFor && s.for_init) {
      exec_stmt(*s.for_init, active);
    }
    std::vector<int> in_loop;
    for (int l : active) {
      if (eval(*s.cond, l).truthy(s.line)) in_loop.push_back(l);
    }
    // Lock-step: one body round per iteration for every lane still inside.
    // Trip counts differ per lane (nnz loops); finished lanes simply drop
    // out of the set while the rest continue.
    long guard = 0;
    while (!in_loop.empty()) {
      if (++guard > (1L << 24)) fail(s.line, "loop iteration limit exceeded");
      push_scopes();
      exec_list(s.body, in_loop);
      pop_scopes();
      std::vector<int> next;
      for (int l : in_loop) {
        Lane& lane = lanes_[static_cast<std::size_t>(l)];
        if (lane.status == LaneStatus::kReturned) continue;
        if (lane.status == LaneStatus::kBroken) {
          lane.status = LaneStatus::kActive;
          continue;
        }
        lane.status = LaneStatus::kActive;  // clears kContinued
        if (s.kind == Stmt::Kind::kFor && s.step) eval(*s.step, l);
        if (eval(*s.cond, l).truthy(s.line)) next.push_back(l);
      }
      in_loop.swap(next);
    }
    pop_scopes();
  }

  // --- expression evaluation (per lane) ---

  Value eval(const Expr& e, int lane_id) {
    Lane& lane = lanes_[static_cast<std::size_t>(lane_id)];
    switch (e.kind) {
      case Expr::Kind::kIntLit:
        return Value::of_int(e.ival);
      case Expr::Kind::kFloatLit:
        return Value::of_real(std::strtod(e.name.c_str(), nullptr));
      case Expr::Kind::kIdent: {
        if (Value* v = find_var(lane, e.name)) return *v;
        auto d = tu_.defines.find(e.name);
        if (d != tu_.defines.end()) {
          return Value::of_int(std::strtol(d->second.c_str(), nullptr, 10));
        }
        fail(e.line, "unknown identifier '" + e.name + "'");
      }
      case Expr::Kind::kUnary:
        return eval_unary(e, lane_id);
      case Expr::Kind::kBinary:
        return eval_binary(e, lane_id);
      case Expr::Kind::kTernary:
        return eval(*e.kids[eval(*e.kids[0], lane_id).truthy(e.line) ? 1 : 2],
                    lane_id);
      case Expr::Kind::kCall:
        return eval_call(e, lane_id);
      case Expr::Kind::kIndex: {
        const Value base = eval(*e.kids[0], lane_id);
        const long idx = eval(*e.kids[1], lane_id).as_int(e.line);
        if (base.kind == Value::Kind::kPtr) {
          const double v = load_elem(base, idx, lane_id, e.line);
          return int_typed(base) ? Value::of_int(static_cast<long>(v))
                                 : Value::of_real(v);
        }
        // Private array: the base must be a plain identifier so we can
        // read the lane's own storage instead of the evaluated copy.
        Value* arr = array_lvalue(*e.kids[0], lane_id, e.line);
        if (idx < 0 || static_cast<std::size_t>(idx) >= arr->vec.size()) {
          return Value::of_real(0);  // suppressed, matching checked spans
        }
        return Value::of_real(arr->vec[static_cast<std::size_t>(idx)]);
      }
      case Expr::Kind::kMember: {
        const Value base = eval(*e.kids[0], lane_id);
        if (base.kind != Value::Kind::kVec || e.name.size() != 2 ||
            e.name[0] != 's') {
          fail(e.line, "unsupported member '." + e.name + "'");
        }
        const long c = std::strtol(e.name.c_str() + 1, nullptr, 16);
        if (c < 0 || static_cast<std::size_t>(c) >= base.vec.size()) {
          fail(e.line, "vector component out of range");
        }
        return Value::of_real(base.vec[static_cast<std::size_t>(c)]);
      }
      case Expr::Kind::kCast: {
        const Value v = eval(*e.kids[0], lane_id);
        if (is_narrow_type(e.name)) {
          double r = v.as_real(e.line);
          if (quantizer_) {
            r = static_cast<double>(quantizer_(static_cast<float>(r)));
          }
          return Value::of_real(r);
        }
        const bool real = e.name == "real_t" || e.name == "float" ||
                          e.name == "double";
        return real ? Value::of_real(v.as_real(e.line))
                    : Value::of_int(v.as_int(e.line));
      }
    }
    fail(e.line, "unsupported expression");
  }

  Value* array_lvalue(const Expr& e, int lane_id, int line) {
    if (e.kind != Expr::Kind::kIdent) {
      fail(line, "array access through a non-identifier base");
    }
    Value* v = find_var(lanes_[static_cast<std::size_t>(lane_id)], e.name);
    if (!v || v->kind != Value::Kind::kArr) {
      fail(line, "'" + e.name + "' is not a private array");
    }
    return v;
  }

  Value eval_unary(const Expr& e, int lane_id) {
    const std::string& op = e.name;
    if (op == "-") {
      const Value v = eval(*e.kids[0], lane_id);
      return v.kind == Value::Kind::kInt ? Value::of_int(-v.i)
                                         : Value::of_real(-v.as_real(e.line));
    }
    if (op == "!") {
      return Value::of_int(eval(*e.kids[0], lane_id).truthy(e.line) ? 0 : 1);
    }
    if (op == "++" || op == "--") {
      if (e.kids[0]->kind != Expr::Kind::kIdent) {
        fail(e.line, "++/-- on a non-identifier");
      }
      Value* v = find_var(lanes_[static_cast<std::size_t>(lane_id)],
                          e.kids[0]->name);
      if (!v) fail(e.line, "unknown identifier '" + e.kids[0]->name + "'");
      if (v->kind == Value::Kind::kInt) {
        v->i += op == "++" ? 1 : -1;
      } else {
        v->r += op == "++" ? 1 : -1;
      }
      return *v;  // pre/post distinction never observed in the subset
    }
    fail(e.line, "unsupported unary '" + op + "'");
  }

  Value eval_binary(const Expr& e, int lane_id) {
    const std::string& op = e.name;
    if (op == "=" || op == "+=" || op == "-=" || op == "*=" || op == "/=") {
      return eval_assign(e, lane_id);
    }
    if (op == "&&") {
      if (!eval(*e.kids[0], lane_id).truthy(e.line)) return Value::of_int(0);
      return Value::of_int(eval(*e.kids[1], lane_id).truthy(e.line) ? 1 : 0);
    }
    if (op == "||") {
      if (eval(*e.kids[0], lane_id).truthy(e.line)) return Value::of_int(1);
      return Value::of_int(eval(*e.kids[1], lane_id).truthy(e.line) ? 1 : 0);
    }
    const Value a = eval(*e.kids[0], lane_id);
    const Value b = eval(*e.kids[1], lane_id);
    // Pointer offset arithmetic: `(tile + z * K)`, `(Y + d)`.
    if (a.kind == Value::Kind::kPtr || b.kind == Value::Kind::kPtr) {
      const Value& p = a.kind == Value::Kind::kPtr ? a : b;
      const Value& o = a.kind == Value::Kind::kPtr ? b : a;
      if (op == "+" || (op == "-" && a.kind == Value::Kind::kPtr)) {
        Value r = p;
        r.off += (op == "+" ? 1 : -1) * o.as_int(e.line);
        return r;
      }
      fail(e.line, "unsupported pointer operator '" + op + "'");
    }
    const bool ints =
        a.kind == Value::Kind::kInt && b.kind == Value::Kind::kInt;
    if (op == "<" || op == "<=" || op == ">" || op == ">=" || op == "==" ||
        op == "!=") {
      const double x = a.as_real(e.line), y = b.as_real(e.line);
      bool t = false;
      if (op == "<") t = x < y;
      if (op == "<=") t = x <= y;
      if (op == ">") t = x > y;
      if (op == ">=") t = x >= y;
      if (op == "==") t = x == y;
      if (op == "!=") t = x != y;
      return Value::of_int(t ? 1 : 0);
    }
    if (op == "%") {
      if (!ints) fail(e.line, "'%' on non-integers");
      if (b.i == 0) fail(e.line, "modulo by zero");
      return Value::of_int(a.i % b.i);
    }
    if (ints) {
      if (op == "+") return Value::of_int(a.i + b.i);
      if (op == "-") return Value::of_int(a.i - b.i);
      if (op == "*") return Value::of_int(a.i * b.i);
      if (op == "/") {
        if (b.i == 0) fail(e.line, "integer division by zero");
        return Value::of_int(a.i / b.i);
      }
    } else {
      const double x = a.as_real(e.line), y = b.as_real(e.line);
      if (op == "+") return Value::of_real(x + y);
      if (op == "-") return Value::of_real(x - y);
      if (op == "*") return Value::of_real(x * y);
      if (op == "/") return Value::of_real(x / y);
    }
    fail(e.line, "unsupported operator '" + op + "'");
  }

  Value eval_assign(const Expr& e, int lane_id) {
    const std::string& op = e.name;
    const Expr& lhs = *e.kids[0];
    auto combine = [&](double old, double rhs) {
      if (op == "=") return rhs;
      if (op == "+=") return old + rhs;
      if (op == "-=") return old - rhs;
      if (op == "*=") return old * rhs;
      return old / rhs;  // "/="
    };
    if (lhs.kind == Expr::Kind::kIdent) {
      Value* v =
          find_var(lanes_[static_cast<std::size_t>(lane_id)], lhs.name);
      if (!v) fail(e.line, "unknown identifier '" + lhs.name + "'");
      const Value rhs = eval(*e.kids[1], lane_id);
      if (v->kind == Value::Kind::kPtr || rhs.kind == Value::Kind::kPtr) {
        if (op != "=") fail(e.line, "compound assignment on a pointer");
        *v = rhs;
        return *v;
      }
      if (v->kind == Value::Kind::kInt) {
        v->i = static_cast<long>(
            combine(static_cast<double>(v->i), rhs.as_real(e.line)));
      } else {
        v->r = combine(v->r, rhs.as_real(e.line));
        if (v->narrow && quantizer_) {
          v->r = static_cast<double>(quantizer_(static_cast<float>(v->r)));
        }
      }
      return *v;
    }
    if (lhs.kind != Expr::Kind::kIndex) {
      fail(e.line, "unsupported assignment target");
    }
    const Value base = eval(*lhs.kids[0], lane_id);
    const long idx = eval(*lhs.kids[1], lane_id).as_int(e.line);
    const double rhs = eval(*e.kids[1], lane_id).as_real(e.line);
    if (base.kind == Value::Kind::kPtr) {
      double result = rhs;
      if (op != "=") {
        result = combine(load_elem(base, idx, lane_id, e.line), rhs);
      }
      store_elem(base, idx, result, lane_id, e.line);
      return Value::of_real(result);
    }
    Value* arr = array_lvalue(*lhs.kids[0], lane_id, e.line);
    if (idx < 0 || static_cast<std::size_t>(idx) >= arr->vec.size()) {
      return Value::of_real(rhs);  // suppressed out-of-range private access
    }
    double& slot = arr->vec[static_cast<std::size_t>(idx)];
    slot = op == "=" ? rhs : combine(slot, rhs);
    if (arr->narrow && quantizer_) {
      slot = static_cast<double>(quantizer_(static_cast<float>(slot)));
    }
    return Value::of_real(slot);
  }

  Value eval_call(const Expr& e, int lane_id) {
    const std::string& name = e.name;
    auto arg = [&](std::size_t i) { return eval(*e.kids[i], lane_id); };
    if (name == "get_local_id") return Value::of_int(lane_id);
    if (name == "get_group_id") {
      return Value::of_int(static_cast<long>(ctx_.group_id()));
    }
    if (name == "get_num_groups") return Value::of_int(num_groups_);
    if (name == "get_local_size") return Value::of_int(ctx_.group_size());
    if (name == "get_global_id") {
      return Value::of_int(static_cast<long>(ctx_.group_id()) *
                               ctx_.group_size() +
                           lane_id);
    }
    if (name == "min" || name == "max") {
      const Value a = arg(0), b = arg(1);
      if (a.kind == Value::Kind::kInt && b.kind == Value::Kind::kInt) {
        return Value::of_int(name == "min" ? std::min(a.i, b.i)
                                           : std::max(a.i, b.i));
      }
      const double x = a.as_real(e.line), y = b.as_real(e.line);
      return Value::of_real(name == "min" ? std::min(x, y) : std::max(x, y));
    }
    if (name == "sqrt") return Value::of_real(std::sqrt(arg(0).as_real(e.line)));
    if (name == "fabs") return Value::of_real(std::fabs(arg(0).as_real(e.line)));
    if (name.rfind("vload", 0) == 0) {
      const long n = std::strtol(name.c_str() + 5, nullptr, 10);
      if (n < 2 || n > 16) fail(e.line, "unsupported '" + name + "'");
      const long off = arg(0).as_int(e.line);
      const Value p = arg(1);
      if (p.kind != Value::Kind::kPtr) {
        fail(e.line, "vload from a non-pointer");
      }
      Value v;
      v.kind = Value::Kind::kVec;
      for (long c = 0; c < n; ++c) {
        v.vec.push_back(load_elem(p, off * n + c, lane_id, e.line));
      }
      return v;
    }
    // In-file helper function (the lane-0 Cholesky solve).
    for (const auto& fn : tu_.functions) {
      if (fn.name != name || fn.is_kernel) continue;
      return call_helper(fn, e, lane_id);
    }
    fail(e.line, "unknown function '" + name + "'");
  }

  Value call_helper(const FunctionDecl& fn, const Expr& e, int lane_id) {
    if (fn.params.size() != e.kids.size()) {
      fail(e.line, "wrong argument count for '" + fn.name + "'");
    }
    Lane& lane = lanes_[static_cast<std::size_t>(lane_id)];
    std::map<std::string, Value> frame;
    for (std::size_t p = 0; p < fn.params.size(); ++p) {
      frame[fn.params[p].name] = eval(*e.kids[p], lane_id);
    }
    // Helpers in the subset are barrier-free, so a single lane can run the
    // whole body to completion on a swapped-in environment.
    std::vector<std::map<std::string, Value>> saved;
    saved.swap(lane.scopes);
    lane.scopes.push_back(std::move(frame));
    const LaneStatus saved_status = lane.status;
    exec_list(fn.body, {lane_id});
    lane.status = saved_status;
    lane.scopes = std::move(saved);
    return Value::of_int(0);
  }

 public:
  long num_groups_ = 1;
};

const FunctionDecl* find_kernel(const TranslationUnit& tu,
                                const std::string& kernel_name) {
  for (const auto& fn : tu.functions) {
    if (fn.is_kernel && fn.name == kernel_name) return &fn;
  }
  throw ParseError{0, "kernel '" + kernel_name + "' not found in source"};
}

}  // namespace

InterpKernel::InterpKernel(const std::string& source,
                           const std::string& kernel_name)
    : owned_(parse_translation_unit(source)),
      tu_(&*owned_),
      fn_(find_kernel(*tu_, kernel_name)) {}

InterpKernel::InterpKernel(const TranslationUnit& tu,
                           const std::string& kernel_name)
    : tu_(&tu), fn_(find_kernel(tu, kernel_name)) {}

void InterpKernel::run_group(devsim::GroupCtx& ctx,
                             const std::vector<InterpArg>& args) const {
  Machine m(*tu_, *fn_, ctx, args, quantizer_);
  m.num_groups_ = num_groups_hint_ > 0 ? num_groups_hint_ : 1;
  m.run();
}

}  // namespace alsmf::ocl::analyze
