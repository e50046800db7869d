#include "tql/executor.h"

#include <algorithm>
#include <cmath>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tql/parser.h"
#include "util/clock.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace dl::tql {

namespace {

double OpAdd(double a, double b) { return a + b; }
double OpSub(double a, double b) { return a - b; }
double OpMul(double a, double b) { return a * b; }
double OpDiv(double a, double b) { return b != 0 ? a / b : 0.0; }
double OpMod(double a, double b) {
  return b != 0 ? std::fmod(a, b) : 0.0;
}
double OpEq(double a, double b) { return a == b ? 1 : 0; }
double OpNe(double a, double b) { return a != b ? 1 : 0; }
double OpLt(double a, double b) { return a < b ? 1 : 0; }
double OpLe(double a, double b) { return a <= b ? 1 : 0; }
double OpGt(double a, double b) { return a > b ? 1 : 0; }
double OpGe(double a, double b) { return a >= b ? 1 : 0; }

/// Resolves a value that should be an array; string values are treated as
/// tensor references (the paper's IOU(boxes, "training/boxes") idiom).
Result<NdArray> AsArray(const Value& v, EvalContext& ctx,
                        const char* what) {
  if (v.is_array()) return v.array();
  if (v.is_string()) {
    DL_ASSIGN_OR_RETURN(Value col, ctx.Column(v.str()));
    if (col.is_array()) return col.array();
    return Status::InvalidArgument(std::string("tql: ") + what +
                                   ": tensor '" + v.str() +
                                   "' is not numeric");
  }
  return Status::InvalidArgument(std::string("tql: ") + what +
                                 " expects an array, got null");
}

Result<int64_t> AsIndex(const Value& v, const char* what) {
  if (!v.is_array() || !v.array().IsScalar()) {
    return Status::InvalidArgument(std::string("tql: ") + what +
                                   " must be a scalar");
  }
  return static_cast<int64_t>(v.array().AsScalar());
}

bool IsKnownFunction(const std::string& fn) {
  static const char* kKnown[] = {
      "MEAN", "SUM",  "MIN",       "MAX",   "STD",   "L2",    "ANY",
      "ALL",  "ABS",  "CLIP",      "SHAPE", "LEN",   "LENGTH", "IOU",
      "NORMALIZE",    "CONTAINS",  "LOWER", "UPPER", "ROW_NUMBER", "COUNT"};
  for (const char* k : kKnown) {
    if (fn == k) return true;
  }
  return false;
}

/// Static semantic validation: unknown columns and functions fail at query
/// time, not lazily on first cell access.
Status ValidateExpr(const Expr& expr, tsf::Dataset* ds) {
  switch (expr.kind) {
    case Expr::Kind::kColumn:
      if (!ds->HasTensor(expr.text)) {
        return Status::NotFound("tql: no tensor '" + expr.text + "'");
      }
      return Status::OK();
    case Expr::Kind::kCall:
      if (!IsKnownFunction(expr.text)) {
        return Status::NotImplemented("tql: unknown function " + expr.text);
      }
      break;
    default:
      break;
  }
  if (expr.lhs) DL_RETURN_IF_ERROR(ValidateExpr(*expr.lhs, ds));
  if (expr.rhs) DL_RETURN_IF_ERROR(ValidateExpr(*expr.rhs, ds));
  for (const auto& a : expr.args) DL_RETURN_IF_ERROR(ValidateExpr(*a, ds));
  for (const auto& s : expr.slices) {
    if (s.index) DL_RETURN_IF_ERROR(ValidateExpr(*s.index, ds));
    if (s.start) DL_RETURN_IF_ERROR(ValidateExpr(*s.start, ds));
    if (s.stop) DL_RETURN_IF_ERROR(ValidateExpr(*s.stop, ds));
    if (s.step) DL_RETURN_IF_ERROR(ValidateExpr(*s.step, ds));
  }
  return Status::OK();
}

}  // namespace

Result<Value> EvalContext::Column(const std::string& name) {
  auto it = cache_.find(name);
  if (it != cache_.end()) {
    if (io_ != nullptr) ++io_->cache_hits;
    return it->second;
  }
  // Qualified JOIN reference: "alias/tensor" -> the bound dataset/row.
  size_t slash = name.find('/');
  if (slash != std::string::npos) {
    auto binding = bindings_.find(name.substr(0, slash));
    if (binding != bindings_.end()) {
      DL_ASSIGN_OR_RETURN(Value v,
                          Load(binding->second.first, binding->second.second,
                               name.substr(slash + 1)));
      cache_[name] = v;
      return v;
    }
  }
  DL_ASSIGN_OR_RETURN(Value v, Load(dataset_, row_, name));
  cache_[name] = v;
  return v;
}

Result<Value> EvalContext::Load(tsf::Dataset* dataset, uint64_t row,
                                const std::string& name) {
  DL_ASSIGN_OR_RETURN(tsf::Tensor * tensor, dataset->GetTensor(name));
  if (row >= tensor->NumSamples()) {
    return Value::Null();
  }
  DL_ASSIGN_OR_RETURN(tsf::Sample s, tensor->Read(row));
  if (io_ != nullptr) {
    ++io_->loads;
    io_->bytes_loaded += s.data.size();
  }
  Value v;
  if (s.shape.IsEmptySample() && s.data.empty() && s.shape.ndim() > 0) {
    v = Value::Null();
  } else if (tensor->meta().htype.kind == tsf::HtypeKind::kText ||
             tensor->meta().htype.is_link) {
    v = Value(s.AsString());
  } else {
    v = Value(NdArray::FromSample(s));
  }
  return v;
}

Result<Value> Evaluate(const Expr& expr, EvalContext& ctx) {
  switch (expr.kind) {
    case Expr::Kind::kNumber:
      return Value::Number(expr.number);
    case Expr::Kind::kString:
      return Value(expr.text);
    case Expr::Kind::kColumn:
      return ctx.Column(expr.text);
    case Expr::Kind::kStarAll:
      return Status::InvalidArgument("tql: '*' is only valid in SELECT");
    case Expr::Kind::kArray: {
      std::vector<double> data;
      data.reserve(expr.args.size());
      for (const auto& arg : expr.args) {
        DL_ASSIGN_OR_RETURN(Value v, Evaluate(*arg, ctx));
        if (!v.is_array() || !v.array().IsScalar()) {
          return Status::InvalidArgument(
              "tql: array literal elements must be scalars");
        }
        data.push_back(v.array().AsScalar());
      }
      uint64_t count = data.size();
      return Value(NdArray({count}, std::move(data)));
    }
    case Expr::Kind::kUnary: {
      DL_ASSIGN_OR_RETURN(Value v, Evaluate(*expr.lhs, ctx));
      if (expr.uop == UnaryOp::kNot) {
        return Value::Bool(!v.Truthy());
      }
      DL_ASSIGN_OR_RETURN(NdArray arr, AsArray(v, ctx, "unary -"));
      for (double& d : arr.data()) d = -d;
      return Value(std::move(arr));
    }
    case Expr::Kind::kBinary: {
      // Short-circuit logical operators on truthiness.
      if (expr.bop == BinaryOp::kAnd || expr.bop == BinaryOp::kOr) {
        DL_ASSIGN_OR_RETURN(Value l, Evaluate(*expr.lhs, ctx));
        bool lt = l.Truthy();
        if (expr.bop == BinaryOp::kAnd && !lt) return Value::Bool(false);
        if (expr.bop == BinaryOp::kOr && lt) return Value::Bool(true);
        DL_ASSIGN_OR_RETURN(Value r, Evaluate(*expr.rhs, ctx));
        return Value::Bool(r.Truthy());
      }
      DL_ASSIGN_OR_RETURN(Value l, Evaluate(*expr.lhs, ctx));
      DL_ASSIGN_OR_RETURN(Value r, Evaluate(*expr.rhs, ctx));
      // String comparisons.
      if (l.is_string() && r.is_string()) {
        switch (expr.bop) {
          case BinaryOp::kEq:
            return Value::Bool(l.str() == r.str());
          case BinaryOp::kNe:
            return Value::Bool(l.str() != r.str());
          case BinaryOp::kLt:
            return Value::Bool(l.str() < r.str());
          case BinaryOp::kLe:
            return Value::Bool(l.str() <= r.str());
          case BinaryOp::kGt:
            return Value::Bool(l.str() > r.str());
          case BinaryOp::kGe:
            return Value::Bool(l.str() >= r.str());
          case BinaryOp::kAdd:
            return Value(l.str() + r.str());
          default:
            return Status::InvalidArgument(
                "tql: unsupported operator on strings");
        }
      }
      if (l.is_null() || r.is_null()) {
        // SQL-ish null semantics: comparisons with null are false, `=`
        // against null matches only null.
        if (expr.bop == BinaryOp::kEq) {
          return Value::Bool(l.is_null() && r.is_null());
        }
        if (expr.bop == BinaryOp::kNe) {
          return Value::Bool(l.is_null() != r.is_null());
        }
        return Value::Null();
      }
      DL_ASSIGN_OR_RETURN(NdArray la, AsArray(l, ctx, "binary op"));
      DL_ASSIGN_OR_RETURN(NdArray ra, AsArray(r, ctx, "binary op"));
      double (*op)(double, double) = nullptr;
      switch (expr.bop) {
        case BinaryOp::kAdd:
          op = OpAdd;
          break;
        case BinaryOp::kSub:
          op = OpSub;
          break;
        case BinaryOp::kMul:
          op = OpMul;
          break;
        case BinaryOp::kDiv:
          op = OpDiv;
          break;
        case BinaryOp::kMod:
          op = OpMod;
          break;
        case BinaryOp::kEq:
          op = OpEq;
          break;
        case BinaryOp::kNe:
          op = OpNe;
          break;
        case BinaryOp::kLt:
          op = OpLt;
          break;
        case BinaryOp::kLe:
          op = OpLe;
          break;
        case BinaryOp::kGt:
          op = OpGt;
          break;
        case BinaryOp::kGe:
          op = OpGe;
          break;
        default:
          return Status::InvalidArgument("tql: bad binary operator");
      }
      DL_ASSIGN_OR_RETURN(
          NdArray out, ElementwiseBinary(la, ra, op, "binary"));
      // Whole-array comparisons used as predicates collapse to ALL(...)
      // for equality-style checks when both sides are arrays of equal
      // shape; scalar results stay as-is. We keep elementwise results and
      // let Truthy() (ANY) decide in boolean contexts.
      return Value(std::move(out));
    }
    case Expr::Kind::kIndex: {
      DL_ASSIGN_OR_RETURN(Value base, Evaluate(*expr.lhs, ctx));
      DL_ASSIGN_OR_RETURN(NdArray arr, AsArray(base, ctx, "indexing"));
      std::vector<SliceSpec> specs;
      specs.reserve(expr.slices.size());
      for (const auto& se : expr.slices) {
        SliceSpec spec;
        if (se.is_index) {
          DL_ASSIGN_OR_RETURN(Value v, Evaluate(*se.index, ctx));
          DL_ASSIGN_OR_RETURN(spec.index, AsIndex(v, "index"));
          spec.is_index = true;
        } else {
          if (se.start) {
            DL_ASSIGN_OR_RETURN(Value v, Evaluate(*se.start, ctx));
            DL_ASSIGN_OR_RETURN(spec.start, AsIndex(v, "slice start"));
            spec.has_start = true;
          }
          if (se.stop) {
            DL_ASSIGN_OR_RETURN(Value v, Evaluate(*se.stop, ctx));
            DL_ASSIGN_OR_RETURN(spec.stop, AsIndex(v, "slice stop"));
            spec.has_stop = true;
          }
          if (se.step) {
            DL_ASSIGN_OR_RETURN(Value v, Evaluate(*se.step, ctx));
            DL_ASSIGN_OR_RETURN(spec.step, AsIndex(v, "slice step"));
            spec.has_step = true;
          }
        }
        specs.push_back(spec);
      }
      DL_ASSIGN_OR_RETURN(NdArray out, SliceArray(arr, specs));
      return Value(std::move(out));
    }
    case Expr::Kind::kCall: {
      const std::string& fn = expr.text;
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const auto& a : expr.args) {
        DL_ASSIGN_OR_RETURN(Value v, Evaluate(*a, ctx));
        args.push_back(std::move(v));
      }
      auto need = [&](size_t n) -> Status {
        if (args.size() != n) {
          return Status::InvalidArgument("tql: " + fn + " expects " +
                                         std::to_string(n) + " argument(s)");
        }
        return Status::OK();
      };
      if (fn == "MEAN" || fn == "SUM" || fn == "MIN" || fn == "MAX" ||
          fn == "STD" || fn == "L2" || fn == "ANY" || fn == "ALL") {
        DL_RETURN_IF_ERROR(need(1));
        DL_ASSIGN_OR_RETURN(NdArray a, AsArray(args[0], ctx, fn.c_str()));
        if (fn == "MEAN") return Value::Number(ReduceMean(a));
        if (fn == "SUM") return Value::Number(ReduceSum(a));
        if (fn == "MIN") return Value::Number(ReduceMin(a));
        if (fn == "MAX") return Value::Number(ReduceMax(a));
        if (fn == "STD") return Value::Number(ReduceStd(a));
        if (fn == "L2") return Value::Number(ReduceL2(a));
        if (fn == "ANY") return Value::Bool(ReduceAny(a));
        return Value::Bool(ReduceAll(a));
      }
      if (fn == "ABS") {
        DL_RETURN_IF_ERROR(need(1));
        DL_ASSIGN_OR_RETURN(NdArray a, AsArray(args[0], ctx, "ABS"));
        for (double& d : a.data()) d = std::fabs(d);
        return Value(std::move(a));
      }
      if (fn == "CLIP") {
        DL_RETURN_IF_ERROR(need(3));
        DL_ASSIGN_OR_RETURN(NdArray a, AsArray(args[0], ctx, "CLIP"));
        DL_ASSIGN_OR_RETURN(int64_t lo, AsIndex(args[1], "CLIP lo"));
        DL_ASSIGN_OR_RETURN(int64_t hi, AsIndex(args[2], "CLIP hi"));
        for (double& d : a.data()) {
          d = std::min(std::max(d, static_cast<double>(lo)),
                       static_cast<double>(hi));
        }
        return Value(std::move(a));
      }
      if (fn == "SHAPE") {
        DL_RETURN_IF_ERROR(need(1));
        // SHAPE of a column is served by the shape encoder — no chunk read.
        if (expr.args[0]->kind == Expr::Kind::kColumn) {
          DL_ASSIGN_OR_RETURN(tsf::Tensor * t,
                              ctx.dataset()->GetTensor(expr.args[0]->text));
          DL_ASSIGN_OR_RETURN(tsf::TensorShape sh, t->ShapeAt(ctx.row()));
          std::vector<double> dims(sh.dims().begin(), sh.dims().end());
          uint64_t rank = dims.size();
          return Value(NdArray({rank}, std::move(dims)));
        }
        DL_ASSIGN_OR_RETURN(NdArray a, AsArray(args[0], ctx, "SHAPE"));
        std::vector<double> dims(a.shape().begin(), a.shape().end());
        uint64_t rank = dims.size();
        return Value(NdArray({rank}, std::move(dims)));
      }
      if (fn == "LEN" || fn == "LENGTH") {
        DL_RETURN_IF_ERROR(need(1));
        if (args[0].is_string()) {
          return Value::Number(static_cast<double>(args[0].str().size()));
        }
        DL_ASSIGN_OR_RETURN(NdArray a, AsArray(args[0], ctx, "LEN"));
        return Value::Number(
            a.ndim() == 0 ? 1.0 : static_cast<double>(a.shape()[0]));
      }
      if (fn == "IOU") {
        DL_RETURN_IF_ERROR(need(2));
        DL_ASSIGN_OR_RETURN(NdArray a, AsArray(args[0], ctx, "IOU"));
        DL_ASSIGN_OR_RETURN(NdArray b, AsArray(args[1], ctx, "IOU"));
        DL_ASSIGN_OR_RETURN(double iou, MeanBestIou(a, b));
        return Value::Number(iou);
      }
      if (fn == "NORMALIZE") {
        DL_RETURN_IF_ERROR(need(2));
        DL_ASSIGN_OR_RETURN(NdArray boxes, AsArray(args[0], ctx, "NORMALIZE"));
        DL_ASSIGN_OR_RETURN(NdArray win, AsArray(args[1], ctx, "NORMALIZE"));
        DL_ASSIGN_OR_RETURN(NdArray out, NormalizeBoxes(boxes, win));
        return Value(std::move(out));
      }
      if (fn == "CONTAINS") {
        DL_RETURN_IF_ERROR(need(2));
        if (!args[0].is_string() || !args[1].is_string()) {
          return Status::InvalidArgument("tql: CONTAINS expects strings");
        }
        return Value::Bool(args[0].str().find(args[1].str()) !=
                           std::string::npos);
      }
      if (fn == "LOWER" || fn == "UPPER") {
        DL_RETURN_IF_ERROR(need(1));
        if (!args[0].is_string()) {
          return Status::InvalidArgument("tql: " + fn + " expects a string");
        }
        return Value(fn == "LOWER" ? ToLower(args[0].str())
                                   : ToUpper(args[0].str()));
      }
      if (fn == "ROW_NUMBER") {
        return Value::Number(static_cast<double>(ctx.row()));
      }
      return Status::NotImplemented("tql: unknown function " + fn);
    }
  }
  return Status::InvalidArgument("tql: bad expression node");
}

// ---------------------------------------------------------------------------
// DatasetView
// ---------------------------------------------------------------------------

DatasetView::DatasetView(std::shared_ptr<tsf::Dataset> dataset,
                         std::vector<uint64_t> indices,
                         std::vector<SelectItem> select, bool selects_all)
    : dataset_(std::move(dataset)),
      indices_(std::move(indices)),
      select_(std::move(select)),
      selects_all_(selects_all) {
  if (selects_all_) {
    columns_ = dataset_->TensorNames();
  } else {
    for (const auto& item : select_) columns_.push_back(item.alias);
  }
}

DatasetView::DatasetView(std::vector<std::string> columns,
                         std::vector<std::vector<Value>> rows)
    : computed_(true), columns_(std::move(columns)), rows_(std::move(rows)) {}

const SelectItem* DatasetView::FindItem(const std::string& column) const {
  for (const auto& item : select_) {
    if (item.alias == column) return &item;
  }
  return nullptr;
}

Result<Value> DatasetView::Cell(size_t view_row, const std::string& column) {
  if (view_row >= size()) {
    return Status::OutOfRange("view: row " + std::to_string(view_row) +
                              " beyond " + std::to_string(size()));
  }
  if (computed_) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (columns_[c] == column) return rows_[view_row][c];
    }
    return Status::NotFound("view: no column '" + column + "'");
  }
  EvalContext ctx(dataset_.get(), indices_[view_row]);
  if (selects_all_) {
    return ctx.Column(column);
  }
  const SelectItem* item = FindItem(column);
  if (item == nullptr) {
    return Status::NotFound("view: no column '" + column + "'");
  }
  return Evaluate(*item->expr, ctx);
}

Result<tsf::Sample> DatasetView::CellSample(size_t view_row,
                                            const std::string& column) {
  if (computed_) {
    DL_ASSIGN_OR_RETURN(Value v, Cell(view_row, column));
    if (v.is_string()) return tsf::Sample::FromString(v.str());
    if (v.is_null()) return tsf::Sample::EmptyOf(tsf::DType::kFloat64);
    return v.array().ToSample(tsf::DType::kFloat64);
  }
  if (view_row >= size()) {
    return Status::OutOfRange("view: row beyond end");
  }
  uint64_t row = indices_[view_row];
  // Passthrough fast path: plain column reference keeps the source bytes.
  std::string source_tensor;
  const Expr* expr = nullptr;
  if (selects_all_) {
    source_tensor = column;
  } else {
    const SelectItem* item = FindItem(column);
    if (item == nullptr) {
      return Status::NotFound("view: no column '" + column + "'");
    }
    if (item->expr->kind == Expr::Kind::kColumn) {
      source_tensor = item->expr->text;
    } else {
      expr = item->expr.get();
    }
  }
  if (!source_tensor.empty()) {
    DL_ASSIGN_OR_RETURN(tsf::Tensor * t, dataset_->GetTensor(source_tensor));
    if (row >= t->NumSamples()) {
      return tsf::Sample::EmptyOf(t->meta().dtype);
    }
    return t->Read(row);
  }
  EvalContext ctx(dataset_.get(), row);
  DL_ASSIGN_OR_RETURN(Value v, Evaluate(*expr, ctx));
  if (v.is_string()) return tsf::Sample::FromString(v.str());
  if (v.is_null()) return tsf::Sample::EmptyOf(tsf::DType::kFloat64);
  // Preserve the source dtype when the root of the expression is an
  // index/slice of a plain column; otherwise fall back to float64.
  tsf::DType dtype = tsf::DType::kFloat64;
  const Expr* root = expr;
  while (root->kind == Expr::Kind::kIndex) root = root->lhs.get();
  if (root->kind == Expr::Kind::kColumn && expr->kind == Expr::Kind::kIndex) {
    auto t = dataset_->GetTensor(root->text);
    if (t.ok()) dtype = (*t)->meta().dtype;
  }
  return v.array().ToSample(dtype);
}

bool DatasetView::IsSparseOver(uint64_t dataset_rows) const {
  if (computed_) return false;
  if (indices_.size() != dataset_rows) return true;
  for (size_t i = 0; i < indices_.size(); ++i) {
    if (indices_[i] != i) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// QueryProfile
// ---------------------------------------------------------------------------

std::string QueryProfile::ToTreeString() const {
  std::string out = analyzed ? "EXPLAIN ANALYZE" : "EXPLAIN";
  if (analyzed) {
    out += " (total " + std::to_string(total_us) + " us, parse " +
           std::to_string(parse_us) + " us)";
  }
  out += "\n";
  for (const auto& op : operators) {
    out += "-> " + op.op;
    if (!op.detail.empty()) out += " (" + op.detail + ")";
    if (analyzed) {
      out += " [rows " + std::to_string(op.rows_in) + " -> " +
             std::to_string(op.rows_out) + ", wall " +
             std::to_string(op.wall_us) + " us";
      if (op.bytes_read > 0) {
        out += ", bytes " + std::to_string(op.bytes_read);
      }
      if (op.cache_hits > 0) {
        out += ", cache_hits " + std::to_string(op.cache_hits);
      }
      out += "]";
    }
    out += "\n";
  }
  return out;
}

Json QueryProfile::ToJson() const {
  Json ops = Json::MakeArray();
  for (const auto& op : operators) {
    Json item = Json::MakeObject();
    item.Set("op", op.op);
    item.Set("detail", op.detail);
    item.Set("rows_in", op.rows_in);
    item.Set("rows_out", op.rows_out);
    item.Set("wall_us", op.wall_us);
    item.Set("bytes_read", op.bytes_read);
    item.Set("cache_hits", op.cache_hits);
    ops.Append(std::move(item));
  }
  Json doc = Json::MakeObject();
  doc.Set("query", query);
  doc.Set("analyzed", analyzed);
  doc.Set("parse_us", parse_us);
  doc.Set("total_us", total_us);
  doc.Set("operators", std::move(ops));
  return doc;
}

int64_t QueryProfile::OperatorWallSumUs() const {
  int64_t sum = parse_us;
  for (const auto& op : operators) sum += op.wall_us;
  return sum;
}

// ---------------------------------------------------------------------------
// Query execution
// ---------------------------------------------------------------------------

namespace {

bool IsAggregateCall(const Expr& e) {
  if (e.kind != Expr::Kind::kCall) return false;
  return e.text == "COUNT" || e.text == "SUM" || e.text == "MEAN" ||
         e.text == "MIN" || e.text == "MAX";
}

/// GROUP BY execution: one computed row per group, aggregates reduced over
/// the group's member rows.
Result<DatasetView> ExecuteGroupBy(std::shared_ptr<tsf::Dataset> ds,
                                   const Query& q,
                                   const std::vector<uint64_t>& rows) {
  // Group rows by the (stringified) group key.
  std::map<std::string, std::vector<uint64_t>> groups;
  for (uint64_t row : rows) {
    EvalContext ctx(ds.get(), row);
    std::string key;
    for (const auto& g : q.group_by) {
      DL_ASSIGN_OR_RETURN(Value v, Evaluate(*g, ctx));
      key += v.ToString();
      key += '\x1f';
    }
    groups[key].push_back(row);
  }
  if (q.SelectsAll()) {
    return Status::InvalidArgument(
        "tql: GROUP BY requires an explicit select list");
  }
  std::vector<std::string> columns;
  for (const auto& item : q.select) columns.push_back(item.alias);
  std::vector<std::vector<Value>> out_rows;
  for (const auto& [key, members] : groups) {
    std::vector<Value> out_row;
    for (const auto& item : q.select) {
      const Expr& e = *item.expr;
      if (IsAggregateCall(e)) {
        if (e.text == "COUNT") {
          out_row.push_back(
              Value::Number(static_cast<double>(members.size())));
          continue;
        }
        // Reduce the scalar expression over the group's rows.
        if (e.args.size() != 1) {
          return Status::InvalidArgument("tql: " + e.text +
                                         " expects one argument");
        }
        double acc = 0;
        double mn = HUGE_VAL, mx = -HUGE_VAL;
        for (uint64_t row : members) {
          EvalContext ctx(ds.get(), row);
          DL_ASSIGN_OR_RETURN(Value v, Evaluate(*e.args[0], ctx));
          double d = v.is_array() ? ReduceMean(v.array()) : 0.0;
          acc += d;
          mn = std::min(mn, d);
          mx = std::max(mx, d);
        }
        double result = 0;
        if (e.text == "SUM") result = acc;
        if (e.text == "MEAN") result = members.empty() ? 0 : acc / members.size();
        if (e.text == "MIN") result = members.empty() ? 0 : mn;
        if (e.text == "MAX") result = members.empty() ? 0 : mx;
        out_row.push_back(Value::Number(result));
      } else {
        // Non-aggregate: value on the group's first row.
        EvalContext ctx(ds.get(), members.front());
        DL_ASSIGN_OR_RETURN(Value v, Evaluate(e, ctx));
        out_row.push_back(std::move(v));
      }
    }
    out_rows.push_back(std::move(out_row));
  }
  return DatasetView(std::move(columns), std::move(out_rows));
}

}  // namespace

namespace {

/// JOIN execution (paper §7.3's "does not support operations such as
/// *join*" future-work item): nested-loop inner join producing a computed
/// view. Column references qualify as `alias.tensor`; unqualified names
/// resolve against the FROM dataset.
Result<DatasetView> ExecuteJoin(std::shared_ptr<tsf::Dataset> left,
                                const Query& query,
                                const QueryOptions& options) {
  if (query.joins.size() != 1) {
    return Status::NotImplemented("tql: only a single JOIN is supported");
  }
  if (query.SelectsAll()) {
    return Status::InvalidArgument(
        "tql: JOIN queries require an explicit select list");
  }
  if (!query.group_by.empty()) {
    return Status::NotImplemented("tql: GROUP BY with JOIN");
  }
  const JoinClause& join = query.joins[0];
  auto right_it = options.datasets.find(join.dataset);
  if (right_it == options.datasets.end()) {
    return Status::NotFound("tql: JOIN dataset '" + join.dataset +
                            "' not registered in QueryOptions::datasets");
  }
  std::shared_ptr<tsf::Dataset> right = right_it->second;

  std::vector<std::string> columns;
  for (const auto& item : query.select) columns.push_back(item.alias);

  struct Keyed {
    double key;
    std::vector<Value> cells;
  };
  std::vector<Keyed> rows;
  uint64_t n_left = left->NumRows();
  uint64_t n_right = right->NumRows();
  for (uint64_t i = 0; i < n_left; ++i) {
    for (uint64_t j = 0; j < n_right; ++j) {
      EvalContext ctx(left.get(), i);
      ctx.Bind(query.from_alias, left.get(), i);
      ctx.Bind(join.alias, right.get(), j);
      DL_ASSIGN_OR_RETURN(Value on, Evaluate(*join.on, ctx));
      if (!on.Truthy()) continue;
      if (query.where) {
        DL_ASSIGN_OR_RETURN(Value keep, Evaluate(*query.where, ctx));
        if (!keep.Truthy()) continue;
      }
      Keyed row;
      row.key = 0;
      if (query.order_by) {
        DL_ASSIGN_OR_RETURN(Value k, Evaluate(*query.order_by, ctx));
        row.key = k.is_array() ? ReduceMean(k.array()) : 0.0;
      }
      for (const auto& item : query.select) {
        DL_ASSIGN_OR_RETURN(Value v, Evaluate(*item.expr, ctx));
        row.cells.push_back(std::move(v));
      }
      rows.push_back(std::move(row));
    }
  }
  if (query.order_by) {
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Keyed& a, const Keyed& b) {
                       return query.order_desc ? a.key > b.key
                                               : a.key < b.key;
                     });
  }
  if (query.offset > 0) {
    size_t off = std::min<size_t>(rows.size(),
                                  static_cast<size_t>(query.offset));
    rows.erase(rows.begin(), rows.begin() + off);
  }
  if (query.limit >= 0 && rows.size() > static_cast<size_t>(query.limit)) {
    rows.resize(static_cast<size_t>(query.limit));
  }
  std::vector<std::vector<Value>> out;
  out.reserve(rows.size());
  for (auto& r : rows) out.push_back(std::move(r.cells));
  return DatasetView(std::move(columns), std::move(out));
}

}  // namespace

namespace {

/// Operator details shared by EXPLAIN (describe) and EXPLAIN ANALYZE
/// (measure): the two paths must name operators identically.
std::string GroupByDetail(const Query& query) {
  std::string detail;
  for (const auto& g : query.group_by) {
    if (!detail.empty()) detail += ", ";
    detail += ExprToString(*g);
  }
  return detail;
}

std::string SortDetail(const Query& query) {
  return ExprToString(*query.order_by) +
         (query.order_desc ? " DESC" : " ASC");
}

std::string LimitDetail(const Query& query) {
  std::string detail = query.limit >= 0
                           ? "limit " + std::to_string(query.limit)
                           : std::string("limit none");
  if (query.offset > 0) detail += " offset " + std::to_string(query.offset);
  return detail;
}

std::string ProjectDetail(const Query& query) {
  return query.SelectsAll()
             ? std::string("* (lazy)")
             : std::to_string(query.select.size()) + " column(s) (lazy)";
}

/// Plain EXPLAIN: describe the operator pipeline without touching a row.
/// Mirrors the operator names/order the ANALYZE path produces.
std::vector<OperatorProfile> DescribePlan(const Query& query,
                                          tsf::Dataset* ds) {
  std::vector<OperatorProfile> ops;
  auto add = [&](const char* op, std::string detail) {
    OperatorProfile p;
    p.op = op;
    p.detail = std::move(detail);
    ops.push_back(std::move(p));
  };
  if (!query.joins.empty()) {
    add("join", query.joins[0].dataset + " ON " +
                    ExprToString(*query.joins[0].on));
    add("project", ProjectDetail(query));
    return ops;
  }
  if (!query.version.empty()) add("version", "'" + query.version + "'");
  add("plan", "validate expressions");
  if (query.where) {
    add("filter", ExprToString(*query.where));
  } else {
    add("scan", "full scan of " + std::to_string(ds->NumRows()) + " rows");
  }
  if (!query.group_by.empty()) {
    add("group_by", GroupByDetail(query));
    return ops;
  }
  if (query.order_by) add("sort", SortDetail(query));
  if (query.arrange_by) add("arrange", ExprToString(*query.arrange_by));
  if (query.limit >= 0 || query.offset > 0) add("limit", LimitDetail(query));
  add("project", ProjectDetail(query));
  return ops;
}

/// Renders a profile as a computed single-column view — what EXPLAIN and
/// EXPLAIN ANALYZE return in place of result rows (one line per row).
DatasetView PlanTextView(const QueryProfile& profile) {
  std::vector<std::vector<Value>> out_rows;
  std::string text = profile.ToTreeString();
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    out_rows.push_back({Value(text.substr(start, nl - start))});
    start = nl + 1;
  }
  return DatasetView(std::vector<std::string>{"plan"}, std::move(out_rows));
}

Result<DatasetView> ExecuteQueryImpl(std::shared_ptr<tsf::Dataset> dataset,
                                     const Query& query,
                                     const QueryOptions& options,
                                     QueryProfile* prof) {
  std::shared_ptr<tsf::Dataset> ds = dataset;
  {
    auto named = options.datasets.find(query.from);
    if (named != options.datasets.end()) ds = named->second;
  }
  auto add_op = [&](const char* op, std::string detail, uint64_t rows_in,
                    uint64_t rows_out, int64_t wall_us,
                    EvalContext::IoStats io = {}) {
    if (prof == nullptr) return;
    OperatorProfile p;
    p.op = op;
    p.detail = std::move(detail);
    p.rows_in = rows_in;
    p.rows_out = rows_out;
    p.wall_us = wall_us;
    p.bytes_read = io.bytes_loaded;
    p.cache_hits = io.cache_hits;
    prof->operators.push_back(std::move(p));
  };
  if (!query.joins.empty()) {
    int64_t join_start = NowMicros();
    Result<DatasetView> joined = ExecuteJoin(ds, query, options);
    if (joined.ok()) {
      add_op("join",
             query.joins[0].dataset + " ON " +
                 ExprToString(*query.joins[0].on),
             ds->NumRows(), joined->size(), NowMicros() - join_start);
    }
    return joined;
  }
  if (!query.version.empty()) {
    if (!options.version_resolver) {
      return Status::NotImplemented(
          "tql: VERSION queries require a version resolver");
    }
    int64_t version_start = NowMicros();
    DL_ASSIGN_OR_RETURN(ds, options.version_resolver(query.version));
    add_op("version", "'" + query.version + "'", 0, ds->NumRows(),
           NowMicros() - version_start);
  }
  // Static validation of every expression in the query — the "plan" phase:
  // all schema errors surface here, before any row is touched.
  obs::ScopedSpan plan_span("tql.plan", "tql");
  int64_t plan_start = NowMicros();
  if (!query.SelectsAll()) {
    for (const auto& item : query.select) {
      DL_RETURN_IF_ERROR(ValidateExpr(*item.expr, ds.get()));
    }
  }
  if (query.where) DL_RETURN_IF_ERROR(ValidateExpr(*query.where, ds.get()));
  if (query.order_by) {
    DL_RETURN_IF_ERROR(ValidateExpr(*query.order_by, ds.get()));
  }
  if (query.arrange_by) {
    DL_RETURN_IF_ERROR(ValidateExpr(*query.arrange_by, ds.get()));
  }
  for (const auto& g : query.group_by) {
    DL_RETURN_IF_ERROR(ValidateExpr(*g, ds.get()));
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetHistogram("tql.plan_us")->ObserveSinceMicros(plan_start);
  plan_span.End();
  add_op("plan", "validate expressions", 0, 0, NowMicros() - plan_start);
  uint64_t n = ds->NumRows();
  registry.GetCounter("tql.rows_scanned")->Add(n);

  // Filter.
  std::vector<uint64_t> rows;
  rows.reserve(n);
  EvalContext::IoStats filter_io;
  int64_t filter_start = NowMicros();
  for (uint64_t i = 0; i < n; ++i) {
    if (query.where) {
      EvalContext ctx(ds.get(), i, prof != nullptr ? &filter_io : nullptr);
      DL_ASSIGN_OR_RETURN(Value v, Evaluate(*query.where, ctx));
      if (!v.Truthy()) continue;
    }
    rows.push_back(i);
  }
  add_op(query.where != nullptr ? "filter" : "scan",
         query.where != nullptr
             ? ExprToString(*query.where)
             : "full scan of " + std::to_string(n) + " rows",
         n, rows.size(), NowMicros() - filter_start, filter_io);

  if (!query.group_by.empty()) {
    int64_t group_start = NowMicros();
    uint64_t group_in = rows.size();
    Result<DatasetView> grouped = ExecuteGroupBy(ds, query, rows);
    if (grouped.ok()) {
      add_op("group_by", GroupByDetail(query), group_in, grouped->size(),
             NowMicros() - group_start);
    }
    return grouped;
  }

  // Order.
  if (query.order_by) {
    EvalContext::IoStats sort_io;
    int64_t sort_start = NowMicros();
    std::vector<std::pair<double, uint64_t>> keyed;
    keyed.reserve(rows.size());
    for (uint64_t row : rows) {
      EvalContext ctx(ds.get(), row, prof != nullptr ? &sort_io : nullptr);
      DL_ASSIGN_OR_RETURN(Value v, Evaluate(*query.order_by, ctx));
      double key = v.is_array() ? (v.array().IsScalar()
                                       ? v.array().AsScalar()
                                       : ReduceMean(v.array()))
                                : 0.0;
      keyed.push_back({key, row});
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const auto& a, const auto& b) {
                       return query.order_desc ? a.first > b.first
                                               : a.first < b.first;
                     });
    rows.clear();
    for (const auto& [k, row] : keyed) rows.push_back(row);
    add_op("sort", SortDetail(query), rows.size(), rows.size(),
           NowMicros() - sort_start, sort_io);
  }

  // Arrange (balancing): bucket by key, then round-robin interleave so
  // every key appears evenly through the stream.
  if (query.arrange_by) {
    EvalContext::IoStats arrange_io;
    int64_t arrange_start = NowMicros();
    std::map<std::string, std::vector<uint64_t>> buckets;
    std::vector<std::string> bucket_order;
    for (uint64_t row : rows) {
      EvalContext ctx(ds.get(), row,
                      prof != nullptr ? &arrange_io : nullptr);
      DL_ASSIGN_OR_RETURN(Value v, Evaluate(*query.arrange_by, ctx));
      std::string key = v.ToString();
      if (buckets.find(key) == buckets.end()) bucket_order.push_back(key);
      buckets[key].push_back(row);
    }
    rows.clear();
    size_t remaining = 0;
    for (const auto& [k, b] : buckets) remaining += b.size();
    std::vector<size_t> cursors(bucket_order.size(), 0);
    while (remaining > 0) {
      for (size_t b = 0; b < bucket_order.size(); ++b) {
        auto& bucket = buckets[bucket_order[b]];
        if (cursors[b] < bucket.size()) {
          rows.push_back(bucket[cursors[b]++]);
          --remaining;
        }
      }
    }
    add_op("arrange", ExprToString(*query.arrange_by), rows.size(),
           rows.size(), NowMicros() - arrange_start, arrange_io);
  }

  // Limit / offset.
  if (query.offset > 0 || query.limit >= 0) {
    uint64_t limit_in = rows.size();
    int64_t limit_start = NowMicros();
    if (query.offset > 0) {
      size_t off = std::min<size_t>(rows.size(),
                                    static_cast<size_t>(query.offset));
      rows.erase(rows.begin(), rows.begin() + off);
    }
    if (query.limit >= 0 && rows.size() > static_cast<size_t>(query.limit)) {
      rows.resize(static_cast<size_t>(query.limit));
    }
    add_op("limit", LimitDetail(query), limit_in, rows.size(),
           NowMicros() - limit_start);
  }

  uint64_t out_rows = rows.size();
  DatasetView view(ds, std::move(rows),
                   query.SelectsAll() ? std::vector<SelectItem>{}
                                      : query.select,
                   query.SelectsAll());
  add_op("project", ProjectDetail(query), out_rows, out_rows, 0);
  return view;
}

/// Shared execution wrapper: spans/metrics, optional profiling, EXPLAIN
/// rendering. `query_text`/`parse_us` are known only on the RunQuery path.
Result<DatasetView> ExecuteQueryTimed(std::shared_ptr<tsf::Dataset> dataset,
                                      const Query& query,
                                      const QueryOptions& options,
                                      const std::string& query_text,
                                      int64_t parse_us) {
  // The query adopts its job's trace context: tql.execute and everything
  // beneath it (scan, storage ops) share the context's trace id.
  obs::ContextScope context_scope(options.context);
  obs::ScopedSpan span("tql.execute", "tql");
  auto& registry = obs::MetricsRegistry::Global();
  int64_t start = NowMicros();

  std::shared_ptr<QueryProfile> profile;
  if (options.profile != nullptr || query.explain != ExplainMode::kNone) {
    profile = std::make_shared<QueryProfile>();
    profile->query = query_text;
    profile->analyzed = query.explain != ExplainMode::kPlan;
    profile->parse_us = parse_us;
  }

  Result<DatasetView> view = [&]() -> Result<DatasetView> {
    if (query.explain == ExplainMode::kPlan) {
      std::shared_ptr<tsf::Dataset> ds = dataset;
      auto named = options.datasets.find(query.from);
      if (named != options.datasets.end()) ds = named->second;
      profile->operators = DescribePlan(query, ds.get());
      // Placeholder — the rendered plan view is built below, after
      // total_us is known.
      return DatasetView(std::vector<std::string>{"plan"}, {});
    }
    return ExecuteQueryImpl(std::move(dataset), query, options,
                            profile != nullptr ? profile.get() : nullptr);
  }();

  registry.GetHistogram("tql.execute_us")->ObserveSinceMicros(start);
  if (view.ok()) {
    registry.GetCounter("tql.queries")->Increment();
    registry.GetCounter("tql.rows_selected")->Add(view->size());
  } else {
    registry.GetCounter("tql.errors")->Increment();
    obs::RecordErrorEvent(obs::TraceRecorder::Global(), "tql.execute",
                          view.status().ToString());
  }
  if (view.ok() && profile != nullptr) {
    profile->total_us = NowMicros() - start;
    if (options.profile != nullptr) *options.profile = *profile;
    if (query.explain != ExplainMode::kNone) {
      DatasetView plan_view = PlanTextView(*profile);
      plan_view.AttachProfile(profile);
      return plan_view;
    }
    view->AttachProfile(profile);
  }
  return view;
}

}  // namespace

Result<DatasetView> ExecuteQuery(std::shared_ptr<tsf::Dataset> dataset,
                                 const Query& query,
                                 const QueryOptions& options) {
  return ExecuteQueryTimed(std::move(dataset), query, options, "", 0);
}

Result<DatasetView> RunQuery(std::shared_ptr<tsf::Dataset> dataset,
                             const std::string& query_text,
                             const QueryOptions& options) {
  int64_t parse_start = NowMicros();
  Result<Query> parsed = [&] {
    obs::ContextScope context_scope(options.context);
    obs::ScopedSpan span("tql.parse", "tql");
    obs::ScopedTimerUs timer(
        obs::MetricsRegistry::Global().GetHistogram("tql.parse_us"));
    return ParseQuery(query_text);
  }();
  if (!parsed.ok()) return parsed.status();
  int64_t parse_us = NowMicros() - parse_start;
  return ExecuteQueryTimed(std::move(dataset), *parsed, options, query_text,
                           parse_us);
}

// ---------------------------------------------------------------------------
// Materialization (§4.5)
// ---------------------------------------------------------------------------

Result<std::shared_ptr<tsf::Dataset>> MaterializeView(
    DatasetView& view, storage::StoragePtr target) {
  obs::ScopedSpan span("tql.materialize", "tql");
  auto& registry = obs::MetricsRegistry::Global();
  obs::ScopedTimerUs timer(registry.GetHistogram("tql.materialize_us"));
  registry.GetCounter("tql.rows_materialized")->Add(view.size());
  tsf::Dataset::Options opts;
  opts.description = "materialized view";
  DL_ASSIGN_OR_RETURN(auto out, tsf::Dataset::Create(target, opts));
  // Declare output tensors: passthrough columns copy the source tensor's
  // options; computed columns become generic float64 / text tensors.
  for (const auto& column : view.columns()) {
    tsf::TensorOptions topts;
    bool configured = false;
    if (!view.computed() && view.dataset() != nullptr) {
      // Resolve the source tensor: the column itself for SELECT *, or the
      // root column of a plain/sliced column projection. Slices of a
      // tensor keep its dtype and compression; only whole-column
      // passthroughs keep the htype (a 2-channel crop is not an "image").
      std::string source;
      bool passthrough = false;
      if (view.selects_all()) {
        source = column;
        passthrough = true;
      } else {
        for (const auto& item : view.select_items()) {
          if (item.alias != column) continue;
          const Expr* root = item.expr.get();
          passthrough = root->kind == Expr::Kind::kColumn;
          while (root->kind == Expr::Kind::kIndex) root = root->lhs.get();
          if (root->kind == Expr::Kind::kColumn) source = root->text;
          break;
        }
      }
      if (!source.empty()) {
        auto src = view.dataset()->GetTensor(source);
        if (src.ok()) {
          topts = (*src)->meta().ToOptions();
          if (!passthrough) topts.htype = "generic";
          configured = true;
        }
      }
    }
    if (!configured) {
      topts.htype = "generic";
      topts.dtype = "float64";
    }
    DL_RETURN_IF_ERROR(out->CreateTensor(column, topts).status());
  }
  for (size_t i = 0; i < view.size(); ++i) {
    std::map<std::string, tsf::Sample> row;
    for (const auto& column : view.columns()) {
      DL_ASSIGN_OR_RETURN(tsf::Sample s, view.CellSample(i, column));
      // Computed string cells land as text; adapt dtype mismatches.
      auto tensor = out->GetTensor(column);
      if (tensor.ok() && s.dtype != (*tensor)->meta().dtype &&
          !s.shape.IsEmptySample()) {
        NdArray arr = NdArray::FromSample(s);
        s = arr.ToSample((*tensor)->meta().dtype);
      }
      row[column] = std::move(s);
    }
    DL_RETURN_IF_ERROR(out->Append(row));
  }
  DL_RETURN_IF_ERROR(out->Flush());
  out->LogProvenance("materialized from view of " +
                     std::to_string(view.size()) + " rows");
  return out;
}

}  // namespace dl::tql
