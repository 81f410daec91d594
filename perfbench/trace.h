// Measurement helpers of the repository benchmark: an in-memory span
// recorder, an output digest and order statistics.
//
// Spans are recorded by the benchmark around the public calls it makes into
// each layer (name, start, end, parent span); nothing inside the library is
// instrumented. A span's self time is its duration minus the durations of
// its direct children, so a parent whose children cover it leaves ~0 self
// time: the "unattributed" share of a TTI span.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

using tsim::i32;
using tsim::u32;
using tsim::u64;
using tsim::u8;

/// Host seconds since an arbitrary fixed origin (steady clock).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name;  // string literal
    double start_s;
    double end_s;
    i32 parent;  // index of the enclosing span, -1 for a root span
  };
  /// Aggregate of every span with one name.
  struct Stat {
    u64 count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  // total minus the direct children's durations
    double mean_s() const { return count == 0 ? 0.0 : total_s / count; }
  };

  i32 open(const char* name) {
    const i32 id = static_cast<i32>(spans_.size());
    spans_.push_back(Span{name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  /// Closes the innermost open span `id`; `rename` (a literal) relabels it
  /// once its outcome is known (e.g. a skipped vs an executed TTI).
  void close(i32 id, const char* rename = nullptr) {
    spans_[id].end_s = now_s();
    if (rename != nullptr) spans_[id].name = rename;
    stack_.pop_back();
  }

  std::map<std::string, Stat> stats() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_s[s.parent] += s.end_s - s.start_s;
    std::map<std::string, Stat> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Stat& st = out[spans_[i].name];
      const double d = spans_[i].end_s - spans_[i].start_s;
      st.count += 1;
      st.total_s += d;
      st.self_s += d - child_s[i];
    }
    return out;
  }

  /// Writes every span as a JSON array of {name, start_us, end_us, parent}.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d}%s\n",
                   s.name, (s.start_s - t0) * 1e6, (s.end_s - t0) * 1e6, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<i32> stack_;
};

/// RAII span; a null tracer (untraced run) records nothing.
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t), id_(t ? t->open(name) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  i32 id_;
};

/// FNV-1a 64 over a canonical little-endian byte stream.
struct Digest {
  u64 h = 0xcbf29ce484222325ull;

  void bytes(const void* p, size_t n) {
    const u8* b = static_cast<const u8*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  }
  void u(u64 v) {
    u8 le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<u8>(v >> (8 * i));
    bytes(le, 8);
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    u(v.size());
    for (const T& x : v) u(static_cast<u64>(x));
  }
  void str(const std::string& s) {
    u(s.size());
    bytes(s.data(), s.size());
  }
};

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()) + 0.999999);
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }

}  // namespace perfbench
