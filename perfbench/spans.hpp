// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the program's public functions: each span has a name, a start, an end
// and the span that was open when it started (its parent).  Nothing is
// written until the run ends; write_json() then dumps every span.  A
// layer's self time is its spans' durations minus their children's.  A null
// SpanRecorder* makes every Scope a no-op, so untraced runs pay one branch
// per scope.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    double start_s = 0;        ///< seconds since the recorder was built
    double end_s = 0;
  };

  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name) : rec_(rec) {
      if (rec_ != nullptr) index_ = rec_->open(std::move(name));
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// End the span before the scope does.
    void close() {
      if (rec_ == nullptr) return;
      rec_->close(index_);
      rec_ = nullptr;
    }

   private:
    SpanRecorder* rec_ = nullptr;
    std::size_t index_ = 0;
  };

  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {
    spans_.reserve(1 << 14);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// One JSON document: {"spans": [{"id","parent","name","start_s","end_s"}]}.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"spans\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                   "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                   s.id, s.parent, s.name.c_str(), s.start_s, s.end_s,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::size_t open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.start_s = now();
    stack_.push_back(s.id);
    spans_.push_back(std::move(s));
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    Span& s = spans_[index];
    s.end_s = now();
    if (!stack_.empty() && stack_.back() == s.id) stack_.pop_back();
  }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

}  // namespace perfbench
