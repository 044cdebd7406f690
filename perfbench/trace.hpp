// The benchmark's own span recorder. Spans are recorded from the benchmark
// around calls into each layer's public functions (never inside the
// program), kept in memory while the run lasts and written out as a Chrome
// trace when it ends. A span has a name, start and end, the span that
// caused it (the innermost open span on the same thread) and a request id
// shared by every span of one device or lot.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root.
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& instance() {
    static Tracer tracer;
    return tracer;
  }

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  std::uint32_t open(const char* name, std::uint64_t request) {
    std::vector<std::uint32_t>& stack = open_stack();
    SpanRecord r;
    r.name = name;
    r.parent = stack.empty() ? 0 : stack.back();
    r.request = request;
    r.thread = thread_index();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      r.id = static_cast<std::uint32_t>(records_.size() + 1);
      records_.push_back(r);
    }
    stack.push_back(r.id);
    // Start last, so the bookkeeping above is outside the span.
    const std::uint64_t start = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    records_[r.id - 1].start_ns = start;
    return r.id;
  }

  void close(std::uint32_t id) {
    const std::uint64_t end = now_ns();
    open_stack().pop_back();
    const std::lock_guard<std::mutex> lock(mutex_);
    records_[id - 1].end_ns = end;
  }

  /// Durations (microseconds) of every completed span called `name`.
  std::vector<double> durations_us(const std::string& name) const {
    std::vector<double> out;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const SpanRecord& r : records_)
      if (name == r.name && r.end_ns >= r.start_ns)
        out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    return out;
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
  }

  /// Write every span as a Chrome trace ("X" events, microseconds).
  bool write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const SpanRecord& r = records_[i];
      out << "{\"name\":\"" << r.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << r.thread << ",\"ts\":"
          << static_cast<double>(r.start_ns - std::min(t0, r.start_ns)) / 1e3
          << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
          << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
          << ",\"request\":" << r.request << "}}"
          << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  static std::vector<std::uint32_t>& open_stack() {
    thread_local std::vector<std::uint32_t> stack;
    return stack;
  }
  std::uint32_t thread_index() {
    thread_local std::uint32_t index = next_thread_.fetch_add(1);
    return index;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_thread_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
};

/// RAII span; records nothing while the tracer is off.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0)
      : id_(Tracer::instance().enabled()
                ? Tracer::instance().open(name, request)
                : 0) {}
  ~Span() {
    if (id_ != 0) Tracer::instance().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_;
};

}  // namespace perfbench
