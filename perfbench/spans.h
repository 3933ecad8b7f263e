// The traced run's span recorder: spans (name, start, end, parent, request id) land in a
// buffer allocated before timing starts, so recording never allocates; the buffer is written
// out as JSON when the run ends. Recording is lock-free across threads (one atomic slot
// claim per span). When the buffer is full further spans are counted as dropped.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr uint32_t kNoSpan = ~uint32_t{0};

struct Span {
  uint32_t name = 0;
  uint32_t parent = kNoSpan;
  uint64_t request = 0;  // shared by the spans of one request; 0 = none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity);
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  // Interns a span name. Call before timing starts (it may allocate).
  uint32_t Name(const std::string& name);

  // Records a finished span; returns its index (usable as a parent) or kNoSpan when full.
  uint32_t Add(uint32_t name, uint32_t parent, uint64_t request, int64_t start_ns,
               int64_t end_ns);
  // Opens a span whose end is filled in later by End() from the same thread.
  uint32_t Begin(uint32_t name, uint32_t parent, uint64_t request, int64_t start_ns) {
    return Add(name, parent, request, start_ns, start_ns);
  }
  void End(uint32_t index, int64_t end_ns) {
    if (index != kNoSpan) {
      slots_[index].end_ns = end_ns;
    }
  }

  // Spans recorded so far (call after the recording threads have stopped).
  std::vector<Span> spans() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  const std::vector<std::string>& names() const { return names_; }

  // Writes {"names", "dropped", "spans": [[name, parent, request, start, end], ...],
  // "self_ns": {name: total self time}}. Returns false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> slots_;
  std::atomic<size_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
  std::vector<std::string> names_;
};

// Self time of each span: its duration minus the part of its interval that its children's
// spans cover (overlapping children are counted once; parts outside the parent are ignored).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
