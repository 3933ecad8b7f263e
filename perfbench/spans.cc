#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

SpanBuffer::SpanBuffer(size_t capacity) : slots_(capacity) {}

uint32_t SpanBuffer::Name(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<uint32_t>(i);
    }
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t SpanBuffer::Add(uint32_t name, uint32_t parent, uint64_t request, int64_t start_ns,
                         int64_t end_ns) {
  size_t index = next_.fetch_add(1, std::memory_order_relaxed);
  if (index >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return kNoSpan;
  }
  slots_[index] = Span{name, parent, request, start_ns, end_ns};
  return static_cast<uint32_t>(index);
}

std::vector<Span> SpanBuffer::spans() const {
  size_t n = std::min(next_.load(std::memory_order_acquire), slots_.size());
  return std::vector<Span>(slots_.begin(), slots_.begin() + static_cast<ptrdiff_t>(n));
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent != kNoSpan && span.parent < spans.size()) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;  // everything before cursor is already counted
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = std::max<int64_t>(0, hi - lo - covered);
  }
  return self;
}

bool SpanBuffer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::vector<Span> all = spans();
  const std::vector<int64_t> self = SelfTimes(all);
  std::vector<int64_t> self_by_name(names_.size(), 0);
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].name < self_by_name.size()) {
      self_by_name[all[i].name] += self[i];
    }
  }
  std::fprintf(f, "{\"names\": [");
  for (size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", names_[i].c_str());
  }
  std::fprintf(f, "],\n \"dropped\": %llu,\n \"self_ns\": {",
               static_cast<unsigned long long>(dropped()));
  for (size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %lld", i == 0 ? "" : ", ", names_[i].c_str(),
                 static_cast<long long>(self_by_name[i]));
  }
  std::fprintf(f, "},\n \"spans\": [");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f, "%s\n  [%u, %lld, %llu, %lld, %lld]", i == 0 ? "" : ",", s.name,
                 s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
