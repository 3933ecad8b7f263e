// A process-wide name <-> dense id table. Interned counters (sim/stats.h) and probes
// (obs/probe.h) each own one instance, so counter arrays and probe vectors are sized by their
// own name counts. Thread-safe: interning is rare and cold. Ids are dense and stable for the
// process lifetime; names live in a deque so the references NameOf() hands out stay valid
// across later interning.
#ifndef HIPEC_SIM_NAME_TABLE_H_
#define HIPEC_SIM_NAME_TABLE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>

namespace hipec::sim {

class NameTable {
 public:
  static constexpr uint32_t kInvalid = ~uint32_t{0};

  // Returns the id for `name`, interning it on first sight. Idempotent: re-registering an
  // existing name returns the same id.
  uint32_t Intern(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = index_.try_emplace(name, static_cast<uint32_t>(names_.size()));
    if (inserted) {
      names_.push_back(name);
    }
    return it->second;
  }

  // Returns the id for `name` if it was ever interned, or kInvalid.
  uint32_t Find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(name);
    return it == index_.end() ? kInvalid : it->second;
  }

  const std::string& NameOf(uint32_t id) const {
    // The reference stays valid after unlock: names_ is a deque and entries are never erased.
    std::lock_guard<std::mutex> lock(mu_);
    return names_[id];
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return names_.size();
  }

 private:
  mutable std::mutex mu_;
  std::deque<std::string> names_;
  std::unordered_map<std::string, uint32_t> index_;
};

}  // namespace hipec::sim

#endif  // HIPEC_SIM_NAME_TABLE_H_
