#include "obs/probe.h"

#include "obs/json.h"

namespace hipec::obs {

sim::NameTable& ProbeNames() {
  static sim::NameTable* table = new sim::NameTable();
  return *table;
}

std::map<std::string, const Histogram*> ProbeSet::all() const {
  std::map<std::string, const Histogram*> out;
  const sim::NameTable& names = ProbeNames();
  for (ProbeId id = 0; id < hists_.size(); ++id) {
    if (hists_[id].count() > 0) {
      out.emplace(names.NameOf(id), &hists_[id]);
    }
  }
  return out;
}

void ProbeSet::AppendJson(std::string* out) const {
  *out += '{';
  bool first = true;
  for (const auto& [name, hist] : all()) {
    if (!first) {
      *out += ',';
    }
    first = false;
    *out += '"';
    AppendJsonEscaped(out, name);
    *out += "\":";
    hist->AppendJson(out);
  }
  *out += '}';
}

void ProbeSet::Grow(ProbeId id) {
  size_t want = ProbeNames().size();
  hists_.resize(want > id ? want : id + 1);
}

}  // namespace hipec::obs
