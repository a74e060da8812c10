#include "trace.h"

#include <fstream>

namespace perfbench {

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

Tracer::Scope::Scope(std::string_view name) {
  Tracer& t = Tracer::get();
  if (!t.enabled_) return;
  SpanRecord rec;
  rec.name = std::string(name);
  rec.parent = t.open_.empty() ? -1 : t.open_.back();
  index_ = static_cast<int>(t.spans_.size());
  rec.root = rec.parent < 0 ? index_ : t.spans_[rec.parent].root;
  rec.start_s = t.now_s();
  t.spans_.push_back(std::move(rec));
  t.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Tracer& t = Tracer::get();
  t.spans_[index_].end_s = t.now_s();
  t.open_.pop_back();
}

std::map<std::string, std::vector<double>> Tracer::self_seconds_by_name()
    const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child_s[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out[s.name].push_back(s.end_s - s.start_s - child_s[i]);
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
        << ",\"parent\":" << s.parent << ",\"root\":" << s.root << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
