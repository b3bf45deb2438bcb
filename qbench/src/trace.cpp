#include "trace.h"

#include <cstdio>

namespace qbench {

std::uint32_t Tracer::name(const std::string& n) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == n) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(n);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t Tracer::open(std::uint32_t name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, current_, now_ns(), 0});
  current_ = id;
  return id;
}

void Tracer::close(std::int32_t id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  current_ = s.parent;
}

double Tracer::seconds(std::int32_t id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<Totals> by_name(names_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    Totals& t = by_name[s.name];
    ++t.count;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < names_.size(); ++i) out[names_[i]] = by_name[i];
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("id\tparent\tname\tstart_ns\tend_ns\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%s\t%lld\t%lld\n", i, s.parent,
                 names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace qbench
