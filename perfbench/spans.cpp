#include "spans.hpp"

#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace perfbench {

int Tracer::open(std::string name) {
  const int id = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), seconds_since(t0_), 0.0, parent, unit_});
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("perfbench: spans closed out of order");
  spans_[static_cast<std::size_t>(id)].end = seconds_since(t0_);
  open_.pop_back();
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find(':'));
    self[layer] += (s.end - s.start) - child_time[i];
  }
  return self;
}

void Tracer::write_json(std::ostream& os) const {
  const auto flags = os.flags();
  os << "{\"spans\": [\n" << std::setprecision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are benchmark-chosen identifiers; none holds a quote
    // or a backslash, so they are written verbatim.
    os << "  {\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"start\": " << s.start << ", \"end\": " << s.end
       << ", \"parent\": " << s.parent << ", \"unit\": " << s.unit << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  os.flags(flags);
}

}  // namespace perfbench
