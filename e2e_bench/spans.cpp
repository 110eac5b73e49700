#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace e2e {

namespace {

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

int SpanRecorder::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start_s = seconds_between(origin_, Clock::now());
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanRecorder::close(int index) {
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("span closed out of order");
  }
  spans_[static_cast<std::size_t>(index)].end_s =
      seconds_between(origin_, Clock::now());
  stack_.pop_back();
}

void SpanRecorder::add(std::string name, Clock::time_point start,
                       Clock::time_point end) {
  Span span;
  span.name = std::move(name);
  span.start_s = seconds_between(origin_, start);
  span.end_s = seconds_between(origin_, end);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  spans_.push_back(std::move(span));
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_s[static_cast<std::size_t>(span.parent)] +=
          span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[layer_of(spans_[i].name)] +=
        spans_[i].end_s - spans_[i].start_s - child_s[i];
  }
  return self;
}

void SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "{\"fields\": [\"id\", \"name\", \"start_s\", \"end_s\", "
         "\"parent\", \"run\"],\n \"spans\": [\n";
  char line[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line, "[%zu,\"%s\",%.9f,%.9f,%d,%d]%s\n", i,
                  s.name.c_str(), s.start_s, s.end_s, s.parent, s.run,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace e2e
