#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double proc_status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return -1;
}

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string name) : rec_(rec) {
  if (rec_ == nullptr) return;
  index_ = static_cast<int>(rec_->spans_.size());
  rec_->spans_.push_back(Span{std::move(name), now_s(), 0, rec_->open_});
  rec_->open_ = index_;
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  Span& s = rec_->spans_[static_cast<std::size_t>(index_)];
  s.end_s = now_s();
  rec_->open_ = s.parent;
}

double SpanRecorder::total_s(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.end_s - s.start_s;
  }
  return t;
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "index,name,start_s,end_s,parent\n";
  const double t0 = spans_.empty() ? 0 : spans_.front().start_s;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.name << ',' << json_number(s.start_s - t0) << ','
        << json_number(s.end_s - t0) << ',' << s.parent << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

void PassResult::add(std::vector<std::pair<std::string, double>>& v,
                     const std::string& key, double n) {
  for (auto& [k, x] : v) {
    if (k == key) {
      x += n;
      return;
    }
  }
  v.emplace_back(key, n);
}

void PassResult::merge(const PassResult& o) {
  attempted += o.attempted;
  failed += o.failed;
  if (error.empty()) error = o.error;
  msgs += o.msgs;
  for (const auto& [k, n] : o.work) add_work(k, n);
  for (const auto& [k, n] : o.counts) add_count(k, n);
}

PassResult run_pass(Workload& w, SpanRecorder* rec, int max_steps,
                    double budget_s, int* steps_run, bool end) {
  PassResult r;
  const int n = max_steps < 0 ? w.steps() : std::min(max_steps, w.steps());
  const double t0 = now_s();
  int i = 0;
  while (i < n && (i == 0 || budget_s < 0 || now_s() - t0 < budget_s)) {
    w.step(i++, r, rec);
  }
  if (end) w.end_pass();
  if (steps_run != nullptr) *steps_run = i;
  return r;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void JsonLine::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(k) + ": ";
}

void JsonLine::num(const std::string& k, double v) {
  key(k);
  body_ += json_number(v);
}

void JsonLine::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += json_string(v);
}

void JsonLine::nums(const std::string& k, const std::vector<double>& v) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += json_number(v[i]);
  }
  body_ += "]";
}

void JsonLine::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
}

}  // namespace perfbench
