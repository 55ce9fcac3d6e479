#include "simnet/trace.hpp"

#include "util/units.hpp"

namespace mrl::simnet {

std::string to_string(OpKind k) {
  switch (k) {
    case OpKind::kSend: return "send";
    case OpKind::kPut: return "put";
    case OpKind::kPutSignal: return "put_signal";
    case OpKind::kSignal: return "signal";
    case OpKind::kAtomic: return "atomic";
    case OpKind::kCollective: return "collective";
  }
  return "unknown";
}

void Trace::clear() {
  records_.clear();
  all_ = {};
  by_kind_ = {};
}

TraceSummary Trace::Fold::finish() const {
  TraceSummary out = s;
  if (out.num_msgs == 0) return out;
  out.avg_msg_bytes = out.total_bytes / static_cast<double>(out.num_msgs);
  out.avg_msgs_per_sync = static_cast<double>(out.num_msgs) /
                          static_cast<double>(out.num_epochs);
  out.avg_latency_us = lat_sum / static_cast<double>(out.num_msgs);
  out.span_us = last_arrival - first_issue;
  out.sustained_gbs =
      out.span_us > 0 ? bytes_per_us_to_gbs(out.total_bytes, out.span_us)
                      : 0.0;
  return out;
}

}  // namespace mrl::simnet
