#include "util/log.hpp"

#include <cstdio>

namespace mrl {

namespace {
const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DBG";
    case LogLevel::kInfo: return "INF";
    case LogLevel::kWarn: return "WRN";
    case LogLevel::kError: return "ERR";
    case LogLevel::kOff: return "OFF";
  }
  return "???";
}
}  // namespace

namespace detail {

void vlog(LogLevel level, const char* fmt, std::va_list args) {
  if (level < kLogLevel) return;
  std::fprintf(stderr, "[msgroof %s] ", level_tag(level));
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
}

void log(LogLevel level, const char* fmt, ...) {
  if (level < kLogLevel) return;
  std::va_list args;
  va_start(args, fmt);
  vlog(level, fmt, args);
  va_end(args);
}

}  // namespace detail

}  // namespace mrl
