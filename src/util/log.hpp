// Tiny leveled logger. Intentionally printf-style: bench binaries and the
// simulator emit a handful of diagnostics; no dependency, no allocation on
// the disabled path.
#pragma once

#include <cstdarg>

namespace mrl {

enum class LogLevel { kDebug = 0, kInfo, kWarn, kError, kOff };

/// The fixed threshold; messages below it are dropped.
inline constexpr LogLevel kLogLevel = LogLevel::kWarn;

namespace detail {
void vlog(LogLevel level, const char* fmt, std::va_list args);
void log(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
}  // namespace detail

}  // namespace mrl

#define MRL_LOG_DEBUG(...) ::mrl::detail::log(::mrl::LogLevel::kDebug, __VA_ARGS__)
#define MRL_LOG_INFO(...) ::mrl::detail::log(::mrl::LogLevel::kInfo, __VA_ARGS__)
#define MRL_LOG_WARN(...) ::mrl::detail::log(::mrl::LogLevel::kWarn, __VA_ARGS__)
#define MRL_LOG_ERROR(...) ::mrl::detail::log(::mrl::LogLevel::kError, __VA_ARGS__)
