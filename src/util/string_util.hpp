#ifndef WDE_UTIL_STRING_UTIL_HPP_
#define WDE_UTIL_STRING_UTIL_HPP_

#include <cstddef>
#include <string>

namespace wde {

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Reads an integer environment variable, returning `fallback` when the
/// variable is unset or unparsable. Used for bench knobs (e.g. WDE_REPS).
long EnvInt(const char* name, long fallback);

// Command-line flag helpers shared by the bench and example drivers
// (perf_snapshot, perf_queries, snapshot_merge_demo): scan argv for
// "--name=value" / bare "--name"; the first occurrence wins.

/// Value of "--name=value", or `fallback` when the flag is absent.
std::string ArgString(int argc, char** argv, const char* name,
                      const std::string& fallback);

/// "--name=123" parsed as an unsigned size, or `fallback` when absent.
size_t ArgSize(int argc, char** argv, const char* name, size_t fallback);

/// True when bare "--name" is present.
bool ArgBool(int argc, char** argv, const char* name);

}  // namespace wde

#endif  // WDE_UTIL_STRING_UTIL_HPP_
