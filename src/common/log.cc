#include "src/common/log.h"

#include <cstdio>

namespace erebor {

namespace {
LogLevel g_level = LogLevel::kWarning;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "T";
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kNone:
      return "?";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() { return g_level; }

namespace log_internal {

void Emit(LogLevel level, const char* file, int line, const std::string& message) {
  // Strip directories from the file for readability.
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelTag(level), base, line, message.c_str());
}

}  // namespace log_internal
}  // namespace erebor
