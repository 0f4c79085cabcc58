// Minimal leveled logger. The simulation is deterministic and single-threaded, so the
// logger is intentionally simple: a global level and an optional sink override.
#ifndef EREBOR_SRC_COMMON_LOG_H_
#define EREBOR_SRC_COMMON_LOG_H_

#include <sstream>
#include <string>

namespace erebor {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarning = 3,
  kError = 4,
  kNone = 5,
};

// Global minimum level; messages below it are discarded. Fixed at kWarning so tests
// and benches stay quiet unless a failure is being diagnosed.
LogLevel GetLogLevel();

namespace log_internal {

void Emit(LogLevel level, const char* file, int line, const std::string& message);

class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line) : level_(level), file_(file), line_(line) {}
  ~LogLine() { Emit(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace log_internal
}  // namespace erebor

#define EREBOR_LOG(level)                                             \
  if (::erebor::GetLogLevel() <= ::erebor::LogLevel::level)           \
  ::erebor::log_internal::LogLine(::erebor::LogLevel::level, __FILE__, __LINE__)

#define LOG_TRACE() EREBOR_LOG(kTrace)
#define LOG_DEBUG() EREBOR_LOG(kDebug)
#define LOG_INFO() EREBOR_LOG(kInfo)
#define LOG_WARN() EREBOR_LOG(kWarning)
#define LOG_ERROR() EREBOR_LOG(kError)

#endif  // EREBOR_SRC_COMMON_LOG_H_
