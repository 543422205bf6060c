// espresso_serve: the strategy-selection service daemon (docs/SERVICE.md).
//
// Usage:
//   espresso_serve [--port=N] [--port-file=<path>]
//                  [--max-inflight=N] [--cache-capacity=N] [--max-cached-configs=N]
//                  [--default-quota=N] [--tenant-quota=<name>=<N>]...
//                  [--audit-log=<path>] [--audit-retention=N]
//                  [--max-frame-bytes=N]
//
// Binds 127.0.0.1 only. --port=0 (the default) picks an ephemeral port;
// --port-file writes the bound port as a decimal line so harnesses can discover
// it without racing the log output. Each connection's requests run on that
// connection's thread; at most --max-inflight selections run at once, and a
// request's `budget.threads` sets its fan-out width on the process-wide scoring
// pool. Runs until SIGINT/SIGTERM, then drains and exits 0. Exits 2 on flag
// errors, 1 when the listener cannot start.
#include <signal.h>

#include <csignal>
#include <cstdint>
#include <iostream>
#include <string>

#include "src/obs/audit_log.h"
#include "src/server/server.h"
#include "src/server/service.h"
#include "src/util/atomic_file.h"
#include "src/util/parse_number.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

// 16x ServiceConfig's default. Each warm config triple's EvaluationCache reserves its
// hash index for the whole capacity on first use, so the cap bounds what one select
// can commit.
constexpr uint64_t kMaxCacheCapacity = uint64_t{1} << 20;

void HandleSignal(int) { g_stop = 1; }

bool ParseFlagUint(const std::string& arg, const std::string& flag, uint64_t* out,
                   bool* matched) {
  const std::string prefix = flag + "=";
  if (arg.rfind(prefix, 0) != 0) {
    *matched = false;
    return true;
  }
  *matched = true;
  const std::string value = arg.substr(prefix.size());
  const espresso::NumberParse status = espresso::ParseUint64(value, out);
  if (status != espresso::NumberParse::kOk) {
    std::cerr << "error: " << flag << " value '" << value << "' "
              << espresso::NumberParseMessage(status) << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace espresso;

  // Belt and braces alongside MSG_NOSIGNAL in the frame writer: a client that
  // resets its connection must never kill the multi-tenant daemon with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  server::ServiceConfig service_config;
  server::ServerOptions server_options;
  std::string port_file;
  std::string audit_path;
  uint64_t audit_retention = obs::kDefaultAuditRetention;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool matched = false;
    uint64_t value = 0;
    if (!ParseFlagUint(arg, "--port", &value, &matched)) return 2;
    if (matched) {
      if (value > 65535) {
        std::cerr << "error: --port value " << value << " is not a TCP port\n";
        return 2;
      }
      server_options.port = static_cast<uint16_t>(value);
      continue;
    }
    if (arg.rfind("--port-file=", 0) == 0) {
      port_file = arg.substr(12);
      continue;
    }
    if (!ParseFlagUint(arg, "--max-inflight", &value, &matched)) return 2;
    if (matched) {
      if (value == 0) {
        std::cerr << "error: --max-inflight must be at least 1\n";
        return 2;
      }
      service_config.max_inflight = static_cast<size_t>(value);
      continue;
    }
    if (!ParseFlagUint(arg, "--cache-capacity", &value, &matched)) return 2;
    if (matched) {
      if (value == 0 || value > kMaxCacheCapacity) {
        std::cerr << "error: --cache-capacity must be in [1, " << kMaxCacheCapacity
                  << "]\n";
        return 2;
      }
      service_config.cache_capacity = static_cast<size_t>(value);
      continue;
    }
    if (!ParseFlagUint(arg, "--max-cached-configs", &value, &matched)) return 2;
    if (matched) {
      if (value == 0) {
        std::cerr << "error: --max-cached-configs must be at least 1\n";
        return 2;
      }
      service_config.max_cached_configs = static_cast<size_t>(value);
      continue;
    }
    if (!ParseFlagUint(arg, "--default-quota", &value, &matched)) return 2;
    if (matched) {
      service_config.default_quota = value;
      continue;
    }
    if (arg.rfind("--tenant-quota=", 0) == 0) {
      const std::string spec = arg.substr(15);
      const size_t eq = spec.rfind('=');
      uint64_t quota = 0;
      if (eq == std::string::npos || eq == 0 ||
          ParseUint64(spec.substr(eq + 1), &quota) != NumberParse::kOk) {
        std::cerr << "error: --tenant-quota expects <name>=<evaluations>, got '"
                  << spec << "'\n";
        return 2;
      }
      service_config.tenant_quotas[spec.substr(0, eq)] = quota;
      continue;
    }
    if (arg.rfind("--audit-log=", 0) == 0) {
      audit_path = arg.substr(12);
      continue;
    }
    if (!ParseFlagUint(arg, "--audit-retention", &value, &matched)) return 2;
    if (matched) {
      audit_retention = value;
      continue;
    }
    if (!ParseFlagUint(arg, "--max-frame-bytes", &value, &matched)) return 2;
    if (matched) {
      server_options.max_frame_bytes = static_cast<size_t>(value);
      service_config.max_request_bytes = static_cast<size_t>(value);
      continue;
    }
    std::cerr << "error: unknown flag " << arg << "\n"
              << "usage: " << argv[0]
              << " [--port=N] [--port-file=<path>] [--max-inflight=N]"
              << " [--cache-capacity=N] [--max-cached-configs=N] [--default-quota=N]"
              << " [--tenant-quota=<name>=<N>]... [--audit-log=<path>]"
              << " [--audit-retention=N] [--max-frame-bytes=N]\n";
    return 2;
  }

  obs::AuditLog audit(static_cast<size_t>(audit_retention));
  if (!audit_path.empty()) {
    std::string error;
    if (!audit.Open(audit_path, &error)) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
  }

  server::SelectionService service(service_config, &audit);
  server::ServeServer server(&service, server_options);
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  if (!port_file.empty()) {
    if (!WriteFileAtomic(port_file, std::to_string(server.port()) + "\n", &error)) {
      std::cerr << "error: " << error << "\n";
      server.Stop();
      return 1;
    }
  }
  std::cout << "espresso_serve listening on 127.0.0.1:" << server.port()
            << " (max-inflight=" << service_config.max_inflight
            << ", cache-capacity=" << service_config.cache_capacity
            << (audit_path.empty() ? "" : ", audit=" + audit_path) << ")\n"
            << std::flush;

  // Block the shutdown signals BEFORE the g_stop check: a signal delivered
  // between the test and the wait stays pending instead of being consumed, and
  // sigsuspend atomically unblocks it while waiting — no missed-wakeup window.
  sigset_t shutdown_set;
  sigemptyset(&shutdown_set);
  sigaddset(&shutdown_set, SIGINT);
  sigaddset(&shutdown_set, SIGTERM);
  sigset_t wait_mask;
  ::sigprocmask(SIG_BLOCK, &shutdown_set, &wait_mask);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // Wait with the pre-block mask minus the shutdown signals, in case the parent
  // launched us with either already blocked.
  sigdelset(&wait_mask, SIGINT);
  sigdelset(&wait_mask, SIGTERM);
  while (g_stop == 0) {
    sigsuspend(&wait_mask);
  }
  ::sigprocmask(SIG_SETMASK, &wait_mask, nullptr);
  server.Stop();

  const server::ServiceStats stats = service.stats();
  std::cout << "espresso_serve drained: " << stats.requests << " requests, "
            << stats.served << " served, " << stats.rejected << " rejected"
            << (audit.write_failed()
                    ? " [AUDIT DEGRADED: " + audit.last_write_error() + "]"
                    : "")
            << "\n";
  return 0;
}
