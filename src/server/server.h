// ServeServer: the TCP transport wrapped around SelectionService.
//
// Loopback-only by design (the service has no authentication; tenancy is a quota
// boundary, not a security boundary — front it with a real proxy for anything
// else). One OS thread per connection does the blocking frame I/O and handles each
// request itself, so SelectionService's `max_inflight` is the only bound on
// concurrent selections (excess is refused, never queued) and a `health` or
// `metrics` request never waits behind a selection. A selection's scoring fans out
// on the process-wide GlobalThreadPool() (src/util/thread_pool.h).
//
// Port 0 binds an ephemeral port (the bound port is readable via port(), and
// espresso_serve can write it to a file for harnesses to discover).
#ifndef SRC_SERVER_SERVER_H_
#define SRC_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/server/frame.h"
#include "src/server/service.h"

namespace espresso::server {

struct ServerOptions {
  uint16_t port = 0;  // 0 = ephemeral
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class ServeServer {
 public:
  // `service` must outlive the server.
  ServeServer(SelectionService* service, ServerOptions options);
  ~ServeServer();  // calls Stop()

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  // Binds 127.0.0.1:<port>, starts listening and accepting. Returns false with
  // *error set on failure (port in use, out of fds).
  bool Start(std::string* error);

  // Shuts the listener and every open connection down and joins all threads.
  // Idempotent; safe to call from a signal-driven main loop.
  void Stop();

  // The bound port (meaningful after Start() succeeds).
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(); }

 private:
  // Takes the listener by value: Stop() resets listen_fd_ while the loop may still be
  // blocked in accept().
  void AcceptLoop(int listen_fd);
  void ServeConnection(int fd);

  SelectionService* const service_;
  const ServerOptions options_;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  // Connection threads run detached so a long-lived daemon never accumulates
  // finished-but-unjoined handles; Stop() instead waits on active_connections_
  // dropping to zero (each thread's last act is the decrement + notify).
  std::mutex mu_;
  std::condition_variable conn_cv_;
  size_t active_connections_ = 0;
  std::vector<int> open_fds_;  // shut down on Stop() to unblock reads
};

}  // namespace espresso::server

#endif  // SRC_SERVER_SERVER_H_
