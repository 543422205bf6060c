#include "src/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "src/util/json_writer.h"

namespace espresso::server {

namespace {

// Transport-level refusal for frames the service never sees (oversized, so the
// stream is desynchronised and the connection must close after this reply).
std::string FrameErrorResponse(const char* code, const std::string& message) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.BeginObject();
    json.Field("ok", false);
    json.Field("type", "error");
    json.Key("error");
    json.BeginObject();
    json.Field("code", code);
    json.Field("message", message);
    json.EndObject();
    json.EndObject();
  }
  return out.str();
}

}  // namespace

ServeServer::ServeServer(SelectionService* service, ServerOptions options)
    : service_(service), options_(options) {}

ServeServer::~ServeServer() { Stop(); }

bool ServeServer::Start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) {
      *error = "bind 127.0.0.1:" + std::to_string(options_.port) + ": " +
               std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) < 0) {
    if (error != nullptr) {
      *error = std::string("listen: ") + std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  running_.store(true);
  accept_thread_ = std::thread([this, listen_fd = listen_fd_] { AcceptLoop(listen_fd); });
  return true;
}

void ServeServer::Stop() {
  if (!running_.exchange(false)) {
    // Never started, or already stopped — but the join/drain below is still
    // needed when Stop() runs again via the destructor, which is serialized.
    if (!accept_thread_.joinable()) {
      return;
    }
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // Unblock connection threads stuck in read(), then wait for every detached
  // connection thread to finish (each one's final act is the decrement+notify).
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (int fd : open_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
    conn_cv_.wait(lock, [this] { return active_connections_ == 0; });
  }
}

void ServeServer::AcceptLoop(int listen_fd) {
  while (running_.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      // Listener closed by Stop(), or a transient accept failure while shutting
      // down — either way the loop is done once running_ drops.
      if (!running_.load()) {
        break;
      }
      // Persistent failures (EMFILE under fd exhaustion, ENOBUFS) would
      // otherwise spin this thread at 100% CPU — back off before retrying.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    open_fds_.push_back(fd);
    ++active_connections_;
    std::thread([this, fd] { ServeConnection(fd); }).detach();
  }
}

void ServeServer::ServeConnection(int fd) {
  while (running_.load()) {
    FrameResult request = ReadFrame(fd, options_.max_frame_bytes);
    if (request.status == FrameStatus::kTooLarge) {
      // Refused before the body was read: the stream is desynchronised, so reply
      // with a typed error and close.
      WriteFrame(fd, FrameErrorResponse("payload-too-large", request.error));
      break;
    }
    if (!request.ok()) {
      break;  // clean close, torn frame, or I/O error — nothing to reply to
    }
    if (!WriteFrame(fd, service_->HandleRequest(request.payload))) {
      break;
    }
  }
  // Deregister BEFORE closing: once the fd number is closed the kernel may hand
  // it to a new accept, and Stop() must never shut down a stranger's fd.
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_fds_.erase(std::remove(open_fds_.begin(), open_fds_.end(), fd),
                    open_fds_.end());
  }
  ::close(fd);
  // Last act of the detached thread: nothing may touch `this` after the notify
  // releases mu_, because Stop() (and then ~ServeServer) is free to proceed the
  // moment the count hits zero. Notifying under the lock keeps that ordering.
  {
    std::lock_guard<std::mutex> lock(mu_);
    --active_connections_;
    if (active_connections_ == 0) {
      conn_cv_.notify_all();
    }
  }
}

}  // namespace espresso::server
