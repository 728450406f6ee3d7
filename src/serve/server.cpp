#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "serve/protocol.hpp"
#include "support/deadline.hpp"

namespace speckle::serve {
namespace {

std::uint32_t decode_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Best-effort request id for error responses on requests we could not
/// dispatch (the client can still correlate the failure).
std::uint32_t peek_request_id(std::span<const std::uint8_t> payload) {
  if (payload.size() < kPayloadHeaderBytes) return 0;
  return decode_u32le(payload.data() + 1);
}

bool write_frame(ByteStream& stream, std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> frame = make_frame(payload);
  return stream.write_all(frame.data(), frame.size());
}

}  // namespace

// ---------------------------------------------------------------------------
// Transports

ReadStatus FdStream::read_exact(std::uint8_t* buf, std::size_t count) {
  std::size_t got = 0;
  while (got < count) {
    if (wake_fd_ >= 0) {
      // Block until data or shutdown. Data that is already in flight wins,
      // so a pipelined request ahead of the signal still gets served.
      struct pollfd fds[2];
      fds[0] = {read_fd_, POLLIN, 0};
      fds[1] = {wake_fd_, POLLIN, 0};
      const int ready = ::poll(fds, 2, -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return ReadStatus::kTruncated;  // transport error, not a clean close
      }
      if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        // Only the wake fd fired: shut down. Mid-frame this is a truncation
        // (the peer will never get the rest served anyway).
        return got == 0 ? ReadStatus::kEof : ReadStatus::kTruncated;
      }
    }
    const ssize_t r = ::read(read_fd_, buf + got, count - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kTruncated;  // transport error, not a clean close
    }
    if (r == 0) {
      return got == 0 ? ReadStatus::kEof : ReadStatus::kTruncated;
    }
    got += static_cast<std::size_t>(r);
  }
  return ReadStatus::kOk;
}

bool FdStream::write_all(const std::uint8_t* buf, std::size_t count) {
  std::size_t sent = 0;
  while (sent < count) {
    const ssize_t w = ::write(write_fd_, buf + sent, count - sent);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

ReadStatus MemoryStream::read_exact(std::uint8_t* buf, std::size_t count) {
  const std::size_t available = input_.size() - pos_;
  if (available == 0 && count > 0) return ReadStatus::kEof;
  if (available < count) {
    pos_ = input_.size();
    return ReadStatus::kTruncated;
  }
  std::memcpy(buf, input_.data() + pos_, count);
  pos_ += count;
  return ReadStatus::kOk;
}

bool MemoryStream::write_all(const std::uint8_t* buf, std::size_t count) {
  output_.insert(output_.end(), buf, buf + count);
  return true;
}

// ---------------------------------------------------------------------------
// Frame loop

std::uint64_t Server::serve_stream(ByteStream& stream) {
  Session session(registry_, opts_.session);
  std::uint64_t served = 0;

  for (;;) {
    std::uint8_t prefix[kFramePrefixBytes];
    const ReadStatus ps = stream.read_exact(prefix, sizeof(prefix));
    if (ps == ReadStatus::kEof) break;
    if (ps == ReadStatus::kTruncated) {
      write_frame(stream,
                  make_error(Status::kBadFrame, 0, "truncated frame prefix"));
      break;
    }
    const std::uint32_t length = decode_u32le(prefix);
    if (length > kMaxFrameBytes) {
      // A lying prefix is unrecoverable: the stream cannot be resynced.
      write_frame(stream, make_error(Status::kBadFrame, 0,
                                     "length prefix exceeds frame cap"));
      break;
    }
    std::vector<std::uint8_t> payload(length);
    if (length > 0 &&
        stream.read_exact(payload.data(), length) != ReadStatus::kOk) {
      write_frame(stream,
                  make_error(Status::kBadFrame, 0, "truncated frame payload"));
      break;
    }

    if (shutting_down()) {
      write_frame(stream, make_error(Status::kShuttingDown,
                                     peek_request_id(payload),
                                     "server is draining"));
      break;
    }

    const support::ScopedDeadline deadline(
        std::chrono::milliseconds(opts_.timeout_ms));
    const std::vector<std::uint8_t> response = session.handle(payload);
    ++served;
    if (!write_frame(stream, response)) break;
  }
  return served;
}

// ---------------------------------------------------------------------------
// Signals

namespace {
// Written by the signal handler (async-signal-safe), read by pollers.
std::atomic<int> g_shutdown_pipe_wr{-1};
std::atomic<Server*> g_signal_server{nullptr};

/// Flag the server and make the never-drained self-pipe readable so every
/// blocked poller — idle connection reads included — wakes and drains.
/// Async-signal-safe: the signal handler is a call of it.
void trigger_shutdown(Server* server) {
  if (server != nullptr) server->request_shutdown();
  const int fd = g_shutdown_pipe_wr.load(std::memory_order_acquire);
  if (fd >= 0) {
    const char byte = 1;
    // The pipe is never drained; one byte keeps every poller awake forever.
    [[maybe_unused]] ssize_t ignored = ::write(fd, &byte, 1);
  }
}

void on_shutdown_signal(int /*signo*/) {
  trigger_shutdown(g_signal_server.load(std::memory_order_acquire));
}
}  // namespace

int install_shutdown_signals(Server& server) {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
  g_signal_server.store(&server, std::memory_order_release);
  g_shutdown_pipe_wr.store(fds[1], std::memory_order_release);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_shutdown_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill the server
  return fds[0];
}

// ---------------------------------------------------------------------------
// Transports: stdio and listeners

int run_stdio(Server& server, int wake_fd) {
  FdStream stream(STDIN_FILENO, STDOUT_FILENO, wake_fd);
  server.serve_stream(stream);
  return 0;
}

namespace {

/// Fixed worker pool draining accepted connection fds from a queue.
class ConnectionPool {
 public:
  ConnectionPool(Server& server, int wake_fd, std::uint32_t threads)
      : server_(server), wake_fd_(wake_fd) {
    for (std::uint32_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker(); });
    }
  }

  void submit(int fd) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(fd);
    }
    cv_.notify_one();
  }

  /// Signal end-of-accepting and join. In-flight connections drain first.
  void drain() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

 private:
  void worker() {
    for (;;) {
      int fd = -1;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;  // done_ and nothing left
        fd = queue_.front();
        queue_.pop_front();
      }
      FdStream stream(fd, fd, wake_fd_);
      server_.serve_stream(stream);
      ::close(fd);
    }
  }

  Server& server_;
  int wake_fd_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<int> queue_;
  bool done_ = false;
};

int accept_loop(Server& server, int listen_fd, int wake_fd) {
  ConnectionPool pool(server, wake_fd,
                      std::max(1U, server.options().accept_threads));
  for (;;) {
    struct pollfd fds[2];
    fds[0] = {listen_fd, POLLIN, 0};
    fds[1] = {wake_fd, POLLIN, 0};
    const int nfds = wake_fd >= 0 ? 2 : 1;
    const int ready = ::poll(fds, static_cast<nfds_t>(nfds), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      // A fatal poll error is a shutdown: wake workers blocked in reads on
      // idle connections, or the pool.drain() below would join forever.
      trigger_shutdown(&server);
      break;
    }
    if (nfds == 2 && (fds[1].revents & POLLIN) != 0) break;  // shutdown
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;
    pool.submit(conn);
  }
  ::close(listen_fd);
  pool.drain();
  return 0;
}

/// Bind a stream socket to `addr`, listen, and serve it until shutdown.
/// Returns 1 when the socket cannot be set up.
int listen_and_serve(Server& server, const struct sockaddr* addr,
                     socklen_t len, int wake_fd) {
  const int fd = ::socket(addr->sa_family, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("speckle_serve: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, addr, len) != 0 || ::listen(fd, 64) != 0) {
    std::perror("speckle_serve: bind/listen");
    ::close(fd);
    return 1;
  }
  return accept_loop(server, fd, wake_fd);
}

}  // namespace

int run_unix(Server& server, const std::string& path, int wake_fd) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "speckle_serve: socket path too long: %s\n",
                 path.c_str());
    return 1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  struct stat st;
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      // Never delete a random file that happens to sit at --unix.
      std::fprintf(stderr,
                   "speckle_serve: refusing to replace non-socket file: %s\n",
                   path.c_str());
      return 1;
    }
    ::unlink(path.c_str());
  }
  const int rc = listen_and_serve(
      server, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr), wake_fd);
  if (rc == 0) ::unlink(path.c_str());  // only a socket this call bound
  return rc;
}

int run_tcp(Server& server, std::uint16_t port, int wake_fd) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return listen_and_serve(server, reinterpret_cast<struct sockaddr*>(&addr),
                          sizeof(addr), wake_fd);
}

}  // namespace speckle::serve
