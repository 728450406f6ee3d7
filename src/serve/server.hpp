#pragma once
/// \file server.hpp
/// The speckle_serve frame loop, transports, and worker pool.
///
/// A Server owns the shared GraphRegistry and the shutdown state; each
/// accepted connection gets its own Session and is served by one worker
/// (so requests on a connection are strictly FIFO — the determinism the
/// trace-replay golden depends on). Concurrency lives *across*
/// connections and *inside* the simulator (DeviceConfig::host_threads).
///
/// Transports are a minimal ByteStream interface with three
/// implementations: FdStream (sockets and stdin/stdout, with an optional
/// wake fd so a blocked read returns on shutdown), MemoryStream (in-process
/// tests — no kernel round trips), and whatever a test
/// wants to fake.
///
/// Graceful shutdown: SIGINT/SIGTERM write one byte to a self-pipe that is
/// never drained, so every poll()er — the accept loop and every idle
/// connection read — wakes exactly once and stays woken. In-flight
/// requests complete and their responses are written; only then do
/// connections close and the process exits 0.
///
/// Per-request timeout: each request runs inline on its connection thread
/// under a support::ScopedDeadline of timeout_ms. The work stops at the
/// next simulated launch or session commit past the deadline, and the
/// *request* fails with a kTimeout response — never the server.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/registry.hpp"
#include "serve/session.hpp"

namespace speckle::serve {

struct ServerOptions {
  SessionConfig session;
  std::uint32_t timeout_ms = 0;     ///< per-request deadline; 0 = none
  std::uint32_t accept_threads = 4; ///< worker pool size for listeners
};

/// Result of a blocking exact-length read.
enum class ReadStatus {
  kOk,         ///< all bytes delivered
  kEof,        ///< clean end-of-stream before the first byte
  kTruncated,  ///< transport error, or stream ended mid-read
};

class ByteStream {
 public:
  virtual ~ByteStream() = default;
  virtual ReadStatus read_exact(std::uint8_t* buf, std::size_t count) = 0;
  virtual bool write_all(const std::uint8_t* buf, std::size_t count) = 0;
};

/// File-descriptor transport. When `wake_fd` >= 0, a read blocked waiting
/// for the next frame also polls it and reports kEof once it becomes
/// readable (the shutdown self-pipe). Does not own the fds.
class FdStream : public ByteStream {
 public:
  FdStream(int read_fd, int write_fd, int wake_fd = -1)
      : read_fd_(read_fd), write_fd_(write_fd), wake_fd_(wake_fd) {}
  ReadStatus read_exact(std::uint8_t* buf, std::size_t count) override;
  bool write_all(const std::uint8_t* buf, std::size_t count) override;

 private:
  int read_fd_;
  int write_fd_;
  int wake_fd_;
};

/// In-memory transport: pre-fed input, captured output. Test/bench only.
class MemoryStream : public ByteStream {
 public:
  void feed(std::span<const std::uint8_t> bytes) {
    input_.insert(input_.end(), bytes.begin(), bytes.end());
  }
  ReadStatus read_exact(std::uint8_t* buf, std::size_t count) override;
  bool write_all(const std::uint8_t* buf, std::size_t count) override;
  const std::vector<std::uint8_t>& output() const { return output_; }

 private:
  std::vector<std::uint8_t> input_;
  std::size_t pos_ = 0;
  std::vector<std::uint8_t> output_;
};

class Server {
 public:
  explicit Server(ServerOptions opts) : opts_(std::move(opts)) {}

  /// Serve one connection until EOF, a fatal framing violation, or
  /// shutdown. Returns the number of requests answered.
  std::uint64_t serve_stream(ByteStream& stream);

  const ServerOptions& options() const { return opts_; }

  void request_shutdown() { shutdown_.store(true, std::memory_order_release); }
  bool shutting_down() const {
    return shutdown_.load(std::memory_order_acquire);
  }

 private:
  ServerOptions opts_;
  GraphRegistry registry_;
  std::atomic<bool> shutdown_{false};
};

/// Install SIGINT/SIGTERM handlers that write the self-pipe and flag
/// `server` for shutdown. Returns the pipe's read end — pass it to every
/// FdStream as `wake_fd`. The pipe is intentionally never drained.
int install_shutdown_signals(Server& server);

/// Serve stdin/stdout until EOF or shutdown. Returns the process exit code.
int run_stdio(Server& server, int wake_fd);

/// Listen on a unix-domain socket; a pool of options().accept_threads
/// workers serves connections. Returns the process exit code (0 on a
/// signal-driven drain).
int run_unix(Server& server, const std::string& path, int wake_fd);

/// Same over TCP on 127.0.0.1:port.
int run_tcp(Server& server, std::uint16_t port, int wake_fd);

}  // namespace speckle::serve
