// speckle_serve: the long-lived coloring server.
//
// Accepts length-prefixed binary requests (docs/serve.md) over one of three
// transports and keeps graphs + colorings resident across requests:
//
//   speckle_serve --stdio                      # serve stdin/stdout (default)
//   speckle_serve --unix=/tmp/speckle.sock     # unix-domain listener
//   speckle_serve --port=7461                  # TCP listener on 127.0.0.1
//
// SIGINT/SIGTERM drain in-flight requests and exit 0. A request past
// --timeout-ms stops at its next launch or session commit and answers
// `timeout` with no effect on the session; the server survives.

#include <cstdio>
#include <string>

#include "coloring/gpu_common.hpp"
#include "graph/cache.hpp"
#include "serve/server.hpp"
#include "support/options.hpp"
#include "support/threadpool.hpp"

int main(int argc, char** argv) {
  speckle::support::Options opts(argc, argv);
  const bool stdio = opts.get_bool("stdio", false);
  const std::string unix_path = opts.get_string("unix", "");
  const auto port = opts.get_uint<std::uint16_t>("port", 0);

  speckle::serve::ServerOptions server_opts;
  server_opts.session.block_size =
      opts.get_uint<std::uint32_t>("block-size", 128);
  server_opts.session.host_threads =
      opts.get_uint<std::uint32_t>("threads", 1, speckle::support::kMaxThreads);
  server_opts.session.graph_cache = speckle::graph::resolve_graph_cache_dir(
      opts.get_string("graph-cache", ""));
  server_opts.timeout_ms = opts.get_uint<std::uint32_t>("timeout-ms", 0);
  server_opts.accept_threads =
      opts.get_uint<std::uint32_t>("pool", 4, speckle::support::kMaxThreads);
  opts.validate({"stdio", "unix", "port", "block-size", "threads",
                 "graph-cache", "timeout-ms", "pool"});
  if (!speckle::coloring::valid_block_size(server_opts.session.block_size)) {
    speckle::support::Options::reject(
        "block-size", "expects a power of two in [32, 1024], got " +
                          std::to_string(server_opts.session.block_size));
  }

  if ((stdio ? 1 : 0) + (unix_path.empty() ? 0 : 1) + (port != 0 ? 1 : 0) >
      1) {
    std::fprintf(stderr,
                 "speckle_serve: pick one of --stdio, --unix, --port\n");
    return 2;
  }

  speckle::serve::Server server(server_opts);
  const int wake_fd = speckle::serve::install_shutdown_signals(server);
  if (!unix_path.empty()) {
    return speckle::serve::run_unix(server, unix_path, wake_fd);
  }
  if (port != 0) {
    return speckle::serve::run_tcp(server, port, wake_fd);
  }
  return speckle::serve::run_stdio(server, wake_fd);
}
