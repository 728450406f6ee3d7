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

#include "graph/cache.hpp"
#include "serve/server.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  speckle::support::Options opts(argc, argv);
  const bool stdio = opts.get_bool("stdio", false);
  const std::string unix_path = opts.get_string("unix", "");
  const std::int64_t port = opts.get_int("port", 0);

  speckle::serve::ServerOptions server_opts;
  server_opts.session.block_size =
      static_cast<std::uint32_t>(opts.get_int("block-size", 128));
  server_opts.session.host_threads =
      static_cast<std::uint32_t>(opts.get_int("threads", 1));
  server_opts.session.graph_cache = speckle::graph::resolve_graph_cache_dir(
      opts.get_string("graph-cache", ""));
  server_opts.timeout_ms =
      static_cast<std::uint32_t>(opts.get_int("timeout-ms", 0));
  server_opts.accept_threads =
      static_cast<std::uint32_t>(opts.get_int("pool", 4));
  opts.validate({"stdio", "unix", "port", "block-size", "threads",
                 "graph-cache", "timeout-ms", "pool"});

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
    return speckle::serve::run_tcp(server, static_cast<std::uint16_t>(port),
                                   wake_fd);
  }
  return speckle::serve::run_stdio(server, wake_fd);
}
