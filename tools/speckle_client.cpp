// speckle_client: trace-driven client for speckle_serve.
//
// Reads a line-oriented trace (one request per line), sends each request
// over the wire protocol, and prints one deterministic line per response —
// the response log the CI smoke job diffs against a golden. Responses
// carry only simulated quantities, so the log is bit-identical at any
// server --threads value.
//
// Trace DSL ('#' starts a comment, blank lines skipped):
//   load <key> <denom> <seed>
//   color <handle> <scheme> [refine]
//   query <handle> color <vertex>
//   query <handle> ncolors
//   query <handle> gstats
//   mutate <handle> [+u,v|-u,v]...
//   stats
//   raw <hex>                      # raw payload bytes, for protocol tests
//
// Transports:
//   --exec="path/to/speckle_serve [args]"   fork the server on pipes
//   --unix=/tmp/speckle.sock                connect to a unix socket
//   --port=7461                             connect to 127.0.0.1:port
// Trace source: --trace=FILE (default stdin).

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/mutate.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/options.hpp"

namespace {

using namespace speckle::serve;

struct Pending {
  Opcode op;
  QueryWhat what = QueryWhat::kVertexColor;  // for kQuery only
  bool raw = false;
};

bool parse_edge(const std::string& tok, speckle::graph::EdgeMutation* out) {
  if (tok.size() < 4 || (tok[0] != '+' && tok[0] != '-')) return false;
  const auto comma = tok.find(',');
  if (comma == std::string::npos) return false;
  try {
    out->kind = tok[0] == '+' ? speckle::graph::EdgeMutation::Kind::kInsert
                              : speckle::graph::EdgeMutation::Kind::kDelete;
    out->u = static_cast<speckle::graph::vid_t>(
        std::stoul(tok.substr(1, comma - 1)));
    out->v =
        static_cast<speckle::graph::vid_t>(std::stoul(tok.substr(comma + 1)));
  } catch (...) {
    return false;
  }
  return true;
}

/// Build the request payload for one trace line; false = unparsable line.
bool encode_line(const std::string& line, std::uint32_t request_id,
                 std::vector<std::uint8_t>* payload, Pending* pending) {
  std::istringstream in(line);
  std::string verb;
  in >> verb;
  if (verb == "load") {
    std::string key;
    std::uint32_t denom = 1;
    std::uint64_t seed = 0;
    if (!(in >> key >> denom >> seed)) return false;
    WireWriter body;
    body.str(key);
    body.u32(denom);
    body.u64(seed);
    *payload = make_request(Opcode::kLoad, request_id, body.bytes());
    pending->op = Opcode::kLoad;
    return true;
  }
  if (verb == "color") {
    std::uint32_t handle = 0;
    std::string scheme, flag;
    if (!(in >> handle >> scheme)) return false;
    std::uint8_t flags = 0;
    if (in >> flag && flag == "refine") flags |= 1;
    WireWriter body;
    body.u32(handle);
    body.str(scheme);
    body.u8(flags);
    *payload = make_request(Opcode::kColor, request_id, body.bytes());
    pending->op = Opcode::kColor;
    return true;
  }
  if (verb == "query") {
    std::uint32_t handle = 0;
    std::string what;
    if (!(in >> handle >> what)) return false;
    QueryWhat selector;
    std::uint64_t arg = 0;
    if (what == "color") {
      selector = QueryWhat::kVertexColor;
      if (!(in >> arg)) return false;
    } else if (what == "ncolors") {
      selector = QueryWhat::kNumColors;
    } else if (what == "gstats") {
      selector = QueryWhat::kGraphStats;
    } else {
      return false;
    }
    WireWriter body;
    body.u32(handle);
    body.u8(static_cast<std::uint8_t>(selector));
    body.u64(arg);
    *payload = make_request(Opcode::kQuery, request_id, body.bytes());
    pending->op = Opcode::kQuery;
    pending->what = selector;
    return true;
  }
  if (verb == "mutate") {
    std::uint32_t handle = 0;
    if (!(in >> handle)) return false;
    std::vector<speckle::graph::EdgeMutation> batch;
    std::string tok;
    while (in >> tok) {
      speckle::graph::EdgeMutation m;
      if (!parse_edge(tok, &m)) return false;
      batch.push_back(m);
    }
    WireWriter body;
    body.u32(handle);
    body.u32(static_cast<std::uint32_t>(batch.size()));
    for (const auto& m : batch) {
      body.u8(static_cast<std::uint8_t>(m.kind));
      body.u64(m.u);
      body.u64(m.v);
    }
    *payload = make_request(Opcode::kMutate, request_id, body.bytes());
    pending->op = Opcode::kMutate;
    return true;
  }
  if (verb == "stats") {
    *payload = make_request(Opcode::kStats, request_id);
    pending->op = Opcode::kStats;
    return true;
  }
  if (verb == "raw") {
    std::string hex;
    in >> hex;
    if (hex.size() % 2 != 0) return false;
    payload->clear();
    for (std::size_t i = 0; i < hex.size(); i += 2) {
      const std::string byte = hex.substr(i, 2);
      char* end = nullptr;
      const long value = std::strtol(byte.c_str(), &end, 16);
      if (end != byte.c_str() + 2) return false;
      payload->push_back(static_cast<std::uint8_t>(value));
    }
    pending->raw = true;
    return true;
  }
  return false;
}

void print_response(std::ostream& out, const Pending& pending,
                    std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  const auto status = static_cast<Status>(r.u8());
  const std::uint32_t id = r.u32();
  out << "[" << id << "] " << status_name(status);
  if (status != Status::kOk) {
    out << " \"" << r.str() << "\"\n";
    return;
  }
  if (pending.raw) {
    out << " raw " << r.remaining() << " bytes\n";
    return;
  }
  switch (pending.op) {
    case Opcode::kLoad: {
      const std::uint32_t handle = r.u32();
      const std::uint64_t n = r.u64();
      const std::uint64_t m = r.u64();
      const std::uint8_t fresh = r.u8();
      out << " load handle=" << handle << " n=" << n << " m=" << m
          << " fresh=" << static_cast<int>(fresh);
      break;
    }
    case Opcode::kColor: {
      const std::uint32_t colors = r.u32();
      const std::uint32_t iters = r.u32();
      const std::uint8_t cached = r.u8();
      const std::uint64_t model_ns = r.u64();
      out << " color colors=" << colors << " iters=" << iters
          << " cached=" << static_cast<int>(cached)
          << " model_ns=" << model_ns;
      break;
    }
    case Opcode::kQuery: {
      if (pending.what == QueryWhat::kVertexColor) {
        out << " query color=" << r.u32();
      } else if (pending.what == QueryWhat::kNumColors) {
        out << " query ncolors=" << r.u32();
      } else {
        const std::uint64_t n = r.u64();
        const std::uint64_t m = r.u64();
        const std::uint64_t mindeg = r.u64();
        const std::uint64_t maxdeg = r.u64();
        out << " query n=" << n << " m=" << m << " mindeg=" << mindeg
            << " maxdeg=" << maxdeg;
      }
      break;
    }
    case Opcode::kMutate: {
      const std::uint32_t applied = r.u32();
      const std::uint32_t skipped = r.u32();
      const std::uint32_t dirty = r.u32();
      const std::uint8_t mode = r.u8();
      const std::uint32_t colors = r.u32();
      const std::uint32_t iters = r.u32();
      const std::uint64_t model_ns = r.u64();
      static const char* kModes[] = {"uncolored", "incremental", "full"};
      out << " mutate applied=" << applied << " skipped=" << skipped
          << " dirty=" << dirty
          << " mode=" << (mode <= 2 ? kModes[mode] : "?")
          << " colors=" << colors << " iters=" << iters
          << " model_ns=" << model_ns;
      break;
    }
    case Opcode::kStats: {
      const std::uint64_t requests = r.u64();
      const std::uint64_t errors = r.u64();
      std::uint64_t per_op[kNumOpcodes];
      for (auto& c : per_op) c = r.u64();
      const std::uint64_t graphs = r.u64();
      const std::uint64_t generations = r.u64();
      const std::uint64_t incr = r.u64();
      const std::uint64_t full = r.u64();
      const std::uint64_t mutations = r.u64();
      const std::uint32_t handles = r.u32();
      out << " stats requests=" << requests << " errors=" << errors
          << " load=" << per_op[0] << " color=" << per_op[1]
          << " query=" << per_op[2] << " mutate=" << per_op[3]
          << " stats=" << per_op[4] << " graphs=" << graphs
          << " generations=" << generations << " incremental=" << incr
          << " full=" << full << " mutations=" << mutations
          << " handles=" << handles;
      break;
    }
  }
  if (!r.done()) out << " (trailing bytes)";
  out << "\n";
}

std::vector<std::string> split_command(const std::string& command) {
  std::istringstream in(command);
  std::vector<std::string> parts;
  std::string tok;
  while (in >> tok) parts.push_back(tok);
  return parts;
}

int fail(const char* message) {
  std::fprintf(stderr, "speckle_client: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  speckle::support::Options opts(argc, argv);
  const std::string exec = opts.get_string("exec", "");
  const std::string unix_path = opts.get_string("unix", "");
  const auto port = opts.get_uint<std::uint16_t>("port", 0);
  const std::string trace_path = opts.get_string("trace", "");
  opts.validate({"exec", "unix", "port", "trace"});

  int read_fd = -1;
  int write_fd = -1;
  pid_t child = -1;

  if (!exec.empty()) {
    int to_server[2];
    int from_server[2];
    if (::pipe(to_server) != 0 || ::pipe(from_server) != 0) {
      return fail("pipe failed");
    }
    child = ::fork();
    if (child < 0) return fail("fork failed");
    if (child == 0) {
      ::dup2(to_server[0], STDIN_FILENO);
      ::dup2(from_server[1], STDOUT_FILENO);
      ::close(to_server[0]);
      ::close(to_server[1]);
      ::close(from_server[0]);
      ::close(from_server[1]);
      std::vector<std::string> parts = split_command(exec);
      parts.emplace_back("--stdio");
      std::vector<char*> args;
      args.reserve(parts.size() + 1);
      for (auto& p : parts) args.push_back(p.data());
      args.push_back(nullptr);
      ::execv(args[0], args.data());
      std::perror("speckle_client: execv");
      _exit(127);
    }
    ::close(to_server[0]);
    ::close(from_server[1]);
    write_fd = to_server[1];
    read_fd = from_server[0];
  } else if (!unix_path.empty()) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (unix_path.size() >= sizeof(addr.sun_path)) {
      return fail("socket path too long");
    }
    std::memcpy(addr.sun_path, unix_path.c_str(), unix_path.size() + 1);
    if (fd < 0 || ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      return fail("cannot connect to unix socket");
    }
    read_fd = write_fd = fd;
  } else if (port != 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (fd < 0 || ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      return fail("cannot connect to tcp port");
    }
    read_fd = write_fd = fd;
  } else {
    return fail("pick a transport: --exec, --unix, or --port");
  }

  std::ifstream trace_file;
  std::istream* trace = &std::cin;
  if (!trace_path.empty()) {
    trace_file.open(trace_path);
    if (!trace_file) return fail("cannot open trace file");
    trace = &trace_file;
  }

  FdStream stream(read_fd, write_fd);
  std::uint32_t request_id = 0;
  std::string line;
  int rc = 0;
  while (std::getline(*trace, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    std::vector<std::uint8_t> payload;
    Pending pending;
    if (!encode_line(line, ++request_id, &payload, &pending)) {
      std::fprintf(stderr, "speckle_client: bad trace line: %s\n",
                   line.c_str());
      rc = 2;
      break;
    }
    const std::vector<std::uint8_t> frame = make_frame(payload);
    if (!stream.write_all(frame.data(), frame.size())) {
      rc = fail("server closed the connection (write)");
      break;
    }
    std::uint8_t prefix[kFramePrefixBytes];
    if (stream.read_exact(prefix, sizeof(prefix)) != ReadStatus::kOk) {
      rc = fail("server closed the connection (read)");
      break;
    }
    const std::uint32_t length =
        static_cast<std::uint32_t>(prefix[0]) |
        (static_cast<std::uint32_t>(prefix[1]) << 8) |
        (static_cast<std::uint32_t>(prefix[2]) << 16) |
        (static_cast<std::uint32_t>(prefix[3]) << 24);
    if (length > kMaxFrameBytes) {
      rc = fail("response frame exceeds cap");
      break;
    }
    std::vector<std::uint8_t> response(length);
    if (length > 0 &&
        stream.read_exact(response.data(), length) != ReadStatus::kOk) {
      rc = fail("truncated response");
      break;
    }
    print_response(std::cout, pending, response);
  }

  if (write_fd != read_fd) ::close(write_fd);
  ::close(read_fd);
  if (child > 0) {
    int status = 0;
    ::waitpid(child, &status, 0);
    if (rc == 0 && (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
      rc = fail("server exited abnormally");
    }
  }
  return rc;
}
