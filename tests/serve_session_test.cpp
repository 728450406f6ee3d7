// Session/server semantics: the request lifecycle keeps colorings proper
// across mutation batches, replay is bit-identical at any simulator thread
// count, the registry generates each graph exactly once under concurrent
// LOAD, and a per-request deadline fails the request — never the server —
// leaving the session as it was.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "check_coloring.hpp"
#include "graph/mutate.hpp"
#include "graph/suite.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "support/deadline.hpp"

namespace speckle::serve {
namespace {

constexpr const char* kGraph = "Hamrle3";
constexpr std::uint32_t kDenom = 512;
constexpr std::uint64_t kSeed = 0x5eed;

std::vector<std::uint8_t> load_req(std::uint32_t id, const std::string& key,
                                   std::uint32_t denom, std::uint64_t seed) {
  WireWriter body;
  body.str(key);
  body.u32(denom);
  body.u64(seed);
  return make_request(Opcode::kLoad, id, body.bytes());
}

std::vector<std::uint8_t> color_req(std::uint32_t id, std::uint32_t handle,
                                    const std::string& scheme,
                                    std::uint8_t flags = 0) {
  WireWriter body;
  body.u32(handle);
  body.str(scheme);
  body.u8(flags);
  return make_request(Opcode::kColor, id, body.bytes());
}

std::vector<std::uint8_t> query_req(std::uint32_t id, std::uint32_t handle,
                                    QueryWhat what, std::uint64_t arg = 0) {
  WireWriter body;
  body.u32(handle);
  body.u8(static_cast<std::uint8_t>(what));
  body.u64(arg);
  return make_request(Opcode::kQuery, id, body.bytes());
}

std::vector<std::uint8_t> mutate_req(
    std::uint32_t id, std::uint32_t handle,
    const std::vector<graph::EdgeMutation>& batch) {
  WireWriter body;
  body.u32(handle);
  body.u32(static_cast<std::uint32_t>(batch.size()));
  for (const auto& m : batch) {
    body.u8(static_cast<std::uint8_t>(m.kind));
    body.u64(m.u);
    body.u64(m.v);
  }
  return make_request(Opcode::kMutate, id, body.bytes());
}

Status status_of(const std::vector<std::uint8_t>& response) {
  return static_cast<Status>(response.at(0));
}

/// Owns a response payload and exposes a reader positioned past the
/// status + request-id header; fails the test on a non-Ok status. Owns the
/// bytes so the reader's span cannot dangle (WireReader views, not copies).
class OkBody {
 public:
  explicit OkBody(std::vector<std::uint8_t> response)
      : bytes_(std::move(response)), reader_(bytes_) {
    EXPECT_EQ(status_of(bytes_), Status::kOk) << status_name(status_of(bytes_));
    reader_.u8();
    reader_.u32();
  }
  OkBody(const OkBody&) = delete;
  OkBody& operator=(const OkBody&) = delete;
  WireReader& r() { return reader_; }
  bool ok() const { return status_of(bytes_) == Status::kOk; }

 private:
  std::vector<std::uint8_t> bytes_;
  WireReader reader_;
};

/// The message of an error response.
std::string error_message(const std::vector<std::uint8_t>& response) {
  WireReader r(response);
  r.u8();
  r.u32();
  return r.str();
}

/// The STATS fields the deadline tests check.
struct StatsView {
  std::uint64_t errors = 0;
  std::uint64_t generations = 0;
  std::uint64_t mutations = 0;
  std::uint32_t handles = 0;
};

StatsView read_stats(std::vector<std::uint8_t> response) {
  OkBody body(std::move(response));
  StatsView s;
  body.r().u64();  // requests
  s.errors = body.r().u64();
  for (int i = 0; i < 5 + 1; ++i) body.r().u64();  // per-opcode, graphs
  s.generations = body.r().u64();
  for (int i = 0; i < 2; ++i) body.r().u64();  // recolors
  s.mutations = body.r().u64();
  s.handles = body.r().u32();
  return s;
}

/// Split a MemoryStream's output into its response payloads.
std::vector<std::vector<std::uint8_t>> split_frames(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<std::vector<std::uint8_t>> payloads;
  std::size_t pos = 0;
  while (pos + kFramePrefixBytes <= bytes.size()) {
    const std::uint32_t len = static_cast<std::uint32_t>(bytes[pos]) |
                              (static_cast<std::uint32_t>(bytes[pos + 1]) << 8) |
                              (static_cast<std::uint32_t>(bytes[pos + 2]) << 16) |
                              (static_cast<std::uint32_t>(bytes[pos + 3]) << 24);
    pos += kFramePrefixBytes;
    EXPECT_LE(pos + len, bytes.size());
    if (pos + len > bytes.size()) break;
    payloads.emplace_back(bytes.begin() + pos, bytes.begin() + pos + len);
    pos += len;
  }
  return payloads;
}

/// Read the full coloring back one QUERY at a time.
coloring::Coloring query_coloring(Session& session, std::uint32_t handle,
                                  graph::vid_t n) {
  coloring::Coloring colors(n);
  for (graph::vid_t v = 0; v < n; ++v) {
    OkBody resp(
        session.handle(query_req(1000000 + v, handle, QueryWhat::kVertexColor, v)));
    colors[v] = resp.r().u32();
  }
  return colors;
}

TEST(ServeSession, LifecycleKeepsColoringProperAcrossMutations) {
  GraphRegistry registry;
  SessionConfig config;
  Session session(registry, config);

  OkBody load(session.handle(load_req(1, kGraph, kDenom, kSeed)));
  ASSERT_TRUE(load.ok());
  const std::uint32_t handle = load.r().u32();
  const auto n = static_cast<graph::vid_t>(load.r().u64());
  ASSERT_GT(n, 0u);

  OkBody color(session.handle(color_req(2, handle, "D-ldg")));
  ASSERT_TRUE(color.ok());
  const std::uint32_t ncolors = color.r().u32();
  EXPECT_GT(ncolors, 0u);

  // Host-side mirror of the server's graph, rebuilt batch by batch.
  graph::CsrGraph mirror = graph::make_suite_graph(kGraph, kDenom, kSeed);
  std::uint32_t id = 10;
  std::mt19937 rng(7);
  for (int round = 0; round < 4; ++round) {
    std::vector<graph::EdgeMutation> batch;
    for (int i = 0; i < 16; ++i) {
      const auto u = static_cast<graph::vid_t>(rng() % n);
      const auto v = static_cast<graph::vid_t>(rng() % n);
      batch.push_back({i % 4 == 0 ? graph::EdgeMutation::Kind::kDelete
                                  : graph::EdgeMutation::Kind::kInsert,
                       u, v});
    }
    OkBody mut(session.handle(mutate_req(id++, handle, batch)));
    ASSERT_TRUE(mut.ok());
    mut.r().u32();  // applied
    mut.r().u32();  // skipped
    mut.r().u32();  // dirty
    const std::uint8_t mode = mut.r().u8();
    EXPECT_GE(mode, 1) << "a colored graph must be recolored";

    mirror = graph::apply_mutations(mirror, batch).graph;
    const coloring::Coloring colors = query_coloring(session, handle, n);
    EXPECT_TRUE(speckle::testing::IsProperColoring(mirror, colors))
        << "round " << round;
  }
}

TEST(ServeSession, ColorIsCachedPerScheme) {
  GraphRegistry registry;
  Session session(registry, SessionConfig{});
  OkBody load(session.handle(load_req(1, kGraph, kDenom, kSeed)));
  ASSERT_TRUE(load.ok());
  const std::uint32_t handle = load.r().u32();

  OkBody first(session.handle(color_req(2, handle, "D-ldg")));
  first.r().u32();
  first.r().u32();
  EXPECT_EQ(first.r().u8(), 0) << "first COLOR cannot be cached";
  OkBody second(session.handle(color_req(3, handle, "D-ldg")));
  second.r().u32();
  second.r().u32();
  EXPECT_EQ(second.r().u8(), 1) << "repeat COLOR with the same scheme is cached";
  OkBody other(session.handle(color_req(4, handle, "D-base")));
  other.r().u32();
  other.r().u32();
  EXPECT_EQ(other.r().u8(), 0) << "a different scheme re-runs";
}

TEST(ServeSession, ReplayIsBitIdenticalAcrossHostThreads) {
  std::vector<std::vector<std::uint8_t>> outputs;
  for (const std::uint32_t threads : {1u, 4u}) {
    ServerOptions opts;
    opts.session.host_threads = threads;
    Server server(opts);
    MemoryStream stream;
    std::uint32_t id = 0;
    stream.feed(make_frame(load_req(++id, kGraph, kDenom, kSeed)));
    stream.feed(make_frame(color_req(++id, 1, "D-ldg")));
    stream.feed(make_frame(query_req(++id, 1, QueryWhat::kNumColors)));
    stream.feed(make_frame(mutate_req(
        ++id, 1,
        {{graph::EdgeMutation::Kind::kInsert, 0, 5},
         {graph::EdgeMutation::Kind::kInsert, 1, 6}})));
    stream.feed(make_frame(query_req(++id, 1, QueryWhat::kGraphStats)));
    stream.feed(make_frame(make_request(Opcode::kStats, ++id)));
    EXPECT_EQ(server.serve_stream(stream), 6u);
    outputs.push_back(stream.output());
  }
  EXPECT_EQ(outputs[0], outputs[1])
      << "responses must not depend on simulator host threads";
}

TEST(ServeSession, ConcurrentLoadOfSameKeyGeneratesOnce) {
  GraphRegistry registry;
  std::atomic<int> generator_runs{0};
  constexpr int kThreads = 8;
  std::vector<GraphRegistry::GraphPtr> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&registry, &generator_runs, &results, i] {
      auto loaded = registry.load("key", [&generator_runs] {
        ++generator_runs;
        // Widen the race window: everyone else should pile onto the future.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::make_shared<const graph::CsrGraph>(
            graph::make_suite_graph(kGraph, 1024, kSeed));
      });
      results[i] = loaded.graph;
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(generator_runs.load(), 1) << "one generation, however many loaders";
  EXPECT_EQ(registry.generations(), 1u);
  EXPECT_EQ(registry.size(), 1u);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[i], results[0]) << "all loaders share one instance";
  }
  // A fully constructed graph — no torn reads: the future only resolves
  // with the finished CSR, so the invariants hold for every loader.
  EXPECT_GT(results[0]->num_vertices(), 0u);
}

TEST(ServeSession, FailedGenerationEvictsAndRetries) {
  GraphRegistry registry;
  EXPECT_THROW(registry.load("bad", []() -> GraphRegistry::GraphPtr {
                 throw std::runtime_error("boom");
               }),
               std::runtime_error);
  EXPECT_EQ(registry.size(), 0u) << "failed entries must not stick";
  auto loaded = registry.load("bad", [] {
    return std::make_shared<const graph::CsrGraph>(
        graph::make_suite_graph(kGraph, 1024, kSeed));
  });
  EXPECT_TRUE(loaded.fresh);
  EXPECT_EQ(registry.generations(), 2u);
}

TEST(ServeSession, TimeoutFailsTheRequestNotTheServer) {
  // Generating a denom-16 twin takes far longer than 1 ms; LOAD checks the
  // deadline before it commits the handle, STATS never does.
  ServerOptions opts;
  opts.timeout_ms = 1;
  Server server(opts);
  MemoryStream stream;
  stream.feed(make_frame(load_req(1, kGraph, 16, kSeed)));
  stream.feed(make_frame(make_request(Opcode::kStats, 2)));
  EXPECT_EQ(server.serve_stream(stream), 2u)
      << "the connection must survive a timed-out request";

  const auto responses = split_frames(stream.output());
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(status_of(responses[0]), Status::kTimeout);
  const StatsView stats = read_stats(responses[1]);
  EXPECT_EQ(stats.errors, 1u) << "a timeout is an error";
  EXPECT_EQ(stats.handles, 0u) << "a timed-out LOAD must not add a handle";
}

TEST(ServeSession, ColorPastDeadlineLeavesGraphUncolored) {
  GraphRegistry registry;
  Session session(registry, SessionConfig{});
  OkBody load(session.handle(load_req(1, kGraph, kDenom, kSeed)));
  const std::uint32_t handle = load.r().u32();
  {
    const support::ScopedDeadline expired(support::DeadlineClock::time_point{});
    EXPECT_EQ(status_of(session.handle(color_req(2, handle, "D-ldg"))),
              Status::kTimeout);
  }
  const auto query = session.handle(query_req(3, handle, QueryWhat::kNumColors));
  EXPECT_EQ(status_of(query), Status::kBadRequest);
  EXPECT_EQ(error_message(query), "graph not colored yet");
}

TEST(ServeSession, MutatePastDeadlineLeavesGraphUnchanged) {
  GraphRegistry registry;
  Session session(registry, SessionConfig{});
  OkBody load(session.handle(load_req(1, kGraph, kDenom, kSeed)));
  const std::uint32_t handle = load.r().u32();
  const auto n = static_cast<graph::vid_t>(load.r().u64());
  const std::uint64_t m = load.r().u64();
  const std::vector<graph::EdgeMutation> batch = {
      {graph::EdgeMutation::Kind::kInsert, 0, n / 2},
      {graph::EdgeMutation::Kind::kInsert, 1, n / 2 + 1}};
  {
    const support::ScopedDeadline expired(support::DeadlineClock::time_point{});
    EXPECT_EQ(status_of(session.handle(mutate_req(2, handle, batch))),
              Status::kTimeout);
  }
  EXPECT_EQ(read_stats(session.handle(make_request(Opcode::kStats, 3))).mutations,
            0u);
  OkBody gstats(session.handle(query_req(4, handle, QueryWhat::kGraphStats)));
  gstats.r().u64();
  EXPECT_EQ(gstats.r().u64(), m);

  // Unarmed, the same batch does apply: the timeout really withheld it.
  OkBody applied(session.handle(mutate_req(5, handle, batch)));
  EXPECT_EQ(applied.r().u32(), 2u);
}

TEST(ServeSession, OversizedDenomIsABadRequestNotAnAbort) {
  Server server(ServerOptions{});
  MemoryStream stream;
  std::uint32_t id = 0;
  for (const char* key : {"rmat-er", "Hamrle3"}) {
    for (const std::uint32_t denom : {1U << 20, 1U << 21}) {
      stream.feed(make_frame(load_req(++id, key, denom, 7)));
    }
  }
  stream.feed(make_frame(make_request(Opcode::kStats, ++id)));
  EXPECT_EQ(server.serve_stream(stream), 5u);
  const auto responses = split_frames(stream.output());
  ASSERT_EQ(responses.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(status_of(responses[i]), Status::kBadRequest) << "LOAD " << i;
  }
  EXPECT_EQ(read_stats(responses[4]).errors, 4u);
}

TEST(ServeSession, LoadOfAFilePathIsABadRequestNotARead) {
  // A real, readable Matrix Market file: LOAD must not open it.
  const std::filesystem::path mtx =
      std::filesystem::temp_directory_path() /
      ("speckle_serve_load_" + std::to_string(::getpid()) + ".mtx");
  {
    std::ofstream out(mtx);
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n"
           "3 3 2\n2 1\n3 2\n";
  }
  Server server(ServerOptions{});
  MemoryStream stream;
  stream.feed(make_frame(load_req(1, mtx.string(), 1, 7)));
  stream.feed(make_frame(load_req(2, "/etc/passwd", 1, 7)));
  stream.feed(make_frame(make_request(Opcode::kStats, 3)));
  EXPECT_EQ(server.serve_stream(stream), 3u);
  std::filesystem::remove(mtx);
  const auto responses = split_frames(stream.output());
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(status_of(responses[0]), Status::kBadRequest);
  EXPECT_EQ(error_message(responses[0]),
            "unknown suite graph '" + mtx.string() + "'");
  EXPECT_EQ(status_of(responses[1]), Status::kBadRequest);
  EXPECT_EQ(error_message(responses[1]), "unknown suite graph '/etc/passwd'");
  const StatsView stats = read_stats(responses[2]);
  EXPECT_EQ(stats.generations, 0u);
  EXPECT_EQ(stats.handles, 0u);
}

TEST(ServeSession, ShutdownDrainsWithTypedRefusal) {
  Server server(ServerOptions{});
  server.request_shutdown();
  MemoryStream stream;
  stream.feed(make_frame(make_request(Opcode::kStats, 5)));
  EXPECT_EQ(server.serve_stream(stream), 0u);
  const auto& bytes = stream.output();
  ASSERT_GE(bytes.size(), kFramePrefixBytes + kPayloadHeaderBytes);
  EXPECT_EQ(static_cast<Status>(bytes[kFramePrefixBytes]),
            Status::kShuttingDown);
}

}  // namespace
}  // namespace speckle::serve
