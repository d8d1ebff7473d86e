// serve_mixed: a closed loop of 2 client connections against the shipped
// arbmis_serve daemon over loopback.
//
// Each client walks cycles of LOAD (its own union_of_random_forests(2^14,
// 2)) -> COMPUTE_MIS x3 (one miss, then hits) -> 4 x (QUERY of 8 nodes,
// UPDATE_EDGES of 4 ops) -> VERIFY -> METRICS, sending each request only
// after the previous reply. The daemon runs as its own process with the
// metrics registry and flight recorder it always attaches.
//
// The traced run measures the daemon with one client and with two, then
// replays the two-client request frames in-process through
// MisService::handle: detached, attached (the daemon's registry + flight
// recorder) and attached + span-timestamping sink.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "graph/generators.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace graph = arbmis::graph;
namespace obs = arbmis::obs;
namespace serve = arbmis::serve;
using arbmis::util::mix64;
using serve::Frame;
using serve::MsgType;

constexpr graph::NodeId kClientNodes = graph::NodeId{1} << 14;
constexpr int kClients = 2;
constexpr std::uint32_t kComputes = 3;
constexpr std::uint32_t kUpdates = 4;
constexpr std::uint32_t kOpsPerUpdate = 4;
constexpr std::uint32_t kQueryNodes = 8;
/// Leading cycles of every client whose counts are reported exactly.
constexpr std::uint32_t kExactCycles = 2;

enum Kind : std::size_t {
  kLoad, kComputeMiss, kComputeHit, kQuery, kUpdate, kVerify, kMetrics, kKinds
};

struct Sent {
  Frame request;
  Frame reply;
  Kind kind;
  std::uint32_t cycle;
};

/// What one client saw. Counts prefixed `exact_` cover its first
/// kExactCycles cycles only, so they repeat exactly for a fixed seed.
struct ClientLog {
  std::array<std::vector<double>, kKinds> latency_ms;
  std::vector<Sent> sent;  ///< filled when recording
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t lookups = 0;  ///< COMPUTE + QUERY requests
  std::uint64_t hits = 0;
  std::uint64_t incremental = 0;
  double residual_sum = 0;
  std::uint64_t exact_hits = 0;
  std::uint64_t exact_incremental = 0;
  std::uint64_t exact_residual = 0;
  std::uint64_t exact_attempts = 0;
  std::uint64_t exact_rounds = 0;
  std::uint64_t exact_hash = 0;  ///< xor of the VERIFY labels hashes
  std::string error;
};

/// The daemon as a child process; stopped with SIGTERM and reaped on
/// destruction.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& port_file) {
    ::unlink(port_file.c_str());
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(2, 1);  // keep the benchmark's stdout for its own result
      ::execl(binary.c_str(), binary.c_str(), "--port", "0", "--port-file",
              port_file.c_str(), "--quiet", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    const std::uint64_t start = now_ns();
    while (port_ == 0) {
      std::ifstream in(port_file);
      std::string line;
      if (std::getline(in, line) && in.good()) {
        port_ = static_cast<std::uint16_t>(std::stoul(line));
        break;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("arbmis_serve exited during start-up");
      }
      if (ms_since(start) > 30e3) {
        stop();
        throw std::runtime_error("arbmis_serve did not publish its port");
      }
      ::usleep(50);  // fine polling: a start takes only a few ms
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

template <typename Reply>
Reply parse_reply(const Frame& f, MsgType expected) {
  if (f.type != expected) throw std::runtime_error("unexpected reply type");
  return serve::parse_payload<Reply>(f);
}

/// One client's closed loop. `salt` separates the graphs of different
/// passes so that no pass finds another's results in the daemon cache.
void run_client(std::uint16_t port, int client, std::uint64_t seed,
                std::uint64_t salt, std::uint64_t deadline_ns, bool record,
                ClientLog& log) {
  try {
    serve::Client connection("127.0.0.1", port);
    const std::uint64_t client_seed = mix64(seed, static_cast<std::uint64_t>(client) + 1);
    const std::uint64_t graph_id = static_cast<std::uint64_t>(client) + 1;
    const serve::ComputeParams params{/*alpha=*/2, /*seed=*/client_seed};
    std::uint32_t cycle = 0;
    const auto call = [&](Kind kind, Frame request) {
      const std::uint64_t t0 = now_ns();
      Frame reply = connection.call(request);
      log.latency_ms[kind].push_back(ms_since(t0));
      ++log.requests;
      if (record) log.sent.push_back({std::move(request), reply, kind, cycle});
      return reply;
    };
    const auto check = [&](bool ok) {
      if (!ok) ++log.failed;
    };

    for (; cycle < kExactCycles || now_ns() < deadline_ns; ++cycle) {
      const bool exact = cycle < kExactCycles;
      arbmis::util::Rng rng(mix64(mix64(client_seed, salt), cycle + 1));
      const graph::Graph g =
          graph::gen::union_of_random_forests(kClientNodes, 2, rng);
      graph::NodeId n = g.num_nodes();

      serve::LoadGraphRequest load;
      load.graph_id = graph_id;
      load.num_nodes = n;
      load.edges = g.edges();
      const auto loaded = parse_reply<serve::LoadGraphReply>(
          call(kLoad, serve::make_frame(MsgType::kLoadGraph, 0, load)),
          MsgType::kReplyLoadGraph);
      check(loaded.num_nodes == n && loaded.num_edges == g.num_edges());

      // COMPUTE: the first call must miss, repeats must hit and agree.
      std::uint64_t first_hash = 0;
      for (std::uint32_t i = 0; i < kComputes; ++i) {
        const auto reply = parse_reply<serve::ComputeMisReply>(
            call(i == 0 ? kComputeMiss : kComputeHit,
                 serve::make_frame(MsgType::kComputeMis, 0,
                                   serve::ComputeMisRequest{graph_id, params})),
            MsgType::kReplyComputeMis);
        ++log.lookups;
        log.hits += reply.cache_hit;
        if (i == 0) {
          first_hash = reply.labels_hash;
          check(reply.cache_hit == 0 && reply.certified != 0);
          if (exact) {
            log.exact_attempts += reply.attempts;
            log.exact_rounds += reply.rounds;
          }
        } else {
          check(reply.cache_hit != 0 && reply.certified != 0 &&
                reply.labels_hash == first_hash);
          if (exact) ++log.exact_hits;
        }
      }

      // QUERY batches interleaved with UPDATE_EDGES batches.
      std::uint64_t last_hash = first_hash;
      for (std::uint32_t u = 0; u < kUpdates; ++u) {
        serve::QueryRequest query{graph_id, params, {}};
        for (std::uint32_t j = 0; j < kQueryNodes; ++j) {
          query.nodes.push_back(static_cast<graph::NodeId>(rng.below(n)));
        }
        const auto states = parse_reply<serve::QueryReply>(
            call(kQuery, serve::make_frame(MsgType::kQuery, 0, query)),
            MsgType::kReplyQuery);
        ++log.lookups;
        log.hits += states.cache_hit;
        if (exact) log.exact_hits += states.cache_hit;
        bool decided = states.states.size() == kQueryNodes;
        for (const std::uint8_t s : states.states) decided = decided && s != 0;
        check(decided);

        // Mixed insert/remove/add-vertex/detach ops, as in loadgen_core.h.
        serve::UpdateEdgesRequest update{graph_id, params, {}};
        for (std::uint32_t j = 0; j < kOpsPerUpdate; ++j) {
          const std::uint64_t kind = rng.below(10);
          serve::EdgeUpdate op;
          if (kind < 8) {
            op.op = kind < 4 ? serve::UpdateOp::kInsertEdge
                             : serve::UpdateOp::kRemoveEdge;
            op.u = static_cast<graph::NodeId>(rng.below(n));
            do {
              op.v = static_cast<graph::NodeId>(rng.below(n));
            } while (op.v == op.u);
          } else if (kind == 8) {
            op.op = serve::UpdateOp::kAddVertex;
            ++n;  // mirror the server's id assignment
          } else {
            op.op = serve::UpdateOp::kDetachVertex;
            op.u = static_cast<graph::NodeId>(rng.below(n));
          }
          update.ops.push_back(op);
        }
        const auto repaired = parse_reply<serve::UpdateEdgesReply>(
            call(kUpdate, serve::make_frame(MsgType::kUpdateEdges, 0, update)),
            MsgType::kReplyUpdateEdges);
        check(repaired.certified != 0);
        last_hash = repaired.labels_hash;
        log.incremental += repaired.incremental;
        log.residual_sum += repaired.residual;
        if (exact) {
          log.exact_incremental += repaired.incremental;
          log.exact_residual += repaired.residual;
        }
      }

      const auto verified = parse_reply<serve::VerifyReply>(
          call(kVerify, serve::make_frame(MsgType::kVerify, 0,
                                          serve::VerifyRequest{graph_id, params})),
          MsgType::kReplyVerify);
      check(verified.ok != 0 && verified.labels_hash == last_hash);
      if (exact) log.exact_hash ^= verified.labels_hash;

      const auto metrics = parse_reply<serve::MetricsReply>(
          call(kMetrics, serve::make_frame(MsgType::kMetrics, 0,
                                           serve::MetricsRequest{})),
          MsgType::kReplyMetrics);
      check(!metrics.json.empty());
    }
  } catch (const std::exception& e) {
    log.error = e.what();
    ++log.failed;
  }
}

struct Pass {
  std::vector<ClientLog> clients;
  double wall_s = 0;

  std::vector<double> latencies(Kind kind) const {
    std::vector<double> out;
    for (const ClientLog& c : clients) {
      out.insert(out.end(), c.latency_ms[kind].begin(), c.latency_ms[kind].end());
    }
    return out;
  }
  template <typename Field>
  double total(Field field) const {
    double sum = 0;
    for (const ClientLog& c : clients) sum += static_cast<double>(c.*field);
    return sum;
  }
};

Pass run_pass(std::uint16_t port, int clients, std::uint64_t seed,
              std::uint64_t salt, double seconds, bool record, Report& report) {
  Pass pass;
  pass.clients.resize(static_cast<std::size_t>(clients));
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(run_client, port, c, seed, salt, deadline, record,
                         std::ref(pass.clients[static_cast<std::size_t>(c)]));
  }
  for (std::thread& t : threads) t.join();
  pass.wall_s = ms_since(start) / 1e3;
  for (const ClientLog& c : pass.clients) {
    report.attempted += c.requests;
    report.failed += c.failed;
    if (!c.error.empty()) std::cerr << "arbbench: client: " << c.error << "\n";
  }
  return pass;
}

void record_pass_detail(const Pass& pass, Report& report) {
  const char* names[kKinds] = {"load",  "compute_miss", "compute_hit", "query",
                               "update", "verify",      "metrics"};
  for (std::size_t k = 0; k < kKinds; ++k) {
    report.detail[std::string("samples.") + names[k]] =
        static_cast<double>(pass.latencies(static_cast<Kind>(k)).size());
  }
  report.detail["compute_miss_ms_p50"] = median(pass.latencies(kComputeMiss));
  report.detail["update_ms_p50"] = percentile(pass.latencies(kUpdate), 50);
  report.detail["update_ms_p90"] = percentile(pass.latencies(kUpdate), 90);
  report.detail["query_ms_p50"] = percentile(pass.latencies(kQuery), 50);
  report.detail["query_ms_p99"] = percentile(pass.latencies(kQuery), 99);
  report.detail["exact.cache_hits"] = pass.total(&ClientLog::exact_hits);
  report.detail["exact.repairs_incremental"] =
      pass.total(&ClientLog::exact_incremental);
  report.detail["exact.residual_nodes"] = pass.total(&ClientLog::exact_residual);
  report.detail["exact.attempts"] = pass.total(&ClientLog::exact_attempts);
  report.detail["exact.rounds"] = pass.total(&ClientLog::exact_rounds);
  std::uint64_t hash = 0;
  for (const ClientLog& c : pass.clients) hash ^= c.exact_hash;
  report.detail_text["exact.labels_hash_xor"] = hex64(hash);
}

// ---------------------------------------------------------------------------
// In-process replay of the recorded frames (traced run only).

/// Timestamps the service's own span_begin / span_end events as they
/// arrive, so the serve, fault and sim layers inside MisService::handle
/// can be timed without instrumenting src/.
class SpanClock : public obs::EventSink {
 public:
  struct Raw {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };
  SpanClock()
      : obs::EventSink(obs::SinkConfig{.semantic = true,
                                       .log_text = false,
                                       .exec = false,
                                       .round_sample = 1u << 31}) {}
  std::vector<Raw> take() {
    std::vector<Raw> out;
    out.swap(spans_);
    return out;
  }

 protected:
  void write(const obs::Event& e) override {
    if (e.kind == obs::EventKind::kSpanBegin) {
      spans_.push_back({std::string(e.text), e.values[0], e.values[1],
                        now_ns(), 0});
    } else if (e.kind == obs::EventKind::kSpanEnd) {
      for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
        if (it->id == e.values[0] && it->end == 0) {
          it->end = now_ns();
          break;
        }
      }
    }
  }

 private:
  std::vector<Raw> spans_;
};

/// The recorded frames of every client, cycle by cycle, round robin.
std::vector<const Sent*> replay_order(const Pass& pass) {
  std::vector<const Sent*> order;
  for (std::uint32_t cycle = 0;; ++cycle) {
    bool any = false;
    for (const ClientLog& c : pass.clients) {
      for (const Sent& s : c.sent) {
        if (s.cycle != cycle) continue;
        order.push_back(&s);
        any = true;
      }
    }
    if (!any) return order;
  }
}

/// True when the replayed reply carries the daemon's answer: the same
/// labels hash (COMPUTE, UPDATE, VERIFY) or the same node states (QUERY).
bool same_answer(const Sent& s, const Frame& replayed) {
  if (replayed.type != s.reply.type) return false;
  switch (s.kind) {
    case kComputeMiss:
    case kComputeHit:
      return serve::parse_payload<serve::ComputeMisReply>(replayed).labels_hash ==
             serve::parse_payload<serve::ComputeMisReply>(s.reply).labels_hash;
    case kQuery:
      return serve::parse_payload<serve::QueryReply>(replayed).states ==
             serve::parse_payload<serve::QueryReply>(s.reply).states;
    case kUpdate:
      return serve::parse_payload<serve::UpdateEdgesReply>(replayed).labels_hash ==
             serve::parse_payload<serve::UpdateEdgesReply>(s.reply).labels_hash;
    case kVerify:
      return serve::parse_payload<serve::VerifyReply>(replayed).labels_hash ==
             serve::parse_payload<serve::VerifyReply>(s.reply).labels_hash;
    default:
      return true;
  }
}

/// Encodes, frames, reads back and parses one request and its reply, as
/// client and server do on the wire.
void codec_roundtrip(const Sent& s) {
  for (const Frame* f : {&s.request, &s.reply}) {
    const std::vector<std::uint8_t> bytes = serve::encode_frame(*f);
    serve::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Frame decoded;
    if (!reader.next(decoded)) throw std::runtime_error("codec: short frame");
    switch (decoded.type) {
      case MsgType::kLoadGraph: (void)serve::parse_payload<serve::LoadGraphRequest>(decoded); break;
      case MsgType::kComputeMis: (void)serve::parse_payload<serve::ComputeMisRequest>(decoded); break;
      case MsgType::kQuery: (void)serve::parse_payload<serve::QueryRequest>(decoded); break;
      case MsgType::kUpdateEdges: (void)serve::parse_payload<serve::UpdateEdgesRequest>(decoded); break;
      case MsgType::kVerify: (void)serve::parse_payload<serve::VerifyRequest>(decoded); break;
      case MsgType::kMetrics: (void)serve::parse_payload<serve::MetricsRequest>(decoded); break;
      case MsgType::kReplyLoadGraph: (void)serve::parse_payload<serve::LoadGraphReply>(decoded); break;
      case MsgType::kReplyComputeMis: (void)serve::parse_payload<serve::ComputeMisReply>(decoded); break;
      case MsgType::kReplyQuery: (void)serve::parse_payload<serve::QueryReply>(decoded); break;
      case MsgType::kReplyUpdateEdges: (void)serve::parse_payload<serve::UpdateEdgesReply>(decoded); break;
      case MsgType::kReplyVerify: (void)serve::parse_payload<serve::VerifyReply>(decoded); break;
      case MsgType::kReplyMetrics: (void)serve::parse_payload<serve::MetricsReply>(decoded); break;
      default: break;
    }
  }
}

enum Attach : std::size_t { kDetached, kDaemon, kTraced, kAttachModes };

struct Replay {
  std::array<std::vector<double>, kKinds> handle_ms;
  double total_ms = 0;
  std::map<std::string, double> layer_ms;  ///< self time per span name
  double covered_ms = 0;
  double round_ms = 0;
  double exact_rounds = 0, exact_messages = 0, exact_bits = 0;
  double messages = 0;
};

/// Moves the service's spans of one request from the span clock into the
/// log under that request's handle span and adds up their self times. A
/// sim.run outside fault.resilient_mis is a certify_labels verifier run.
void add_service_spans(SpanClock& clock, int handle_span, SpanLog& log,
                       Replay& out) {
  std::map<std::uint64_t, int> index_of;
  const std::size_t first = log.size();
  for (const SpanClock::Raw& r : clock.take()) {
    const auto parent = index_of.find(r.parent);
    index_of[r.id] = log.add(r.name, r.start, r.end,
                             parent == index_of.end() ? handle_span
                                                      : parent->second);
  }
  for (std::size_t i = first; i < log.size(); ++i) {
    const Span& sp = log.spans()[i];
    if (sp.name != "sim.run") continue;
    const Span& parent = log.spans()[static_cast<std::size_t>(sp.parent)];
    if (parent.name != "fault.resilient_mis") {
      out.layer_ms["certify"] += static_cast<double>(sp.end - sp.start) / 1e6;
    }
  }
  for (const auto& [name, self] : log.self_ms(first)) out.layer_ms[name] += self;
  out.covered_ms += log.children_ms(handle_span);
}

/// Replays the recorded frames through three in-process services in
/// lockstep: detached, with the daemon's registry + flight recorder, and
/// with those plus the span clock and the profiler. Frame by frame the
/// order of the three rotates, so that neither drift nor warm caches favour
/// one of them.
std::array<Replay, kAttachModes> replay(const std::vector<const Sent*>& order,
                                        SpanLog& log, Report& report) {
  std::array<Replay, kAttachModes> out;
  std::array<serve::MisService, kAttachModes> services;
  std::array<obs::Registry, kAttachModes> registries;
  std::array<obs::FlightRecorder, kAttachModes> recorders;
  for (obs::FlightRecorder& r : recorders) {
    r.attach_manifest(obs::make_manifest("arbmis_serve"));
  }
  SpanClock clock;
  obs::Profiler profiler;
  bool exact_done = false;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Sent& sent = *order[i];
    if (!exact_done && sent.cycle >= kExactCycles) {
      exact_done = true;
      const obs::Registry& reg = registries[kDaemon];
      out[kDaemon].exact_rounds = static_cast<double>(reg.counter("sim.rounds"));
      out[kDaemon].exact_messages = static_cast<double>(reg.counter("sim.messages"));
      out[kDaemon].exact_bits = static_cast<double>(reg.counter("sim.payload_bits"));
    }
    for (std::size_t k = 0; k < kAttachModes; ++k) {
      const std::size_t mode = (i + k) % kAttachModes;
      std::optional<obs::ScopedRegistry> registry_scope;
      std::optional<obs::ScopedRecorder> recorder_scope;
      std::optional<obs::ScopedSink> sink_scope;
      std::optional<obs::ScopedProfiler> profiler_scope;
      if (mode != kDetached) {
        registry_scope.emplace(&registries[mode]);
        recorder_scope.emplace(&recorders[mode]);
      }
      if (mode == kTraced) {
        sink_scope.emplace(&clock);
        profiler_scope.emplace(&profiler);
      }
      const int handle_span = mode == kTraced ? log.open("serve.handle") : -1;
      const std::uint64_t t0 = now_ns();
      const Frame reply = services[mode].handle(sent.request);
      const double ms = ms_since(t0);
      if (handle_span >= 0) log.close(handle_span);
      out[mode].handle_ms[sent.kind].push_back(ms);
      out[mode].total_ms += ms;
      report.check(same_answer(sent, reply));
      if (mode == kTraced) add_service_spans(clock, handle_span, log, out[mode]);
    }
  }
  out[kTraced].messages =
      static_cast<double>(registries[kTraced].counter("sim.messages"));
  out[kTraced].round_ms =
      chrome_trace_total_ms(profiler.to_chrome_trace_json(), "net.round");
  return out;
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  if (args.daemon.empty()) throw std::runtime_error("--daemon is required");
  // Daemon start-up takes milliseconds, so take the median of more tries.
  // The daemon writes its port file once it listens; no probe connection
  // is made, so that the daemon serves exactly the clients of the pass.
  std::unique_ptr<Daemon> daemon;
  const double setup_s = median_setup_s(25, [&] {
    if (daemon) daemon->stop();
    daemon = std::make_unique<Daemon>(args.daemon, args.workdir + "/port");
  });

  if (!args.trace) {
    // Warm-up on graphs of its own (salt 2), so that the measured pass runs
    // against a daemon whose heap is already faulted in.
    run_pass(daemon->port(), kClients, args.seed, 2,
             std::min(2.0, args.seconds / 8), false, report);
    const Pass pass = run_pass(daemon->port(), kClients, args.seed, 0,
                               args.seconds, false, report);
    daemon->stop();
    report.metrics["setup_s"] = setup_s;
    report.metrics["solve_ms_p50"] = median(pass.latencies(kComputeMiss));
    report.metrics["req_per_s"] = pass.total(&ClientLog::requests) / pass.wall_s;
    report.metrics["peak_rss_mb"] = peak_rss_mb(RUSAGE_CHILDREN);
    record_pass_detail(pass, report);
    return;
  }

  // One client, then two (recorded) against the same daemon.
  const Pass single = run_pass(daemon->port(), 1, args.seed, 1,
                               args.seconds / 4, false, report);
  const Pass pair = run_pass(daemon->port(), kClients, args.seed, 0,
                             args.seconds / 4, true, report);
  daemon->stop();
  record_pass_detail(pair, report);

  const std::vector<const Sent*> order = replay_order(pair);
  SpanLog log;
  const double faults = minor_faults();
  std::array<Replay, kAttachModes> replays = replay(order, log, report);
  report.metrics["os.minor_faults"] =
      (minor_faults() - faults) /
      static_cast<double>(std::size_t{kAttachModes} * order.size());
  const Replay& detached = replays[kDetached];
  const Replay& attached = replays[kDaemon];
  Replay& traced = replays[kTraced];

  std::vector<double> codec_us;
  for (const Sent* s : order) {
    const std::uint64_t t0 = now_ns();
    codec_roundtrip(*s);
    codec_us.push_back(ms_since(t0) * 1e3);
  }

  const double requests = static_cast<double>(order.size());
  auto& m = report.metrics;
  m["sim.network_run_ms"] = traced.layer_ms["sim.run"] / requests;
  m["sim.round_ms"] = traced.round_ms / requests;
  m["sim.rounds"] = attached.exact_rounds;
  m["sim.messages"] = attached.exact_messages;
  m["sim.payload_bits"] = attached.exact_bits;
  m["sim.ns_per_message"] =
      traced.layer_ms["sim.run"] * 1e6 / traced.messages;
  m["fault.resilient_mis_ms"] =
      traced.layer_ms["fault.resilient_mis"] / requests;
  m["fault.certify_ms"] = traced.layer_ms["certify"] / requests;
  m["fault.attempts"] = pair.total(&ClientLog::exact_attempts);

  const std::pair<Kind, const char*> kinds[] = {
      {kComputeMiss, "compute_miss"}, {kQuery, "query"}, {kUpdate, "update"}};
  for (const auto& [kind, name] : kinds) {
    const double handle = mean(attached.handle_ms[kind]);
    const double one = mean(single.latencies(kind));
    m[std::string("serve.handle_ms.") + name] = handle;
    m[std::string("serve.transport_ms.") + name] = one - handle;
    m[std::string("serve.lock_wait_ms.") + name] =
        mean(pair.latencies(kind)) - one;
  }
  double self_ms = traced.layer_ms["serve.repair"];
  for (const char* op : {"load_graph", "compute_mis", "query", "update_edges",
                         "verify", "metrics"}) {
    self_ms += traced.layer_ms[op];
  }
  m["serve.self_ms"] = self_ms / requests;
  m["serve.codec_us"] = mean(codec_us);
  m["serve.compute_miss_ms_p50"] = median(pair.latencies(kComputeMiss));
  m["serve.update_ms_p50"] = percentile(pair.latencies(kUpdate), 50);
  m["serve.update_ms_p90"] = percentile(pair.latencies(kUpdate), 90);
  m["serve.query_ms_p50"] = percentile(pair.latencies(kQuery), 50);
  m["serve.query_ms_p99"] = percentile(pair.latencies(kQuery), 99);
  m["serve.cache_hit_ratio"] =
      pair.total(&ClientLog::hits) / pair.total(&ClientLog::lookups);
  const double updates = static_cast<double>(pair.latencies(kUpdate).size());
  m["serve.incremental_ratio"] = pair.total(&ClientLog::incremental) / updates;
  m["serve.residual_nodes_mean"] = pair.total(&ClientLog::residual_sum) / updates;
  m["serve.cache_hits"] = pair.total(&ClientLog::exact_hits);
  m["serve.repairs_incremental"] = pair.total(&ClientLog::exact_incremental);
  m["obs.attached_overhead_frac"] = attached.total_ms / detached.total_ms - 1.0;
  m["trace.coverage"] = traced.covered_ms / traced.total_ms;
  m["trace.overhead_frac"] = traced.total_ms / attached.total_ms - 1.0;
  report.detail["replayed_requests"] = requests;
  if (!args.trace_out.empty()) log.write_jsonl(args.trace_out);
}

}  // namespace perfbench
