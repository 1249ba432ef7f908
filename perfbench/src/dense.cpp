// Dense workloads: dense-tcp, sync-n64 and chain-rw.
//
// Each run assembles a cluster from the public classes (ps::Server,
// ps::WorkerClient, replica::ReplicaNode over net::TcpTransport or
// net::InprocTransport), drives it in a closed loop from at most four
// threads, and checks the outputs: final parameters equal w0 + Σ updates / N,
// pushes_applied() is exact, the staleness served stays within s, and chain
// replicas are bit-identical to their heads.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "harness.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"
#include "ps/server.h"
#include "ps/slicing.h"
#include "ps/worker.h"
#include "replay.h"
#include "replica/replica_node.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace fluentps;

constexpr std::int64_t kWarmupRounds = 3;
/// Independent trials per untraced run, each a fresh cluster and window.
constexpr int kTrials = 20;
constexpr std::size_t kPool = 4;  ///< precomputed updates per worker, used round-robin
constexpr std::uint64_t kQuiesceTimeoutNs = 20'000'000'000ull;

struct DenseConfig {
  bool tcp = false;
  std::uint32_t servers = 2;
  std::uint32_t workers = 4;         ///< training workers
  std::uint32_t writer_threads = 4;  ///< workers are split evenly across them
  std::size_t model = 0;             ///< floats
  std::size_t chunk = 1024;          ///< EPS slice size
  ps::SyncModelSpec sync;
  bool reliable = false;
  bool chain = false;       ///< r = 2: head ps::Server + tail ReplicaNode per shard
  std::uint32_t fleet = 0;  ///< bounded-read clients, one thread each
  std::int64_t read_staleness = 3;
};

/// Generated from the seed before any cluster exists. Each worker cycles
/// through kPool updates {u, -u, v, -v + d}, so parameters stay bounded.
/// Every value is a multiple of 2^-10 and N is a power of two, so every
/// partial sum w0 + Σ g/N is exactly representable: the final parameters
/// must equal the double-precision expectation exactly, in any apply order.
struct DenseInputs {
  std::vector<float> w0;
  std::vector<std::vector<std::vector<float>>> pool;  // [worker][k][param]
};

DenseInputs make_inputs(const DenseConfig& cfg, std::uint64_t seed) {
  DenseInputs in;
  Rng rng(seed, 0xD0);
  in.w0.resize(cfg.model);
  auto grid = [&rng](std::int64_t lim) {
    return std::ldexp(static_cast<float>(rng.uniform_int(-lim, lim)), -10);
  };
  for (float& x : in.w0) x = grid(1024);
  in.pool.resize(cfg.workers);
  for (std::uint32_t w = 0; w < cfg.workers; ++w) {
    auto& p = in.pool[w];
    p.assign(kPool, std::vector<float>(cfg.model));
    for (std::size_t i = 0; i < cfg.model; ++i) {
      const float u = grid(1024);
      const float v = grid(1024);
      const float d = grid(4);
      p[0][i] = u;
      p[1][i] = -u;
      p[2][i] = v;
      p[3][i] = -v + d;
    }
  }
  return in;
}

net::NodeId server_node(std::uint32_t m) { return 1 + m; }

ps::SyncEngine::Spec engine_spec(const DenseConfig& cfg, std::uint32_t m) {
  ps::SyncEngine::Spec e;
  e.num_workers = cfg.workers;
  e.mode = ps::DprMode::kLazy;
  e.model = ps::make_sync_model(cfg.sync, cfg.workers);
  e.seed = derive_seed(0x5EED, m);
  return e;
}

/// One assembled cluster.
class DenseCluster {
 public:
  DenseCluster(const DenseConfig& cfg, const DenseInputs& in, Tracer* tracer) : cfg_(cfg) {
    ps::EpsSlicer slicer(cfg.chunk);
    sharding = slicer.shard({cfg.model}, cfg.servers);
    sharding.validate();

    if (tracer != nullptr) {
      for (std::uint32_t m = 0; m < cfg.servers; ++m) {
        tracer->set_role(server_node(m), Role::kServer);
        if (cfg.chain) tracer->set_role(replica_node(m), Role::kReplica);
      }
      for (std::uint32_t w = 0; w < cfg.workers; ++w) tracer->set_role(worker_node(w), Role::kWorker);
      for (std::uint32_t f = 0; f < cfg.fleet; ++f) {
        tracer->set_role(worker_node(cfg.workers + f), Role::kFleet);
      }
      tracer->record_engine_events(server_node(0));
    }

    // Transports: TCP = one server-side transport plus one per worker;
    // inproc = one bus. The traced run wraps each in the decorator.
    std::vector<net::Transport*> raw;
    if (cfg.tcp) {
      for (std::uint32_t i = 0; i <= cfg.workers; ++i) {
        tcp_.push_back(std::make_unique<net::TcpTransport>());
        raw.push_back(tcp_.back().get());
      }
    } else {
      bus_ = std::make_unique<net::InprocTransport>();
      raw.push_back(bus_.get());
    }
    for (net::Transport* t : raw) {
      if (tracer != nullptr) {
        traced_.push_back(std::make_unique<TracedTransport>(*t, *tracer, cfg.tcp));
        via_.push_back(traced_.back().get());
      } else {
        via_.push_back(t);
      }
    }

    std::vector<net::NodeId> worker_nodes;
    for (std::uint32_t w = 0; w < cfg.workers; ++w) worker_nodes.push_back(worker_node(w));
    for (std::uint32_t m = 0; m < cfg.servers; ++m) {
      ps::ServerSpec spec;
      spec.node_id = server_node(m);
      spec.server_rank = m;
      spec.num_workers = cfg.workers;
      spec.layout = sharding.shards[m];
      spec.initial_shard.resize(spec.layout.total);
      spec.layout.gather(in.w0, spec.initial_shard);
      spec.engine = engine_spec(cfg, m);
      spec.reliable = cfg.reliable;
      spec.worker_nodes = worker_nodes;
      spec.replica_successor = cfg.chain ? replica_node(m) : 0;
      servers.push_back(std::make_unique<ps::Server>(std::move(spec), transport_of_server()));
      ps::Server* s = servers.back().get();
      transport_of_server().register_node(server_node(m),
                                          [s](net::Message&& msg) { s->handle(std::move(msg)); });
      if (!cfg.chain) continue;
      replica::ReplicaSpec rspec;
      rspec.node_id = replica_node(m);
      rspec.server_rank = m;
      rspec.chain_pos = 1;
      rspec.num_workers = cfg.workers;
      rspec.initial_shard.resize(sharding.shards[m].total);
      sharding.shards[m].gather(in.w0, rspec.initial_shard);
      rspec.successor = 0;
      rspec.apply_scale = 1.0f / static_cast<float>(cfg.workers);
      replicas.push_back(
          std::make_unique<replica::ReplicaNode>(std::move(rspec), transport_of_server()));
      replica::ReplicaNode* r = replicas.back().get();
      transport_of_server().register_node(replica_node(m),
                                          [r](net::Message&& msg) { r->handle(std::move(msg)); });
    }

    std::uint16_t port = 0;
    if (cfg.tcp) port = tcp_[0]->listen();
    for (std::uint32_t i = 0; i < cfg.workers + cfg.fleet; ++i) {
      const bool fleet = i >= cfg.workers;
      ps::WorkerSpec spec;
      spec.node_id = worker_node(i);
      spec.worker_rank = i;
      for (std::uint32_t m = 0; m < cfg.servers; ++m) spec.server_nodes.push_back(server_node(m));
      spec.sharding = &sharding;
      spec.reliable = cfg.reliable && !fleet;  // fleet: the bounded-read ladder retransmits
      spec.retry.initial_timeout = 0.5;
      spec.retry.max_timeout = 2.0;
      spec.seed = derive_seed(0xF1EE7, i);
      if (cfg.chain) {
        spec.read_replicas.resize(cfg.servers);
        for (std::uint32_t m = 0; m < cfg.servers; ++m) spec.read_replicas[m] = {replica_node(m)};
      }
      net::Transport& t = transport_of_worker(i);
      clients.push_back(std::make_unique<ps::WorkerClient>(std::move(spec), t));
      acks.push_back(std::make_unique<AckTrack>(cfg.servers));
      ps::WorkerClient* c = clients.back().get();
      AckTrack* a = cfg.reliable && !fleet ? acks.back().get() : nullptr;
      t.register_node(worker_node(i), [c, a](net::Message&& msg) {
        if (a != nullptr && msg.type == net::MsgType::kPushAck) a->on_ack(msg.progress);
        c->handle(std::move(msg));
      });
      if (cfg.tcp) {
        net::TcpTransport& tt = *tcp_[1 + i];
        (void)tt.listen();  // advertised to the server side through hello frames
        for (std::uint32_t m = 0; m < cfg.servers; ++m) {
          tt.add_route(server_node(m), "127.0.0.1", port);
        }
      }
    }
  }

  DenseCluster(const DenseCluster&) = delete;
  DenseCluster& operator=(const DenseCluster&) = delete;

  void shutdown() {
    for (auto& t : tcp_) t->shutdown();
    if (bus_) bus_->shutdown();
  }

  [[nodiscard]] net::NodeId replica_node(std::uint32_t m) const { return 1 + cfg_.servers + m; }
  [[nodiscard]] net::NodeId worker_node(std::uint32_t i) const {
    return 1 + cfg_.servers * (cfg_.chain ? 2 : 1) + i;
  }

  [[nodiscard]] std::int64_t pushes_applied() const {
    std::int64_t n = 0;
    for (const auto& s : servers) n += s->pushes_applied();
    return n;
  }

  [[nodiscard]] std::uint64_t tcp_frames() const {
    std::uint64_t n = 0;
    for (const auto& t : tcp_) n += t->frames_sent();
    return n;
  }
  [[nodiscard]] std::uint64_t tcp_bytes() const {
    std::uint64_t n = 0;
    for (const auto& t : tcp_) n += t->bytes_sent();
    return n;
  }
  [[nodiscard]] std::uint64_t tcp_recv_allocations() const {
    std::uint64_t n = 0;
    for (const auto& t : tcp_) n += t->recv_allocations();
    return n;
  }
  [[nodiscard]] std::uint64_t inproc_delivered() const { return bus_ ? bus_->delivered() : 0; }

  ps::Sharding sharding;
  std::vector<std::unique_ptr<ps::Server>> servers;
  std::vector<std::unique_ptr<replica::ReplicaNode>> replicas;
  std::vector<std::unique_ptr<ps::WorkerClient>> clients;  ///< training workers, then fleet
  std::vector<std::unique_ptr<AckTrack>> acks;

 private:
  net::Transport& transport_of_server() { return *via_[0]; }
  net::Transport& transport_of_worker(std::uint32_t i) { return cfg_.tcp ? *via_[1 + i] : *via_[0]; }

  const DenseConfig& cfg_;
  // Declared after the components and destroyed first, on every path: the
  // transports join their threads before the decorators and components those
  // threads call into go away.
  std::vector<std::unique_ptr<TracedTransport>> traced_;
  std::vector<net::Transport*> via_;
  std::vector<std::unique_ptr<net::TcpTransport>> tcp_;
  std::unique_ptr<net::InprocTransport> bus_;
};

/// What one timed window measured.
struct DenseRun {
  double setup_s = 0.0;
  double window_s = 0.0;
  std::int64_t rounds = 0;        ///< rounds every worker ran, warm-up included
  std::uint64_t timed_iters = 0;  ///< worker iterations inside the window
  std::vector<double> round_us, pull_us, push_ack_us, read_us;
  std::uint64_t reads = 0;
  // Program counters, read after the transports stopped.
  std::int64_t retries = 0;
  std::int64_t violations = 0;
  std::int64_t applied = 0;
  std::int64_t sweeps = 0;
  std::size_t max_batch = 0;
  std::int64_t ring_stalls = 0;
  std::int64_t dedup_hits = 0;
  std::int64_t dprs = 0;
  double blocked_s = 0.0;
  std::uint64_t tcp_frames = 0, tcp_bytes = 0, tcp_recv_allocations = 0, inproc_delivered = 0;
  std::int64_t reads_served = 0, read_fallbacks = 0, replica_reads = 0, head_reads = 0;
  std::int64_t fleet_pulls = 0;

  [[nodiscard]] double iters_per_s() const {
    return window_s > 0.0 ? static_cast<double>(timed_iters) / window_s : 0.0;
  }
};

struct ThreadStats {
  std::vector<double> round_us, pull_us, push_ack_us;
  std::vector<std::pair<std::uint64_t, double>> reads;  // (completion ns, latency us)
  std::uint64_t finish_ns = 0;
};

std::int64_t max_staleness(const IntHistogram& h) {
  if (h.overflow() > 0) return static_cast<std::int64_t>(h.max_value()) + 1;
  std::int64_t hi = 0;
  for (std::size_t v = 0; v <= h.max_value(); ++v) {
    if (h.bucket(v) > 0) hi = static_cast<std::int64_t>(v);
  }
  return hi;
}

void check_outputs(const DenseConfig& cfg, const DenseInputs& in, DenseCluster& cl,
                   std::int64_t rounds, Report& report) {
  const auto expected_pushes = static_cast<std::int64_t>(cfg.workers) * rounds;
  for (std::uint32_t m = 0; m < cfg.servers; ++m) {
    report.check(cl.servers[m]->pushes_applied() == expected_pushes,
                 "server " + std::to_string(m) + " applied " +
                     std::to_string(cl.servers[m]->pushes_applied()) + " pushes, expected " +
                     std::to_string(expected_pushes));
  }

  // Final parameters against w0 + Σ updates / N, computed in double.
  std::vector<float> got(cfg.model);
  for (const auto& s : cl.servers) s->snapshot_into(got);
  std::vector<double> expect(in.w0.begin(), in.w0.end());
  for (std::uint32_t w = 0; w < cfg.workers; ++w) {
    for (std::size_t k = 0; k < kPool; ++k) {
      const auto uses = static_cast<double>(rounds / static_cast<std::int64_t>(kPool) +
                                            (static_cast<std::int64_t>(k) <
                                                     rounds % static_cast<std::int64_t>(kPool)
                                                 ? 1
                                                 : 0));
      const double scale = uses / static_cast<double>(cfg.workers);
      const auto& u = in.pool[w][k];
      for (std::size_t i = 0; i < cfg.model; ++i) expect[i] += scale * u[i];
    }
  }
  double max_err = 0.0;
  for (std::size_t i = 0; i < cfg.model; ++i) {
    max_err = std::max(max_err, std::fabs(static_cast<double>(got[i]) - expect[i]));
  }
  std::ostringstream os;
  os << "final params differ from w0 + sum(updates)/N by " << max_err
     << " (values on a 2^-10 grid sum exactly)";
  report.check(max_err == 0.0, os.str());

  if (cfg.sync.kind == "ssp" || cfg.sync.kind == "pssp") {
    for (std::uint32_t m = 0; m < cfg.servers; ++m) {
      const std::int64_t st = max_staleness(cl.servers[m]->engine().staleness_served());
      report.check(st <= cfg.sync.staleness, "server " + std::to_string(m) + " served staleness " +
                                                 std::to_string(st) + " > s");
    }
  }
  if (cfg.chain) {
    for (std::uint32_t m = 0; m < cfg.servers; ++m) {
      const std::vector<float> head = cl.servers[m]->snapshot();
      const std::vector<float> tail = cl.replicas[m]->snapshot();
      report.check(head.size() == tail.size() &&
                       std::memcmp(head.data(), tail.data(), head.size() * sizeof(float)) == 0,
                   "chain " + std::to_string(m) + ": head and tail snapshots differ");
    }
  }
}

/// Build a cluster, warm it up, run a closed-loop window of `window_s`
/// seconds (0 = stop after warm-up), quiesce, check, and collect counters.
DenseRun run_window(const DenseConfig& cfg, const DenseInputs& in, Tracer* tr, double window_s,
                    Report& report) {
  DenseRun run;
  const std::uint64_t t_setup = now_ns();
  DenseCluster cl(cfg, in, tr);

  RoundGate gate;
  std::uint64_t t0 = 0;
  const std::uint32_t threads = cfg.writer_threads + cfg.fleet;
  std::barrier start(static_cast<std::ptrdiff_t>(threads), [&]() noexcept {
    t0 = now_ns();
    gate.set_deadline(t0 + static_cast<std::uint64_t>(window_s * 1e9));
  });
  std::atomic<std::uint32_t> writers_running{cfg.writer_threads};
  std::vector<ThreadStats> stats(threads);
  const std::uint32_t per_thread = cfg.workers / cfg.writer_threads;

  auto writer = [&](std::uint32_t t) {
    ThreadStats& st = stats[t];
    const std::uint32_t first = t * per_thread;
    struct W {
      std::vector<float> params;
      std::uint64_t ticket = 0;
      std::uint64_t push_call = 0, push_ret = 0, prev_push_ret = 0, pull_call = 0;
    };
    std::vector<W> ws(per_thread);
    for (W& w : ws) w.params.resize(cfg.model);
    // push→ack of worker k's round `round`: from its push() return to the
    // arrival `done` of the round's last kPushAck (0 = never arrived).
    auto record_ack = [&](std::uint32_t k, std::int64_t round, std::uint64_t done) {
      if (done == 0 || round < kWarmupRounds) return;
      const std::uint64_t from = ws[k].prev_push_ret;
      st.push_ack_us.push_back(static_cast<double>(done > from ? done - from : 0) * 1e-3);
      if (tr != nullptr) {
        tr->span({tr->next_span_id(), 0, from, std::max(done, from),
                  {RequestKey::kPushReq, first + k, 0, round}, cl.worker_node(first + k),
                  SpanKind::kPushAck, net::MsgType::kPushAck});
      }
    };
    std::int64_t r = 0;
    for (;; ++r) {
      if (r == kWarmupRounds) start.arrive_and_wait();
      if (!gate.begin(r)) break;
      const bool timed = r >= kWarmupRounds;
      for (std::uint32_t k = 0; k < per_thread; ++k) {
        W& w = ws[k];
        const std::uint32_t id = first + k;
        w.push_call = now_ns();
        cl.clients[id]->push(in.pool[id][static_cast<std::size_t>(r) % kPool], r);
        w.push_ret = now_ns();
        if (tr != nullptr) {
          tr->sample(Series::kWorkerPushCall, w.push_ret - w.push_call);
          tr->span({tr->next_span_id(), 0, w.push_call, w.push_ret,
                    {RequestKey::kPushReq, id, 0, r}, cl.worker_node(id), SpanKind::kPushCall,
                    net::MsgType::kPush});
        }
        // push(r) returned only after round r-1 was fully acked.
        if (cfg.reliable && r > 0) record_ack(k, r - 1, cl.acks[id]->done(r - 1));
        w.prev_push_ret = w.push_ret;
      }
      for (std::uint32_t k = 0; k < per_thread; ++k) {
        W& w = ws[k];
        w.pull_call = now_ns();
        w.ticket = cl.clients[first + k]->pull(ps::KeyRange::all(), ps::ReadOptions{.clock = r});
        if (tr != nullptr) {
          tr->span({tr->next_span_id(), 0, w.pull_call, now_ns(),
                    {RequestKey::kPullReq, 0, 0, static_cast<std::int64_t>(w.ticket)},
                    cl.worker_node(first + k), SpanKind::kPullCall, net::MsgType::kPull});
        }
      }
      for (std::uint32_t k = 0; k < per_thread; ++k) {
        W& w = ws[k];
        const std::uint32_t id = first + k;
        cl.clients[id]->wait_pull(w.ticket, w.params);
        const std::uint64_t t_end = now_ns();
        if (timed) {
          st.pull_us.push_back(static_cast<double>(t_end - w.pull_call) * 1e-3);
          st.round_us.push_back(static_cast<double>(t_end - w.push_call) * 1e-3);
        }
        if (tr != nullptr) {
          const RequestKey key{RequestKey::kPullReq, 0, 0, static_cast<std::int64_t>(w.ticket)};
          const std::uint64_t last = tr->last_pull_resp_ns(cl.worker_node(id));
          if (last >= w.pull_call && last <= t_end) {
            tr->sample(Series::kWorkerWake, t_end - last);
            tr->span({tr->next_span_id(), 0, last, t_end, key, cl.worker_node(id),
                      SpanKind::kWake, net::MsgType::kPullResp});
          }
          tr->span({tr->next_span_id(), 0, w.pull_call, t_end, key, cl.worker_node(id),
                    SpanKind::kPull, net::MsgType::kPull});
        }
      }
    }
    // The last round's acks: wait for them, so every push is applied (and
    // replicated) before the outputs are checked.
    if (cfg.reliable && r > 0) {
      for (std::uint32_t k = 0; k < per_thread; ++k) {
        const std::uint64_t give_up = now_ns() + kQuiesceTimeoutNs;
        std::uint64_t done = 0;
        while ((done = cl.acks[first + k]->done(r - 1)) == 0 && now_ns() < give_up) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        record_ack(k, r - 1, done);
      }
    }
    st.finish_ns = now_ns();
    writers_running.fetch_sub(1);
  };

  auto reader = [&](std::uint32_t t) {
    ThreadStats& st = stats[t];
    ps::WorkerClient& c = *cl.clients[cfg.workers + (t - cfg.writer_threads)];
    std::vector<float> out(cfg.model);
    std::int64_t clock = 0;
    bool warm = true;
    for (;;) {
      ps::ReadOptions opts;
      opts.clock = clock;
      opts.max_staleness_clocks = cfg.read_staleness;
      opts.consistency = ps::Consistency::kBounded;
      opts.prefer_replica = true;
      const std::uint64_t t_call = now_ns();
      c.wait_pull(c.pull(ps::KeyRange::all(), opts), out);
      const std::uint64_t t_done = now_ns();
      clock = std::max(clock, c.observed_horizon());
      if (warm) {
        warm = false;
        start.arrive_and_wait();
        continue;
      }
      st.reads.emplace_back(t_done, static_cast<double>(t_done - t_call) * 1e-3);
      if (writers_running.load() == 0) break;
    }
    st.finish_ns = now_ns();
  };

  {
    std::vector<std::jthread> pool;
    for (std::uint32_t t = 0; t < cfg.writer_threads; ++t) pool.emplace_back(writer, t);
    for (std::uint32_t t = cfg.writer_threads; t < threads; ++t) pool.emplace_back(reader, t);
  }
  run.setup_s = seconds_between(t_setup, t0);
  run.rounds = gate.rounds();
  std::uint64_t t_end = t0;
  for (std::uint32_t t = 0; t < cfg.writer_threads; ++t) t_end = std::max(t_end, stats[t].finish_ns);
  run.window_s = seconds_between(t0, t_end);
  run.timed_iters = static_cast<std::uint64_t>(cfg.workers) *
                    static_cast<std::uint64_t>(std::max<std::int64_t>(run.rounds - kWarmupRounds, 0));
  for (ThreadStats& st : stats) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(run.round_us, st.round_us);
    append(run.pull_us, st.pull_us);
    append(run.push_ack_us, st.push_ack_us);
    for (const auto& [done, us] : st.reads) {
      if (done > t_end) continue;  // only reads inside the training window
      run.read_us.push_back(us);
      ++run.reads;
    }
  }

  // Unreliable pushes are never acked: wait until every one was applied.
  const std::int64_t expected = static_cast<std::int64_t>(cfg.workers) * run.rounds;
  const std::uint64_t give_up = now_ns() + kQuiesceTimeoutNs;
  while (cl.pushes_applied() < expected && now_ns() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  cl.shutdown();

  check_outputs(cfg, in, cl, run.rounds, report);
  for (std::uint32_t i = 0; i < cfg.workers + cfg.fleet; ++i) {
    const ps::WorkerClient& c = *cl.clients[i];
    run.retries += c.retries();
    run.violations += c.read_violations();
    if (i < cfg.workers) {
      run.blocked_s += c.blocked_seconds();
    } else {
      run.replica_reads += c.replica_reads();
      run.head_reads += c.head_reads();
    }
  }
  for (std::uint32_t t = cfg.writer_threads; t < threads; ++t) {
    run.fleet_pulls += static_cast<std::int64_t>(stats[t].reads.size()) + 1;  // + warm-up read
  }
  report.check(run.violations == 0,
               "bounded reads violated their staleness bound " + std::to_string(run.violations) +
                   " times");
  for (const auto& s : cl.servers) {
    run.applied += s->pushes_applied();
    run.sweeps += s->apply_sweeps();
    run.max_batch = std::max(run.max_batch, s->max_batch());
    run.ring_stalls += s->ring_stalls();
    run.dedup_hits += s->dedup_hits();
    run.dprs += s->engine().dpr_total();
  }
  for (const auto& r : cl.replicas) {
    run.reads_served += r->reads_served();
    run.read_fallbacks += r->read_fallbacks();
  }
  run.tcp_frames = cl.tcp_frames();
  run.tcp_bytes = cl.tcp_bytes();
  run.tcp_recv_allocations = cl.tcp_recv_allocations();
  run.inproc_delivered = cl.inproc_delivered();
  return run;
}

/// End-to-end numbers only some workloads have: push→ack latency (reliable
/// writers) and the read fleet's throughput and latency.
void add_extras(const DenseConfig& cfg, const DenseRun& run, Trials& t) {
  if (cfg.reliable) t.add_latency("push_ack", run.push_ack_us);
  if (cfg.fleet > 0) {
    t.add("reads_per_s", run.window_s > 0 ? static_cast<double>(run.reads) / run.window_s : 0.0,
          "1/s", run.reads);
    t.add_latency("read", run.read_us);
  }
}

double p50(std::vector<double> v) { return percentile(v, 0.5); }

void report_layers(const DenseConfig& cfg, const DenseRun& run, const DenseRun& untraced,
                   const Tracer& tr, Report& report) {
  const double iters = static_cast<double>(cfg.workers) * static_cast<double>(run.rounds);
  // net
  report.detail_p50("net.push.send_us", tr.series_us(Series::kPushSend));
  report.detail_p50("net.pull_resp.send_us", tr.series_us(Series::kPullRespSend));
  if (cfg.tcp) {
    report.detail_p50("net.push.transit_us", tr.series_us(Series::kPushTransitTcp));
    report.detail_p50("net.pull_resp.transit_us", tr.series_us(Series::kPullRespTransitTcp));
    const CodecReplay codec = replay_codec(tr.frame_mix(), static_cast<std::uint64_t>(iters), 300);
    report.detail("net.codec.serialize_us", p50(codec.serialize_us), "us",
                  "p50 per iteration's frame mix, n=" + std::to_string(codec.serialize_us.size()));
    report.detail(
        "net.codec.deserialize_us", p50(codec.deserialize_us), "us",
        "p50 per iteration's frame mix, n=" + std::to_string(codec.deserialize_us.size()));
    report.detail("net.bytes_per_iter", static_cast<double>(run.tcp_bytes) / iters, "B/iter",
                  "TcpTransport bytes_sent");
    report.detail("net.frames_per_iter", static_cast<double>(run.tcp_frames) / iters,
                  "frames/iter", "TcpTransport frames_sent");
    report.detail("net.tcp.recv_allocations", static_cast<double>(run.tcp_recv_allocations),
                  "count", "all connections");
  } else {
    report.detail_p50("net.inproc.transit_us", tr.series_us(Series::kInprocTransit));
    report.detail("net.inproc.delivered_per_iter",
                  static_cast<double>(run.inproc_delivered) / iters, "msgs/iter",
                  "InprocTransport delivered");
  }

  // ps: apply
  report.detail("ps.combiner.batch_mean",
                run.sweeps > 0 ? static_cast<double>(run.applied) / static_cast<double>(run.sweeps)
                              : 0.0,
                "pushes", "pushes_applied/apply_sweeps");
  report.detail("ps.combiner.max_batch", static_cast<double>(run.max_batch), "pushes", "max");
  report.detail("ps.combiner.ring_stalls", static_cast<double>(run.ring_stalls), "count", "sum");
  if (cfg.reliable) {
    report.detail("ps.server.dedup_hits", static_cast<double>(run.dedup_hits), "count", "sum");
  }

  // ps: sync engine, replayed standalone from the first server's recorded
  // arrival sequence.
  const EngineReplay er = replay_sync_engine(tr.engine_events(), engine_spec(cfg, 0));
  if (!er.on_push_ns.empty()) {
    report.detail("ps.sync_engine.on_push_ns", p50(er.on_push_ns), "ns",
                  "replay p50, n=" + std::to_string(er.on_push_ns.size()));
  }
  if (!er.on_pull_ns.empty()) {
    report.detail("ps.sync_engine.on_pull_ns", p50(er.on_pull_ns), "ns",
                  "replay p50, n=" + std::to_string(er.on_pull_ns.size()));
  }
  report.detail_latency("ps.dpr_wait", tr.series_us(Series::kDprWait));
  report.detail("ps.dprs_per_100_iters", 100.0 * static_cast<double>(run.dprs) / iters, "dprs",
                "engine dpr_total");

  // ps: worker client
  report.detail_p50("ps.worker.push_call_us", tr.series_us(Series::kWorkerPushCall));
  report.detail_p50("ps.worker.wake_us", tr.series_us(Series::kWorkerWake));
  report.detail("ps.worker.blocked_share",
                run.blocked_s / (run.window_s * static_cast<double>(cfg.workers)), "share",
                "blocked_seconds / (window x workers)");

  // replica
  if (cfg.chain) {
    report.detail_p50("replica.apply_us", tr.series_us(Series::kReplicaApply));
    report.detail_p50("replica.hop_us", tr.series_us(Series::kReplicaHop));
    report.detail_p50("replica.read_self_us", tr.series_us(Series::kReplicaReadSelf));
    const double shard_reads = static_cast<double>(run.replica_reads + run.head_reads);
    if (shard_reads > 0) {
      report.detail("replica.read_share", static_cast<double>(run.reads_served) / shard_reads,
                    "share", "reads_served / shard reads");
    }
    if (run.fleet_pulls > 0) {
      report.detail("replica.redirects_per_read",
                    static_cast<double>(run.read_fallbacks) / static_cast<double>(run.fleet_pulls),
                    "ratio", "read_fallbacks / fleet pulls");
    }
  }

  report_common_layers(tr,
                       {.iters = iters,
                        .push_self = Series::kServerPushSelf,
                        .pull_self = Series::kServerPullSelf,
                        .retries = static_cast<double>(run.retries),
                        .overhead = 1.0 - run.iters_per_s() / untraced.iters_per_s(),
                        .root = SpanKind::kPull},
                       report);
  const double ack_cov = layer_coverage(tr.spans(), SpanKind::kPushAck);
  if (ack_cov >= 0) report.detail("obs.layer_coverage.push_ack", ack_cov, "share", "median");
}

void run_dense(const DenseConfig& cfg, const RunOptions& opts, Report& report) {
  const DenseInputs in = make_inputs(cfg, opts.seed);
  if (!opts.trace) {
    Trials e2e;
    Trials extras;
    for (int k = 0; k < kTrials; ++k) {
      const DenseRun r = run_window(cfg, in, nullptr, opts.seconds / kTrials, report);
      e2e.add("setup_s", r.setup_s, "s");
      e2e.add("iters_per_s", r.iters_per_s(), "1/s", r.timed_iters);
      e2e.add_latency("round", r.round_us);
      e2e.add_latency("pull", r.pull_us);
      add_extras(cfg, r, extras);
      report.count_ops(r.timed_iters + r.reads,
                       static_cast<std::uint64_t>(r.retries + r.violations));
    }
    e2e.report(report, Trials::As::kEndToEnd);
    extras.report(report, Trials::As::kInfo);
    return;
  }
  // Traced: an untraced window, then a traced one, half the time each.
  const DenseRun base = run_window(cfg, in, nullptr, opts.seconds / 2, report);
  Trials extras;
  add_extras(cfg, base, extras);
  extras.report(report, Trials::As::kInfo);
  Tracer tracer(&now_ns);
  const DenseRun traced = run_window(cfg, in, &tracer, opts.seconds / 2, report);
  report_layers(cfg, traced, base, tracer, report);
  report.count_ops(base.timed_iters + base.reads + traced.timed_iters + traced.reads,
                   static_cast<std::uint64_t>(base.retries + base.violations + traced.retries +
                                              traced.violations));
  if (!opts.trace_out.empty()) {
    report.check(tracer.write_perfetto(opts.trace_out), "could not write " + opts.trace_out);
  }
}

}  // namespace

void run_dense_tcp(const RunOptions& opts, Report& report) {
  DenseConfig cfg;
  cfg.tcp = true;
  cfg.servers = 2;
  cfg.workers = 4;
  cfg.writer_threads = 4;
  cfg.model = 256 * 1024;
  cfg.chunk = 1024;
  cfg.sync = {.kind = "ssp", .staleness = 3};
  cfg.reliable = true;
  run_dense(cfg, opts, report);
}

void run_sync_n64(const RunOptions& opts, Report& report) {
  DenseConfig cfg;
  cfg.servers = 2;
  cfg.workers = 64;
  cfg.writer_threads = 4;
  cfg.model = 8 * 1024;
  cfg.chunk = 512;
  cfg.sync = {.kind = "pssp", .staleness = 3, .prob = 0.5};
  cfg.reliable = false;
  run_dense(cfg, opts, report);
}

void run_chain_rw(const RunOptions& opts, Report& report) {
  DenseConfig cfg;
  cfg.servers = 2;
  cfg.workers = 4;
  cfg.writer_threads = 2;
  cfg.model = 64 * 1024;
  cfg.chunk = 1024;
  cfg.sync = {.kind = "ssp", .staleness = 3};
  cfg.reliable = true;
  cfg.chain = true;
  cfg.fleet = 2;
  cfg.read_staleness = 3;
  run_dense(cfg, opts, report);
}

}  // namespace perfbench
