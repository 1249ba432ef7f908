// sparse-zipf: the embedding-table path (src/embed).
//
// Two SparseHosts and four SparseWorkerClients over inproc, one worker per
// load thread, each running BSP run_round over two tables with zipf-skewed
// rows and the round reducer on. The output check is the zero-lost oracle:
// the hosts' summed state_digest() equals a serial replay of exactly the
// batches the workers pushed, and that replay is itself checked against
// embed::reference_state_digest on a prefix of rounds.
#include <algorithm>
#include <barrier>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "embed/sparse_core.h"
#include "embed/sparse_host.h"
#include "embed/sparse_worker.h"
#include "embed/workload.h"
#include "harness.h"
#include "net/inproc_transport.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace fluentps;

constexpr std::int64_t kWarmupRounds = 3;
/// Independent trials per untraced run, each a fresh cluster and window.
constexpr int kTrials = 20;
constexpr std::uint32_t kServers = 2;
constexpr std::uint32_t kWorkers = 4;
/// Distinct sampled rounds per worker, cycled; the serial reference replays
/// the same cycle, so the oracle stays exact for any number of rounds.
constexpr std::int64_t kPoolRounds = 64;
constexpr std::int64_t kOraclePrefix = 8;

embed::SparseJobSpec make_job() {
  embed::TableSpec emb;
  emb.name = "emb";
  emb.table_id = 0;
  emb.dim = 32;
  emb.rows = 100'000;
  emb.opt.kind = ml::RowOptKind::kAdaGrad;
  emb.opt.lr = 0.05f;
  embed::TableSpec ads;
  ads.name = "ads";
  ads.table_id = 1;
  ads.dim = 16;
  ads.rows = 20'000;
  embed::SparseJobSpec job;
  job.tables = {emb, ads};
  job.num_workers = kWorkers;
  job.rounds = kPoolRounds;
  job.batch_rows = 256;
  job.zipf_s = 1.1;
  job.reduce = true;
  return job;
}

struct SparseInputs {
  embed::SparseJobSpec job;
  std::uint64_t seed = 0;
  std::vector<std::vector<std::vector<embed::SparseBatch>>> pool;  // [worker][round][table]
  std::vector<std::vector<std::uint64_t>> rows;                    // [worker][round]
};

/// Serial replay of the pooled batches on one unsharded core: the state
/// digest after each of `rounds` (ascending) rounds. Each round is ingested
/// and drained before the next, as the BSP round clock orders it in the
/// cluster; make_inputs checks this replay against
/// embed::reference_state_digest, which ingests everything first.
std::vector<std::uint64_t> reference_digests(const SparseInputs& in,
                                             const std::vector<std::int64_t>& rounds) {
  embed::SparseCoreSpec spec;
  spec.server_rank = 0;
  spec.num_workers = in.job.num_workers;
  spec.tables = in.job.tables;
  spec.seed = in.seed;
  spec.reduce = in.job.reduce;
  spec.stripes = 1;
  embed::SparseCore core(spec);
  std::vector<std::uint64_t> out;
  std::int64_t r = 0;
  for (const std::int64_t target : rounds) {
    for (; r < target; ++r) {
      for (std::uint32_t w = 0; w < in.job.num_workers; ++w) {
        for (const embed::SparseBatch& b : in.pool[w][static_cast<std::size_t>(r % kPoolRounds)]) {
          core.ingest(r, b, w);
        }
      }
      for (std::vector<std::uint32_t> ready = core.drainable(); !ready.empty();
           ready = core.drainable()) {
        for (const std::uint32_t t : ready) core.drain_one(t);
      }
    }
    out.push_back(core.digest());
  }
  return out;
}

/// Check every window's summed host digest against the serial replay of the
/// rounds it ran (computed once, after all timing).
void check_digests(const SparseInputs& in,
                   std::vector<std::pair<std::int64_t, std::uint64_t>> windows, Report& report) {
  std::sort(windows.begin(), windows.end());
  std::vector<std::int64_t> rounds;
  for (const auto& w : windows) rounds.push_back(w.first);
  const std::vector<std::uint64_t> want = reference_digests(in, rounds);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    report.check(windows[i].second == want[i],
                 "sparse state digest differs from the serial reference after " +
                     std::to_string(windows[i].first) + " rounds (lost or doubled updates)");
  }
}

SparseInputs make_inputs(std::uint64_t seed, Report& report) {
  SparseInputs in;
  in.job = make_job();
  in.seed = seed;
  in.pool.resize(kWorkers);
  in.rows.resize(kWorkers);
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    for (std::int64_t r = 0; r < kPoolRounds; ++r) {
      std::vector<embed::SparseBatch> batches;
      std::uint64_t rows = 0;
      for (const embed::TableSpec& t : in.job.tables) {
        batches.push_back(embed::sample_batch(in.job, t, seed, w, r));
        rows += batches.back().rows.size();
      }
      in.pool[w].push_back(std::move(batches));
      in.rows[w].push_back(rows);
    }
  }
  embed::SparseJobSpec prefix = in.job;
  prefix.rounds = kOraclePrefix;
  report.check(reference_digests(in, {kOraclePrefix}).front() ==
                   embed::reference_state_digest(prefix, seed),
               "pooled serial replay disagrees with embed::reference_state_digest");
  return in;
}

class SparseCluster {
 public:
  SparseCluster(const SparseInputs& in, Tracer* tracer) {
    bus_ = std::make_unique<net::InprocTransport>();
    net::Transport* t = bus_.get();
    if (tracer != nullptr) {
      traced_ = std::make_unique<TracedTransport>(*bus_, *tracer, false);
      t = traced_.get();
      for (std::uint32_t m = 0; m < kServers; ++m) tracer->set_role(host_node(m), Role::kSparseHost);
      for (std::uint32_t w = 0; w < kWorkers; ++w) {
        tracer->set_role(worker_node(w), Role::kSparseWorker);
      }
    }
    for (std::uint32_t m = 0; m < kServers; ++m) {
      embed::SparseHostSpec spec;
      spec.node_id = host_node(m);
      spec.core.server_rank = m;
      spec.core.num_workers = kWorkers;
      spec.core.tables = in.job.tables;
      spec.core.seed = in.seed;
      spec.core.reduce = in.job.reduce;
      hosts.push_back(std::make_unique<embed::SparseHost>(std::move(spec), *t));
      embed::SparseHost* h = hosts.back().get();
      t->register_node(host_node(m), [h](net::Message&& msg) { h->handle(std::move(msg)); });
    }
    for (std::uint32_t w = 0; w < kWorkers; ++w) {
      embed::SparseWorkerSpec spec;
      spec.node_id = worker_node(w);
      spec.worker_rank = w;
      for (std::uint32_t m = 0; m < kServers; ++m) spec.server_nodes.push_back(host_node(m));
      spec.tables = in.job.tables;
      spec.retry.initial_timeout = 0.5;
      spec.retry.max_timeout = 2.0;
      spec.seed = derive_seed(0x5FA5, w);
      clients.push_back(std::make_unique<embed::SparseWorkerClient>(std::move(spec), *t));
      acks.push_back(std::make_unique<AckTrack>(
          kServers * static_cast<std::uint32_t>(in.job.tables.size())));
      embed::SparseWorkerClient* c = clients.back().get();
      AckTrack* a = acks.back().get();
      t->register_node(worker_node(w), [c, a](net::Message&& msg) {
        if (msg.type == net::MsgType::kPushAck) a->on_ack(msg.progress);
        c->handle(std::move(msg));
      });
    }
  }

  SparseCluster(const SparseCluster&) = delete;
  SparseCluster& operator=(const SparseCluster&) = delete;

  void shutdown() { bus_->shutdown(); }
  [[nodiscard]] std::uint64_t delivered() const { return bus_->delivered(); }

  static net::NodeId host_node(std::uint32_t m) { return 1 + m; }
  static net::NodeId worker_node(std::uint32_t w) { return 1 + kServers + w; }

  std::vector<std::unique_ptr<embed::SparseHost>> hosts;
  std::vector<std::unique_ptr<embed::SparseWorkerClient>> clients;
  std::vector<std::unique_ptr<AckTrack>> acks;

 private:
  // Declared last and destroyed first: the bus joins its dispatch threads
  // before the decorator and components they call into go away.
  std::unique_ptr<TracedTransport> traced_;
  std::unique_ptr<net::InprocTransport> bus_;
};

struct SparseRun {
  double setup_s = 0.0;
  double window_s = 0.0;
  std::int64_t rounds = 0;
  std::uint64_t timed_rounds = 0;  ///< worker rounds inside the window
  std::uint64_t timed_rows = 0;
  std::vector<double> round_us, pull_us;
  std::int64_t retries = 0;
  std::uint64_t digest = 0;  ///< hosts' summed state_digest() (wrapping, as the oracle sums)
  std::int64_t rows_applied = 0;
  std::uint64_t ring_stalls = 0;
  std::uint64_t delivered = 0;

  [[nodiscard]] double rounds_per_s() const {
    return window_s > 0.0 ? static_cast<double>(timed_rounds) / window_s : 0.0;
  }
};

SparseRun run_window(const SparseInputs& in, Tracer* tr, double window_s) {
  SparseRun run;
  const std::uint64_t t_setup = now_ns();
  SparseCluster cl(in, tr);
  RoundGate gate;
  std::uint64_t t0 = 0;
  std::barrier start(kWorkers, [&]() noexcept {
    t0 = now_ns();
    gate.set_deadline(t0 + static_cast<std::uint64_t>(window_s * 1e9));
  });
  struct Stats {
    std::vector<double> round_us, pull_us;
    std::uint64_t rows = 0;
    std::uint64_t finish_ns = 0;
  };
  std::vector<Stats> stats(kWorkers);
  {
    std::vector<std::jthread> pool;
    for (std::uint32_t w = 0; w < kWorkers; ++w) {
      pool.emplace_back([&, w] {
        Stats& st = stats[w];
        for (std::int64_t r = 0;; ++r) {
          if (r == kWarmupRounds) start.arrive_and_wait();
          if (!gate.begin(r)) break;
          const auto k = static_cast<std::size_t>(r % kPoolRounds);
          const std::uint64_t t_call = now_ns();
          cl.clients[w]->run_round(r, in.pool[w][k]);
          const std::uint64_t t_end = now_ns();
          if (r < kWarmupRounds) continue;
          st.round_us.push_back(static_cast<double>(t_end - t_call) * 1e-3);
          const std::uint64_t acked = cl.acks[w]->done(r);
          if (acked >= t_call && acked <= t_end) {
            st.pull_us.push_back(static_cast<double>(t_end - acked) * 1e-3);
          }
          st.rows += in.rows[w][k];
          if (tr != nullptr) {
            tr->span({tr->next_span_id(), 0, t_call, t_end, {RequestKey::kSparseRound, w, 0, r},
                      SparseCluster::worker_node(w), SpanKind::kRound, net::MsgType::kSparsePush});
          }
        }
        st.finish_ns = now_ns();
      });
    }
  }
  run.setup_s = seconds_between(t_setup, t0);
  run.rounds = gate.rounds();
  std::uint64_t t_end = t0;
  for (Stats& st : stats) {
    t_end = std::max(t_end, st.finish_ns);
    run.round_us.insert(run.round_us.end(), st.round_us.begin(), st.round_us.end());
    run.pull_us.insert(run.pull_us.end(), st.pull_us.begin(), st.pull_us.end());
    run.timed_rows += st.rows;
  }
  run.window_s = seconds_between(t0, t_end);
  run.timed_rounds = kWorkers * static_cast<std::uint64_t>(
                                    std::max<std::int64_t>(run.rounds - kWarmupRounds, 0));
  cl.shutdown();

  for (const auto& h : cl.hosts) {
    run.digest += h->state_digest();
    run.rows_applied += h->rows_applied();
    run.ring_stalls += h->reducer_ring_stalls();
  }
  for (const auto& c : cl.clients) run.retries += c->retries();
  run.delivered = cl.delivered();
  return run;
}

}  // namespace

void run_sparse_zipf(const RunOptions& opts, Report& report) {
  const SparseInputs in = make_inputs(opts.seed, report);
  if (!opts.trace) {
    Trials e2e;
    Trials extras;
    std::vector<std::pair<std::int64_t, std::uint64_t>> digests;
    for (int k = 0; k < kTrials; ++k) {
      const SparseRun r = run_window(in, nullptr, opts.seconds / kTrials);
      digests.emplace_back(r.rounds, r.digest);
      e2e.add("setup_s", r.setup_s, "s");
      e2e.add("iters_per_s", r.rounds_per_s(), "1/s", r.timed_rounds);
      e2e.add_latency("round", r.round_us);
      e2e.add_latency("pull", r.pull_us);
      extras.add("sparse_rows_per_s", static_cast<double>(r.timed_rows) / r.window_s, "1/s",
                 r.timed_rows);
      report.count_ops(r.timed_rounds, static_cast<std::uint64_t>(r.retries));
    }
    check_digests(in, std::move(digests), report);
    e2e.report(report, Trials::As::kEndToEnd);
    extras.report(report, Trials::As::kInfo);
    return;
  }
  const SparseRun base = run_window(in, nullptr, opts.seconds / 2);
  report.info("sparse_rows_per_s", static_cast<double>(base.timed_rows) / base.window_s, "1/s",
              "untraced, n=" + std::to_string(base.timed_rows) + " rows");
  Tracer tracer(&now_ns);
  const SparseRun run = run_window(in, &tracer, opts.seconds / 2);
  check_digests(in, {{base.rounds, base.digest}, {run.rounds, run.digest}}, report);
  const double rounds = static_cast<double>(run.rounds);
  report.detail_p50("net.inproc.transit_us", tracer.series_us(Series::kInprocTransit));
  report.detail("net.inproc.delivered_per_iter",
                static_cast<double>(run.delivered) / (rounds * kWorkers), "msgs/iter",
                "InprocTransport delivered per worker round");
  report.detail_p50("embed.pull_park_us", tracer.series_us(Series::kPullPark));
  report.detail("embed.rows_per_round", static_cast<double>(run.rows_applied) / rounds, "rows",
                "SparseHost rows_applied per BSP round");
  using T = net::MsgType;
  const double bytes = static_cast<double>(tracer.sent_bytes(T::kSparsePush) +
                                           tracer.sent_bytes(T::kSparsePull) +
                                           tracer.sent_bytes(T::kSparsePullResp) +
                                           tracer.sent_bytes(T::kPushAck));
  report.detail("embed.bytes_per_round", bytes / rounds, "B", "sparse frames per BSP round");
  report.detail("embed.reducer.ring_stalls", static_cast<double>(run.ring_stalls), "count", "sum");
  report_common_layers(tracer,
                       {.iters = rounds * kWorkers,
                        .push_self = Series::kHostPushSelf,
                        .pull_self = Series::kHostPullSelf,
                        .retries = static_cast<double>(run.retries),
                        .overhead = 1.0 - run.rounds_per_s() / base.rounds_per_s(),
                        .root = SpanKind::kRound},
                       report);
  report.count_ops(base.timed_rounds + run.timed_rounds,
                   static_cast<std::uint64_t>(base.retries + run.retries));
  if (!opts.trace_out.empty()) {
    report.check(tracer.write_perfetto(opts.trace_out), "could not write " + opts.trace_out);
  }
}

}  // namespace perfbench
