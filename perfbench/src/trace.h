// Outside-in tracing for the benchmark's traced run.
//
// TracedTransport is a net::Transport decorator owned by the benchmark: the
// program's components are handed the decorator instead of the real
// transport, so every send() and every registered handler passes through it
// without any change to the program. It forwards inline_delivery() and
// recv_zero_copy_frames(), so the program takes the same zero-copy paths as
// in the untraced run.
//
// Each send() stamps its start time into the message's trace_id header field
// (unused by the program when its own telemetry is off) and its span id into
// span_id; both ride the wire over TCP, so a receiving handler knows when
// its message was sent and which span sent it. A handler's self time is its
// duration minus the time of the send() calls nested inside it on the same
// thread.
//
// Timing samples are kept for the first kMaxSamples events of each series
// and spans are kept in memory for a sample of requests (every request whose
// iteration, round or ticket is a multiple of kSpanSampleEvery, so one
// request's spans are either all kept or all dropped) and written once, as
// Chrome/Perfetto JSON, when the run ends.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <tuple>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "net/transport.h"

namespace perfbench {

namespace net = fluentps::net;

/// What a node is, so a handler's time lands in the right layer.
enum class Role : std::uint8_t { kNone, kWorker, kServer, kReplica, kSparseHost, kSparseWorker, kFleet };

/// Per-event timing series (ns samples; reported as p50 in µs).
enum class Series : std::uint8_t {
  kPushSend,            ///< send() of a kPush
  kPullRespSend,        ///< send() of a kPullResp
  kPushTransitTcp,      ///< kPush send start -> receiving handler start, over TCP
  kPullRespTransitTcp,  ///< kPullResp, same
  kInprocTransit,       ///< any message, send start -> handler start, inproc
  kServerPushSelf,      ///< ps::Server handler self time, kPush
  kServerPullSelf,      ///< ps::Server handler self time, strong kPull
  kDprWait,             ///< pull handler exit -> its kPullResp send (delayed pulls)
  kWorkerPushCall,      ///< WorkerClient::push() call
  kWorkerWake,          ///< last kPullResp handled -> wait_pull() return
  kReplicaApply,        ///< ReplicaNode handler self time, kReplicate
  kReplicaHop,          ///< head kReplicate send -> its kReplicateAck delivery
  kReplicaReadSelf,     ///< ReplicaNode handler self time, bounded kPull
  kHostPushSelf,        ///< SparseHost handler self time, kSparsePush
  kHostPullSelf,        ///< SparseHost handler self time, kSparsePull
  kPullPark,            ///< kSparsePull handler exit -> its kSparsePullResp send
  kSend,                ///< send() of any message
  kTransit,             ///< any message, send start -> handler start, wire or inproc
  kCount
};

enum class SpanKind : std::uint8_t {
  kSend,
  kTransit,
  kHandler,
  kDprWait,
  kReplicaHop,
  kPullPark,
  kPushCall,  ///< load thread: WorkerClient::push()
  kPullCall,  ///< load thread: WorkerClient::pull()
  kPull,      ///< load thread, root span: pull() call -> wait_pull() return
  kPushAck,   ///< load thread, root span: push() return -> last kPushAck of the round
  kWake,      ///< load thread: last kPullResp handled -> wait_pull() return
  kRound,     ///< load thread, root span: one sparse run_round()
};

const char* to_string(SpanKind k) noexcept;

/// Which request a span belongs to: a pull ticket, a push (worker, server,
/// iteration) or a sparse (worker, round). Spans of one request share
/// (kind, worker, id); `server` tells the shards of one push round apart.
struct RequestKey {
  enum Kind : std::uint8_t { kNone = 0, kPushReq = 1, kPullReq = 2, kSparseRound = 3 };
  std::uint8_t kind = kNone;
  std::uint32_t worker = 0;
  std::uint32_t server = 0;
  std::int64_t id = 0;
};

inline constexpr std::int64_t kSpanSampleEvery = 16;

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  RequestKey req;
  std::uint32_t node = 0;
  SpanKind kind = SpanKind::kSend;
  net::MsgType type = net::MsgType::kPush;
};

/// One strong push or pull as the first server saw it, in arrival order (the
/// input of the standalone SyncEngine replay).
struct EngineEvent {
  bool push = false;
  std::uint32_t worker = 0;
  std::int64_t progress = 0;
  std::uint64_t request_id = 0;
};

class Tracer {
 public:
  using ClockFn = std::uint64_t (*)();
  explicit Tracer(ClockFn clock);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Declare a node's role; call for every node before traffic starts.
  void set_role(net::NodeId node, Role role);
  [[nodiscard]] Role role(net::NodeId node) const noexcept {
    return node < roles_.size() ? roles_[node] : Role::kNone;
  }
  /// Record strong pushes/pulls arriving at `node` for the SyncEngine replay.
  void record_engine_events(net::NodeId node) { engine_node_ = node; }

  [[nodiscard]] std::uint64_t now() const { return clock_(); }
  std::uint32_t next_span_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void sample(Series s, std::uint64_t ns);
  /// Keep `span` when its request is sampled (see kSpanSampleEvery) and
  /// fewer than kMaxSpans are kept.
  void span(const Span& span);
  [[nodiscard]] static bool sampled(const RequestKey& k) noexcept {
    return k.kind != RequestKey::kNone && k.id % kSpanSampleEvery == 0;
  }

  /// The request a message belongs to (kNone for control traffic).
  [[nodiscard]] RequestKey key_of(const net::Message& m) const;

  // --- hooks driven by TracedTransport --------------------------------
  // `m` carries the header fields only; the payload size comes separately.
  void on_send(const net::Message& m, std::size_t value_count, bool wire, std::uint64_t t0,
               std::uint64_t t1, std::uint32_t span_id, std::uint32_t parent);
  /// Returns the id of the transit span that parents the handler span.
  std::uint32_t on_deliver(const net::Message& m, net::NodeId node, bool wire, std::uint64_t t0);
  void on_handled(const net::Message& m, net::NodeId node, std::uint64_t t0, std::uint64_t t1,
                  std::uint64_t nested_send_ns, bool answered_inline, std::uint32_t span_id,
                  std::uint32_t parent);

  /// Exit time of the last kPullResp handled at `node` (0 = none yet).
  [[nodiscard]] std::uint64_t last_pull_resp_ns(net::NodeId node) const;

  // --- results (read once traffic has stopped) -------------------------
  [[nodiscard]] std::vector<double> series_us(Series s) const;
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::vector<EngineEvent> engine_events() const;
  /// (type, value_count) -> frames sent over a wire transport.
  [[nodiscard]] std::map<std::pair<net::MsgType, std::size_t>, std::uint64_t> frame_mix() const;
  [[nodiscard]] std::uint64_t sent_bytes(net::MsgType t) const {
    return sent_bytes_[static_cast<std::size_t>(t)].load(std::memory_order_relaxed);
  }
  /// Frame bytes (header + payload) of every message sent.
  [[nodiscard]] std::uint64_t sent_bytes_total() const;
  /// send() calls made.
  [[nodiscard]] std::uint64_t sends() const { return sends_.load(std::memory_order_relaxed); }

  /// Write the kept spans as Chrome/Perfetto JSON. Returns false on I/O error.
  bool write_perfetto(const std::string& path) const;

 private:
  struct ThreadBuf {
    std::array<std::vector<std::uint32_t>, static_cast<std::size_t>(Series::kCount)> series;
    std::vector<Span> spans;
  };
  ThreadBuf& local();

  static constexpr std::size_t kMaxSpans = 150000;
  static constexpr std::size_t kMaxSamples = 250000;  ///< per series
  static constexpr std::size_t kMaxEngineEvents = 500000;
  static constexpr std::size_t kTypes = 32;

  ClockFn clock_;
  const std::uint64_t generation_;
  std::vector<Role> roles_;
  net::NodeId engine_node_ = 0;
  std::atomic<std::uint32_t> next_id_{1};

  mutable std::mutex bufs_mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::atomic<std::size_t> spans_kept_{0};
  std::array<std::atomic<std::size_t>, static_cast<std::size_t>(Series::kCount)> samples_kept_{};

  std::array<std::atomic<std::uint64_t>, kTypes> sent_bytes_{};
  std::atomic<std::uint64_t> sends_{0};

  // Cross-thread correlation (pull handler exit -> response send, replicate
  // send -> cumulative ack), all under mu_.
  mutable std::mutex mu_;
  struct Pending {
    std::uint64_t t = 0;
    RequestKey req;
  };
  std::map<std::pair<net::NodeId, std::uint64_t>, Pending> parked_pulls_;
  std::map<std::pair<net::NodeId, std::uint64_t>, Pending> replicates_;
  std::vector<EngineEvent> engine_events_;
  std::map<std::pair<net::MsgType, std::size_t>, std::uint64_t> frame_mix_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> last_resp_;  // per node id
  std::size_t last_resp_size_ = 0;
};

/// The decorator. Register nodes and send through it; configure the wrapped
/// transport (listen, add_route) directly.
class TracedTransport final : public net::Transport {
 public:
  /// `wire` = the wrapped transport serializes onto a socket (TCP).
  TracedTransport(net::Transport& inner, Tracer& tracer, bool wire)
      : inner_(inner), tracer_(tracer), wire_(wire) {}

  void register_node(net::NodeId node, Handler handler) override;
  void send(net::Message msg) override;
  [[nodiscard]] bool inline_delivery() const noexcept override { return inner_.inline_delivery(); }
  [[nodiscard]] std::uint64_t recv_zero_copy_frames() const noexcept override {
    return inner_.recv_zero_copy_frames();
  }

 private:
  net::Transport& inner_;
  Tracer& tracer_;
  const bool wire_;
};

/// Share of [root.start, root.end] covered by the union of `children`
/// (clipped to the root), in [0, 1].
double covered_share(const Span& root, std::vector<std::pair<std::uint64_t, std::uint64_t>> children);

/// Median coverage over every kept root span of `root_kind`, using the kept
/// spans of the same request (kind, worker, id). Returns -1 without roots.
double layer_coverage(const std::vector<Span>& spans, SpanKind root_kind);

class Report;

/// The per-layer metrics every workload has, so the traced run's JSON line
/// carries the same names on every workload: the transport (every send and
/// delivery), the parameter-holding node's push and pull handlers (ps::Server
/// or embed::SparseHost), retransmits, and the tracing's own cost. The
/// layer-specific metrics, absent where a workload bypasses the layer, are
/// printed beside them.
struct CommonLayers {
  double iters = 0;         ///< worker iterations (or worker rounds) traced
  Series push_self{};       ///< server-side push handler self time
  Series pull_self{};       ///< server-side pull handler self time
  double retries = 0;       ///< retransmit rounds
  double overhead = 0;      ///< 1 - traced/untraced throughput
  SpanKind root{};          ///< root span whose layer coverage is reported
};
void report_common_layers(const Tracer& tr, const CommonLayers& c, Report& report);

}  // namespace perfbench
