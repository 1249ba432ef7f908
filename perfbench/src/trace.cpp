#include "trace.h"

#include "harness.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_generation{1};

/// One handler invocation on this thread; sends made while it is open are
/// nested in it (their time is not the handler's own).
struct Frame {
  std::uint64_t nested_send_ns = 0;
  std::uint32_t span_id = 0;
  net::NodeId node = 0;
  net::MsgType type = net::MsgType::kPush;
  std::uint64_t request_id = 0;
  bool answered_inline = false;
  Frame* prev = nullptr;
};

thread_local Frame* tl_frame = nullptr;
thread_local std::uint64_t tl_generation = 0;
thread_local void* tl_buf = nullptr;

bool is_pull_request(net::MsgType t) {
  return t == net::MsgType::kPull || t == net::MsgType::kSparsePull;
}
bool is_pull_response(net::MsgType t) {
  return t == net::MsgType::kPullResp || t == net::MsgType::kSparsePullResp;
}

/// Header fields only; the payload stays with the message being delivered.
net::Message header_of(const net::Message& m) {
  net::Message h;
  h.type = m.type;
  h.src = m.src;
  h.dst = m.dst;
  h.request_id = m.request_id;
  h.seq = m.seq;
  h.progress = m.progress;
  h.worker_rank = m.worker_rank;
  h.server_rank = m.server_rank;
  h.trace_id = m.trace_id;
  h.span_id = m.span_id;
  return h;
}

std::uint32_t saturate_u32(std::uint64_t ns) {
  return ns > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<std::uint32_t>(ns);
}

const char* role_name(Role r) {
  switch (r) {
    case Role::kWorker: return "worker";
    case Role::kServer: return "server";
    case Role::kReplica: return "replica";
    case Role::kSparseHost: return "sparse-host";
    case Role::kSparseWorker: return "sparse-worker";
    case Role::kFleet: return "fleet";
    case Role::kNone: break;
  }
  return "node";
}

}  // namespace

const char* to_string(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kSend: return "send";
    case SpanKind::kTransit: return "transit";
    case SpanKind::kHandler: return "handler";
    case SpanKind::kDprWait: return "dpr_wait";
    case SpanKind::kReplicaHop: return "replica_hop";
    case SpanKind::kPullPark: return "pull_park";
    case SpanKind::kPushCall: return "push_call";
    case SpanKind::kPullCall: return "pull_call";
    case SpanKind::kPull: return "pull";
    case SpanKind::kPushAck: return "push_ack";
    case SpanKind::kWake: return "wake";
    case SpanKind::kRound: return "round";
  }
  return "span";
}

Tracer::Tracer(ClockFn clock)
    : clock_(clock), generation_(g_generation.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() = default;

void Tracer::set_role(net::NodeId node, Role role) {
  if (node >= roles_.size()) roles_.resize(node + 1, Role::kNone);
  roles_[node] = role;
  last_resp_size_ = roles_.size();
  last_resp_ = std::make_unique<std::atomic<std::uint64_t>[]>(last_resp_size_);
}

Tracer::ThreadBuf& Tracer::local() {
  if (tl_generation != generation_) {
    std::scoped_lock lock(bufs_mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    tl_buf = bufs_.back().get();
    tl_generation = generation_;
  }
  return *static_cast<ThreadBuf*>(tl_buf);
}

void Tracer::sample(Series s, std::uint64_t ns) {
  auto& kept = samples_kept_[static_cast<std::size_t>(s)];
  if (kept.fetch_add(1, std::memory_order_relaxed) >= kMaxSamples) return;
  local().series[static_cast<std::size_t>(s)].push_back(saturate_u32(ns));
}

void Tracer::span(const Span& s) {
  if (!sampled(s.req)) return;
  if (spans_kept_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) return;
  local().spans.push_back(s);
}

RequestKey Tracer::key_of(const net::Message& m) const {
  using T = net::MsgType;
  switch (m.type) {
    case T::kPush:
    case T::kReplicate:
      return {RequestKey::kPushReq, m.worker_rank, m.server_rank, m.progress};
    case T::kPushAck:
      if (role(m.src) == Role::kSparseHost) {
        return {RequestKey::kSparseRound, m.worker_rank, 0, m.progress};
      }
      return {RequestKey::kPushReq, m.worker_rank, m.server_rank, m.progress};
    case T::kPull:
    case T::kPullResp:
    case T::kPullRedirect:
      return {RequestKey::kPullReq, 0, 0, static_cast<std::int64_t>(m.request_id)};
    case T::kSparsePush:
    case T::kSparsePull:
    case T::kSparsePullResp:
      return {RequestKey::kSparseRound, m.worker_rank, 0, m.progress};
    default:
      return {};
  }
}

void Tracer::on_send(const net::Message& m, std::size_t value_count, bool wire, std::uint64_t t0,
                     std::uint64_t t1, std::uint32_t span_id, std::uint32_t parent) {
  const auto t = static_cast<std::size_t>(m.type);
  if (t < kTypes) {
    sent_bytes_[t].fetch_add(net::kFrameHeaderBytes + value_count * sizeof(float),
                             std::memory_order_relaxed);
  }
  sends_.fetch_add(1, std::memory_order_relaxed);
  sample(Series::kSend, t1 - t0);
  if (m.type == net::MsgType::kPush) sample(Series::kPushSend, t1 - t0);
  if (m.type == net::MsgType::kPullResp) sample(Series::kPullRespSend, t1 - t0);
  const RequestKey key = key_of(m);
  span({span_id, parent, t0, t1, key, m.src, SpanKind::kSend, m.type});

  if (wire) {
    std::scoped_lock lock(mu_);
    ++frame_mix_[{m.type, value_count}];
  }
  if (is_pull_response(m.type)) {
    std::scoped_lock lock(mu_);
    const auto it = parked_pulls_.find({m.src, m.request_id});
    if (it != parked_pulls_.end()) {
      const bool dense = m.type == net::MsgType::kPullResp;
      sample(dense ? Series::kDprWait : Series::kPullPark, t0 - it->second.t);
      span({next_span_id(), 0, it->second.t, t0, it->second.req, m.src,
            dense ? SpanKind::kDprWait : SpanKind::kPullPark, m.type});
      parked_pulls_.erase(it);
    }
  }
  if (m.type == net::MsgType::kReplicate && role(m.src) == Role::kServer) {
    std::scoped_lock lock(mu_);
    replicates_[{m.src, m.request_id}] = {t0, key};
  }
}

std::uint32_t Tracer::on_deliver(const net::Message& m, net::NodeId node, bool wire,
                                 std::uint64_t t0) {
  std::uint32_t transit_id = m.span_id;
  if (m.trace_id != 0 && t0 >= m.trace_id) {
    const std::uint64_t transit = t0 - m.trace_id;
    sample(Series::kTransit, transit);
    if (!wire) {
      sample(Series::kInprocTransit, transit);
    } else if (m.type == net::MsgType::kPush) {
      sample(Series::kPushTransitTcp, transit);
    } else if (m.type == net::MsgType::kPullResp) {
      sample(Series::kPullRespTransitTcp, transit);
    }
    transit_id = next_span_id();
    span({transit_id, m.span_id, m.trace_id, t0, key_of(m), node, SpanKind::kTransit, m.type});
  }
  const bool strong_engine_msg =
      m.type == net::MsgType::kPush || (m.type == net::MsgType::kPull && m.seq == 0);
  if (node == engine_node_ && strong_engine_msg && role(node) == Role::kServer) {
    std::scoped_lock lock(mu_);
    if (engine_events_.size() < kMaxEngineEvents) {
      engine_events_.push_back(
          {m.type == net::MsgType::kPush, m.worker_rank, m.progress, m.request_id});
    }
  }
  if (m.type == net::MsgType::kReplicateAck && role(node) == Role::kServer) {
    // Cumulative: every lsn <= request_id reached the tail.
    std::scoped_lock lock(mu_);
    auto it = replicates_.lower_bound({node, 0});
    while (it != replicates_.end() && it->first.first == node &&
           it->first.second <= m.request_id) {
      sample(Series::kReplicaHop, t0 - it->second.t);
      span({next_span_id(), 0, it->second.t, t0, it->second.req, node, SpanKind::kReplicaHop,
            m.type});
      it = replicates_.erase(it);
    }
  }
  return transit_id;
}

void Tracer::on_handled(const net::Message& m, net::NodeId node, std::uint64_t t0,
                        std::uint64_t t1, std::uint64_t nested_send_ns, bool answered_inline,
                        std::uint32_t span_id, std::uint32_t parent) {
  const std::uint64_t total = t1 - t0;
  const std::uint64_t self = total > nested_send_ns ? total - nested_send_ns : 0;
  const Role r = role(node);
  using T = net::MsgType;
  if (r == Role::kServer && m.type == T::kPush) sample(Series::kServerPushSelf, self);
  if (r == Role::kServer && m.type == T::kPull && m.seq == 0) sample(Series::kServerPullSelf, self);
  if (r == Role::kReplica && m.type == T::kReplicate) sample(Series::kReplicaApply, self);
  if (r == Role::kReplica && m.type == T::kPull) sample(Series::kReplicaReadSelf, self);
  if (r == Role::kSparseHost && m.type == T::kSparsePush) sample(Series::kHostPushSelf, self);
  if (r == Role::kSparseHost && m.type == T::kSparsePull) sample(Series::kHostPullSelf, self);
  const RequestKey key = key_of(m);
  span({span_id, parent, t0, t1, key, node, SpanKind::kHandler, m.type});

  const bool engine_pull = r == Role::kServer && m.type == T::kPull && m.seq == 0;
  const bool sparse_pull = r == Role::kSparseHost && m.type == T::kSparsePull;
  if ((engine_pull || sparse_pull) && !answered_inline) {
    std::scoped_lock lock(mu_);
    parked_pulls_[{node, m.request_id}] = {t1, key};
  }
  if ((r == Role::kWorker || r == Role::kFleet) && m.type == T::kPullResp &&
      node < last_resp_size_) {
    last_resp_[node].store(t1, std::memory_order_release);
  }
}

std::uint64_t Tracer::last_pull_resp_ns(net::NodeId node) const {
  return node < last_resp_size_ ? last_resp_[node].load(std::memory_order_acquire) : 0;
}

std::vector<double> Tracer::series_us(Series s) const {
  std::vector<double> out;
  std::scoped_lock lock(bufs_mu_);
  for (const auto& b : bufs_) {
    for (const std::uint32_t ns : b->series[static_cast<std::size_t>(s)]) {
      out.push_back(static_cast<double>(ns) * 1e-3);
    }
  }
  return out;
}

std::uint64_t Tracer::sent_bytes_total() const {
  std::uint64_t sum = 0;
  for (const auto& b : sent_bytes_) sum += b.load(std::memory_order_relaxed);
  return sum;
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  std::scoped_lock lock(bufs_mu_);
  for (const auto& b : bufs_) out.insert(out.end(), b->spans.begin(), b->spans.end());
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return out;
}

std::vector<EngineEvent> Tracer::engine_events() const {
  std::scoped_lock lock(mu_);
  return engine_events_;
}

std::map<std::pair<net::MsgType, std::size_t>, std::uint64_t> Tracer::frame_mix() const {
  std::scoped_lock lock(mu_);
  return frame_mix_;
}

bool Tracer::write_perfetto(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  const std::uint64_t base = all.empty() ? 0 : all.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t n = 0; n < roles_.size(); ++n) {
    if (roles_[n] == Role::kNone) continue;
    std::fprintf(f, "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%zu,"
                 "\"args\":{\"name\":\"%s %zu\"}}",
                 first ? "" : ",\n", n, role_name(roles_[n]), n);
    first = false;
  }
  for (const Span& s : all) {
    std::fprintf(f,
                 "%s{\"ph\":\"X\",\"name\":\"%s %s\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,\"req\":\"%u/%u/%u/%lld\"}}",
                 first ? "" : ",\n", to_string(s.kind), net::to_string(s.type), s.node,
                 static_cast<double>(s.start_ns - base) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id, s.parent,
                 static_cast<unsigned>(s.req.kind), s.req.worker, s.req.server,
                 static_cast<long long>(s.req.id));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- decorator -----------------------------------------------------------

void TracedTransport::register_node(net::NodeId node, Handler handler) {
  inner_.register_node(node, [this, node, h = std::move(handler)](net::Message&& m) {
    const std::uint64_t t0 = tracer_.now();
    const std::uint32_t parent = tracer_.on_deliver(m, node, wire_, t0);
    const net::Message hdr = header_of(m);
    Frame f;
    f.span_id = tracer_.next_span_id();
    f.node = node;
    f.type = m.type;
    f.request_id = m.request_id;
    f.prev = tl_frame;
    tl_frame = &f;
    h(std::move(m));
    tl_frame = f.prev;
    const std::uint64_t t1 = tracer_.now();
    tracer_.on_handled(hdr, node, t0, t1, f.nested_send_ns, f.answered_inline, f.span_id, parent);
  });
}

void TracedTransport::send(net::Message msg) {
  const std::uint64_t t0 = tracer_.now();
  const std::uint32_t id = tracer_.next_span_id();
  msg.trace_id = t0;
  msg.span_id = id;
  const net::Message hdr = header_of(msg);
  const std::size_t values = msg.values.size();
  Frame* f = tl_frame;
  if (f != nullptr && f->node == msg.src && is_pull_request(f->type) &&
      is_pull_response(msg.type) && f->request_id == msg.request_id) {
    f->answered_inline = true;
  }
  inner_.send(std::move(msg));
  const std::uint64_t t1 = tracer_.now();
  if (f != nullptr) f->nested_send_ns += t1 - t0;
  tracer_.on_send(hdr, values, wire_, t0, t1, id, f != nullptr ? f->span_id : 0);
}

// --- coverage ------------------------------------------------------------

double covered_share(const Span& root,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>> children) {
  const std::uint64_t lo = root.start_ns;
  const std::uint64_t hi = root.end_ns;
  if (hi <= lo) return 1.0;
  for (auto& [a, b] : children) {
    a = std::clamp(a, lo, hi);
    b = std::clamp(b, lo, hi);
  }
  std::sort(children.begin(), children.end());
  std::uint64_t covered = 0;
  std::uint64_t cur_a = 0;
  std::uint64_t cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : children) {
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) covered += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) covered += cur_b - cur_a;
  return static_cast<double>(covered) / static_cast<double>(hi - lo);
}

double layer_coverage(const std::vector<Span>& spans, SpanKind root_kind) {
  struct GroupKey {
    std::uint8_t kind;
    std::uint32_t worker;
    std::int64_t id;
    bool operator<(const GroupKey& o) const {
      return std::tie(kind, worker, id) < std::tie(o.kind, o.worker, o.id);
    }
  };
  std::map<GroupKey, std::vector<const Span*>> groups;
  for (const Span& s : spans) {
    if (s.req.kind == RequestKey::kNone) continue;
    groups[{s.req.kind, s.req.worker, s.req.id}].push_back(&s);
  }
  std::vector<double> shares;
  for (const auto& [key, members] : groups) {
    for (const Span* root : members) {
      if (root->kind != root_kind) continue;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> children;
      for (const Span* s : members) {
        if (s->kind == root_kind) continue;
        children.emplace_back(s->start_ns, s->end_ns);
      }
      shares.push_back(covered_share(*root, std::move(children)));
    }
  }
  if (shares.empty()) return -1.0;
  std::sort(shares.begin(), shares.end());
  return shares[(shares.size() - 1) / 2];
}

void report_common_layers(const Tracer& tr, const CommonLayers& c, Report& report) {
  report.layer_p50("net.send_us", tr.series_us(Series::kSend));
  report.layer_p50("net.transit_us", tr.series_us(Series::kTransit));
  report.layer("net.msgs_per_iter", static_cast<double>(tr.sends()) / c.iters, "msgs/iter",
               "send() calls per iteration");
  report.layer("net.msg_bytes_per_iter", static_cast<double>(tr.sent_bytes_total()) / c.iters,
               "B/iter", "header + payload bytes sent per iteration");
  report.layer_p50("server.push_self_us", tr.series_us(c.push_self));
  report.layer_p50("server.pull_self_us", tr.series_us(c.pull_self));
  report.layer("fault.retries", c.retries, "count", "retransmit rounds");
  report.layer("obs.trace_overhead", c.overhead, "share", "1 - traced/untraced iters_per_s");
  const double cov = layer_coverage(tr.spans(), c.root);
  if (cov >= 0) {
    report.layer("obs.layer_coverage", cov, "share",
                 std::string("median over ") + to_string(c.root) + " requests");
  }
}

}  // namespace perfbench
