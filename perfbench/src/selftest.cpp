// Unit tests of the tracing decorator's arithmetic, on a fake clock and a
// fake transport so every expected number is exact.
#include <cstdio>
#include <map>

#include "harness.h"
#include "trace.h"

namespace perfbench {

namespace {

using fluentps::net::Message;
using fluentps::net::MsgType;
using fluentps::net::NodeId;

std::uint64_t g_now = 1000;
std::uint64_t fake_clock() { return g_now; }

/// Each send() costs `send_cost` fake ns; with `inline_to_handlers` it also
/// runs the destination's handler inside send(), as TCP's local path does.
class FakeTransport final : public fluentps::net::Transport {
 public:
  void register_node(NodeId node, Handler handler) override { handlers[node] = std::move(handler); }
  void send(Message msg) override {
    g_now += send_cost;
    if (inline_to_handlers && handlers.count(msg.dst) != 0) handlers[msg.dst](std::move(msg));
  }
  std::map<NodeId, Handler> handlers;
  std::uint64_t send_cost = 7;
  bool inline_to_handlers = false;
};

Message msg(MsgType type, NodeId src, NodeId dst, std::uint64_t request_id = 0) {
  Message m;
  m.type = type;
  m.src = src;
  m.dst = dst;
  m.request_id = request_id;
  return m;
}

int g_failures = 0;

void expect_eq(double got, double want, const char* what) {
  if (got != want) {
    std::printf("FAIL %s: got %.3f want %.3f\n", what, got, want);
    ++g_failures;
  } else {
    std::printf("ok   %s = %.3f\n", what, got);
  }
}

double only(const Tracer& tr, Series s) {
  const std::vector<double> v = tr.series_us(s);
  return v.size() == 1 ? v[0] * 1e3 : -1.0;  // back to fake ns
}

void test_self_time_excludes_nested_sends() {
  Tracer tr(&fake_clock);
  tr.set_role(1, Role::kServer);
  tr.set_role(2, Role::kWorker);
  FakeTransport inner;
  TracedTransport t(inner, tr, false);
  t.register_node(1, [&](Message&&) {
    g_now += 100;
    t.send(msg(MsgType::kPushAck, 1, 2));
    g_now += 50;
    t.send(msg(MsgType::kPushAck, 1, 2));
    g_now += 3;
  });
  inner.handlers[1](msg(MsgType::kPush, 2, 1));
  expect_eq(only(tr, Series::kServerPushSelf), 153, "self = handler 167 - two 7 ns sends");
}

void test_inline_nested_handler() {
  // A send that runs another node's handler inline: the outer handler's
  // self time excludes the whole send; the inner handler's excludes its own.
  Tracer tr(&fake_clock);
  tr.set_role(1, Role::kServer);
  tr.set_role(3, Role::kReplica);
  FakeTransport inner;
  inner.inline_to_handlers = true;
  TracedTransport t(inner, tr, false);
  t.register_node(3, [&](Message&&) {
    g_now += 20;
    t.send(msg(MsgType::kReplicateAck, 3, 9));  // 9 is unregistered: just the 7 ns
    g_now += 5;
  });
  t.register_node(1, [&](Message&&) {
    g_now += 40;
    t.send(msg(MsgType::kReplicate, 1, 3));  // 7 + inner handler 32
    g_now += 10;
  });
  inner.handlers[1](msg(MsgType::kPush, 2, 1));
  expect_eq(only(tr, Series::kReplicaApply), 25, "inner self = 32 - 7");
  expect_eq(only(tr, Series::kServerPushSelf), 50, "outer self = 89 - 39");
}

void test_dpr_wait() {
  Tracer tr(&fake_clock);
  tr.set_role(1, Role::kServer);
  tr.set_role(2, Role::kWorker);
  FakeTransport inner;
  TracedTransport t(inner, tr, false);
  bool release = false;
  t.register_node(1, [&](Message&& m) {
    g_now += 10;
    if (m.type == MsgType::kPull && m.request_id == 5) t.send(msg(MsgType::kPullResp, 1, 2, 5));
    if (m.type == MsgType::kPush && release) t.send(msg(MsgType::kPullResp, 1, 2, 6));
  });
  inner.handlers[1](msg(MsgType::kPull, 2, 1, 5));  // answered inline: no DPR
  inner.handlers[1](msg(MsgType::kPull, 2, 1, 6));  // buffered: exits at t
  const std::uint64_t exit = g_now;
  g_now += 1000;
  release = true;
  inner.handlers[1](msg(MsgType::kPush, 2, 1));  // releases 6 after 10 ns
  expect_eq(only(tr, Series::kDprWait), static_cast<double>(g_now - 7 - exit),
            "dpr wait = release send start - pull handler exit");
}

void test_covered_share() {
  Span root;
  root.start_ns = 100;
  root.end_ns = 200;
  expect_eq(covered_share(root, {{90, 120}, {110, 130}, {150, 160}, {190, 250}}), 0.5,
            "union of clipped, overlapping children");
  expect_eq(covered_share(root, {}), 0.0, "no children");
}

}  // namespace

int run_selftest() {
  test_self_time_excludes_nested_sends();
  test_inline_nested_handler();
  test_dpr_wait();
  test_covered_share();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures;
}

}  // namespace perfbench
