#include "replay.h"

#include <cmath>

#include "common/logging.h"
#include "harness.h"
#include "net/frame_buffer.h"

namespace perfbench {

EngineReplay replay_sync_engine(const std::vector<EngineEvent>& events,
                                ps::SyncEngine::Spec spec) {
  EngineReplay out;
  ps::SyncEngine engine(std::move(spec));
  std::size_t released = 0;
  for (const EngineEvent& e : events) {
    const std::uint64_t t0 = now_ns();
    if (e.push) {
      released += engine.on_push(e.worker, e.progress).size();
      out.on_push_ns.push_back(static_cast<double>(now_ns() - t0));
    } else {
      released += engine.on_pull(e.worker, e.progress, e.request_id) ? 1 : 0;
      out.on_pull_ns.push_back(static_cast<double>(now_ns() - t0));
    }
  }
  FPS_CHECK(released <= events.size()) << "replay released more pulls than it saw";
  return out;
}

CodecReplay replay_codec(const std::map<std::pair<net::MsgType, std::size_t>, std::uint64_t>& mix,
                         std::uint64_t iterations, int reps) {
  CodecReplay out;
  if (iterations == 0) return out;
  std::vector<net::Message> frames;
  for (const auto& [shape, count] : mix) {
    const auto per_iter = static_cast<std::size_t>(
        std::llround(static_cast<double>(count) / static_cast<double>(iterations)));
    for (std::size_t i = 0; i < per_iter; ++i) {
      net::Message m;
      m.type = shape.first;
      m.src = 1;
      m.dst = 2;
      m.progress = static_cast<std::int64_t>(i);
      std::vector<float> v(shape.second);
      for (std::size_t k = 0; k < v.size(); ++k) v[k] = static_cast<float>(k % 97) * 0.25f;
      m.values = std::move(v);
      frames.push_back(std::move(m));
    }
  }
  if (frames.empty()) return out;
  std::vector<net::FrameBuffer> bufs(frames.size());
  std::uint64_t checksum = 0;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < frames.size(); ++i) (void)frames[i].serialize_into(bufs[i]);
    const std::uint64_t t1 = now_ns();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      net::Message parsed;
      FPS_CHECK(net::Message::deserialize_view(bufs[i].span(), &parsed)) << "codec replay";
      checksum += parsed.values.size();
    }
    const std::uint64_t t2 = now_ns();
    out.serialize_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    out.deserialize_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
  }
  std::size_t expected = 0;
  for (const auto& m : frames) expected += m.values.size();
  FPS_CHECK(checksum == expected * static_cast<std::uint64_t>(reps)) << "codec replay lost values";
  return out;
}

}  // namespace perfbench
