// Standalone replays of work that runs inside handlers, timed outside the
// cluster so a layer's own cost shows as one number.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "net/message.h"
#include "ps/sync_engine.h"
#include "trace.h"

namespace perfbench {

namespace ps = fluentps::ps;

struct EngineReplay {
  std::vector<double> on_push_ns;
  std::vector<double> on_pull_ns;
};

/// Feed the recorded strong push/pull sequence of one server through a fresh
/// ps::SyncEngine built from `spec`, timing every call.
EngineReplay replay_sync_engine(const std::vector<EngineEvent>& events, ps::SyncEngine::Spec spec);

struct CodecReplay {
  std::vector<double> serialize_us;    ///< per replayed iteration
  std::vector<double> deserialize_us;  ///< per replayed iteration
};

/// Rebuild one iteration's frame mix from `mix` (frames per shape over
/// `iterations` iterations) and time Message::serialize_into and
/// Message::deserialize_view over it `reps` times.
CodecReplay replay_codec(const std::map<std::pair<net::MsgType, std::size_t>, std::uint64_t>& mix,
                         std::uint64_t iterations, int reps);

}  // namespace perfbench
