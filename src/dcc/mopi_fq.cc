#include "src/dcc/mopi_fq.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"
#include "src/telemetry/profiler.h"

namespace dcc {

MopiFq::MopiFq(const MopiFqConfig& config) : config_(config) {
  // Pre-allocate the shared entry pool and thread the free list through it.
  pool_.resize(config_.pool_capacity);
  for (size_t i = 0; i < pool_.size(); ++i) {
    pool_[i].next = (i + 1 < pool_.size()) ? static_cast<int32_t>(i + 1) : -1;
  }
  free_head_ = pool_.empty() ? -1 : 0;
}

int32_t MopiFq::AllocEntry() {
  const int32_t idx = free_head_;
  assert(idx != -1);
  free_head_ = pool_[idx].next;
  pool_[idx].next = -1;
  pool_[idx].prev = -1;
  return idx;
}

void MopiFq::FreeEntry(int32_t idx) {
  pool_[idx].next = free_head_;
  pool_[idx].prev = -1;
  free_head_ = idx;
}

double MopiFq::ShareOf(SourceId source) const {
  auto it = shares_.find(source);
  return it != shares_.end() ? it->second : 1.0;
}

void MopiFq::SetSourceShare(SourceId source, double share) {
  if (share > 0) {
    shares_[source] = share;
  } else {
    shares_.erase(source);
  }
}

MopiFq::ChannelState& MopiFq::Channel(OutputId output, Time now) {
  auto [it, inserted] = rate_lim_.try_emplace(
      output,
      ChannelState{TokenBucket(config_.default_channel_qps, config_.channel_burst, now),
                   now});
  return it->second;
}

void MopiFq::SetChannelCapacity(OutputId output, double qps) {
  auto it = rate_lim_.find(output);
  if (it == rate_lim_.end()) {
    rate_lim_.emplace(output,
                      ChannelState{TokenBucket(qps, config_.channel_burst, 0), 0});
  } else {
    it->second.bucket.SetRate(qps, config_.channel_burst);
  }
}

MopiFq::PoqState& MopiFq::ActivateOutput(OutputId output, Time arrival) {
  auto [it, inserted] = poq_tracker_.try_emplace(output);
  PoqState& poq = it->second;
  if (inserted) {
    poq.round_tails.assign(static_cast<size_t>(config_.max_rounds), -1);
    poq.current_round = 0;
    poq.latest_round = -1;
    poq.seq_key = SeqKey{arrival, output};
    out_seq_.insert(poq.seq_key);
  }
  return poq;
}

void MopiFq::Unlink(PoqState& poq, int32_t idx) {
  Entry& e = pool_[idx];
  const int32_t round_slot = e.round % config_.max_rounds;
  if (poq.round_tails[static_cast<size_t>(round_slot)] == idx) {
    // The entry was its round's tail; the new tail is its predecessor if that
    // predecessor belongs to the same round, otherwise the round is empty.
    if (e.prev != -1 && pool_[e.prev].round == e.round) {
      poq.round_tails[static_cast<size_t>(round_slot)] = e.prev;
    } else {
      poq.round_tails[static_cast<size_t>(round_slot)] = -1;
    }
  }
  if (e.prev != -1) {
    pool_[e.prev].next = e.next;
  } else {
    poq.head = e.next;
  }
  if (e.next != -1) {
    pool_[e.next].prev = e.prev;
  } else {
    poq.tail = e.prev;
  }
  if (poq.tail != -1) {
    poq.latest_round = pool_[poq.tail].round;
  } else {
    poq.latest_round = poq.current_round - 1;
  }
}

SchedMessage MopiFq::EvictFromLatestRound(OutputId /*output*/, PoqState& poq) {
  // The queue tail always belongs to the latest non-empty round.
  const int32_t victim = poq.tail;
  assert(victim != -1);
  const SchedMessage msg = pool_[victim].msg;
  const int32_t victim_round = pool_[victim].round;
  Unlink(poq, victim);
  FreeEntry(victim);
  --poq.depth;
  --total_depth_;
  auto sit = poq.source_latest.find(msg.source);
  if (sit != poq.source_latest.end()) {
    --sit->second.queued;
    if (sit->second.latest_round == victim_round) {
      // Refund the slot: the victim keeps its per-round allocation, so its
      // next message re-enters this round instead of being pushed forward.
      // Without this, every eviction permanently costs the victim a round
      // and fast sources sink below their max-min fair share.
      sit->second.quota_left += 1.0;
    }
  }
  return msg;
}

EnqueueOutcome MopiFq::Enqueue(const SchedMessage& msg, Time now) {
  DCC_PROF_SCOPE("mopi.enqueue");
  EnqueueOutcome out;
  Channel(msg.output, now).last_active = now;

  auto poq_it = poq_tracker_.find(msg.output);
  PoqState* poq = poq_it != poq_tracker_.end() ? &poq_it->second : nullptr;
  const int32_t current = poq != nullptr ? poq->current_round : 0;
  const int32_t latest = poq != nullptr ? poq->latest_round : current - 1;

  // Determine the scheduling round for this message (Fig. 13's
  // get_src_next_round, extended with the round quota of B.1.3: a source
  // accrues `share` slots per round and spends one per message).
  const double share = ShareOf(msg.source);
  int32_t src_next = 0;
  double quota = 0;
  const SourceState* ss = nullptr;
  if (poq != nullptr) {
    auto sit = poq->source_latest.find(msg.source);
    if (sit != poq->source_latest.end()) {
      ss = &sit->second;
    }
  }
  if (ss != nullptr && ss->latest_round >= current) {
    src_next = ss->latest_round;
    quota = ss->quota_left;
  } else {
    // New source (or one whose rounds have all drained): join the round
    // currently being scheduled.
    src_next = current;
    quota = share;
  }
  while (quota < 1.0 - 1e-9) {
    ++src_next;
    quota += share;
    if (src_next >= current + config_.max_rounds) {
      out.result = EnqueueResult::kClientOverspeed;
      return out;
    }
  }
  if (src_next >= current + config_.max_rounds) {
    out.result = EnqueueResult::kClientOverspeed;
    return out;
  }
  quota -= 1.0;

  // Dynamic per-source backlog cap (Appendix B.2's queue-capacity
  // assumption): each active source may run at most depth/#sources rounds
  // ahead, so the joint backlog of fast sources cannot fill the queue and
  // trigger eviction churn that would skew allocations below max-min fair.
  {
    const auto active = static_cast<int32_t>(
        (poq != nullptr ? poq->source_latest.size() : 0) + (ss == nullptr ? 1 : 0));
    const int32_t dynamic_cap =
        std::max<int32_t>(2, std::min(config_.max_rounds,
                                      config_.max_poq_depth / std::max(1, active)));
    if (src_next >= current + dynamic_cap) {
      out.result = EnqueueResult::kChannelCongested;
      return out;
    }
  }

  // Capacity checks (Fig. 13). A message bound for a round *before* the
  // latest one is admitted even when full, displacing a latest-round message
  // — this is what lets slower sources reclaim their fair share from faster
  // ones (Appendix B.2).
  if (poq != nullptr && poq->depth >= config_.max_poq_depth && src_next >= latest) {
    out.result = EnqueueResult::kChannelCongested;
    return out;
  }
  if (total_depth_ >= config_.pool_capacity && src_next >= latest) {
    out.result = EnqueueResult::kQueueOverflow;
    return out;
  }

  PoqState& p = ActivateOutput(msg.output, msg.arrival);
  if (p.depth >= config_.max_poq_depth || total_depth_ >= config_.pool_capacity) {
    out.evicted = EvictFromLatestRound(msg.output, p);
  }

  const int32_t idx = AllocEntry();
  Entry& e = pool_[idx];
  e.msg = msg;
  e.round = src_next;

  // Insert after the tail of the nearest non-empty round <= src_next.
  int32_t after = -1;
  const int32_t scan_from = std::min(src_next, p.latest_round);
  for (int32_t r = scan_from; r >= p.current_round; --r) {
    const int32_t t = p.round_tails[static_cast<size_t>(r % config_.max_rounds)];
    if (t != -1) {
      after = t;
      break;
    }
  }
  if (after == -1) {
    e.next = p.head;
    e.prev = -1;
    if (p.head != -1) {
      pool_[p.head].prev = idx;
    }
    p.head = idx;
    if (p.tail == -1) {
      p.tail = idx;
    }
  } else {
    e.prev = after;
    e.next = pool_[after].next;
    pool_[after].next = idx;
    if (e.next != -1) {
      pool_[e.next].prev = idx;
    } else {
      p.tail = idx;
    }
  }
  p.round_tails[static_cast<size_t>(src_next % config_.max_rounds)] = idx;
  p.latest_round = std::max(p.latest_round, src_next);
  if (p.depth == 0) {
    p.current_round = src_next;
  }
  ++p.depth;
  ++total_depth_;

  SourceState& state = p.source_latest[msg.source];
  state.latest_round = src_next;
  state.quota_left = quota;
  ++state.queued;

  out.result = EnqueueResult::kSuccess;
  return out;
}

std::optional<SchedMessage> MopiFq::Dequeue(Time now) {
  DCC_PROF_SCOPE("mopi.dequeue");
  while (!out_seq_.empty()) {
    const auto it = out_seq_.begin();
    const SeqKey key = *it;
    if (key.first > now) {
      // Earliest candidate is a congested channel's predicted availability.
      return std::nullopt;
    }
    const OutputId output = key.second;
    auto poq_it = poq_tracker_.find(output);
    assert(poq_it != poq_tracker_.end());
    PoqState& p = poq_it->second;
    ChannelState& ch = Channel(output, now);
    if (!ch.bucket.TryConsume(now)) {
      Time avail = ch.bucket.NextAvailable(now);
      if (avail <= now) {
        avail = now + 1;
      }
      out_seq_.erase(it);
      p.seq_key = SeqKey{avail, output};
      out_seq_.insert(p.seq_key);
      continue;
    }
    ch.last_active = now;

    const int32_t h = p.head;
    const SchedMessage msg = pool_[h].msg;
    Unlink(p, h);
    FreeEntry(h);
    --p.depth;
    --total_depth_;
    auto sit = p.source_latest.find(msg.source);
    if (sit != p.source_latest.end()) {
      // The entry is kept at queued == 0: a returning source must not reuse
      // a round it already consumed (its slot accounting survives until the
      // round is drained or the state is purged).
      --sit->second.queued;
    }

    out_seq_.erase(it);
    if (p.depth == 0) {
      poq_tracker_.erase(output);
    } else {
      const int32_t new_current = pool_[p.head].round;
      if (new_current != p.current_round) {
        // Round boundary: drop stale per-source entries (their reserved
        // rounds have fully drained), bounding source_latest by the number
        // of sources active within the backlog window.
        p.source_latest.EraseIf([new_current](SourceId, const SourceState& ss) {
          return ss.queued <= 0 && ss.latest_round < new_current;
        });
      }
      p.current_round = new_current;
      p.seq_key = SeqKey{pool_[p.head].msg.arrival, output};
      out_seq_.insert(p.seq_key);
    }
    return msg;
  }
  return std::nullopt;
}

Time MopiFq::NextReadyTime(Time now) {
  while (!out_seq_.empty()) {
    const auto it = out_seq_.begin();
    const SeqKey key = *it;
    if (key.first > now) {
      return key.first;
    }
    ChannelState& ch = Channel(key.second, now);
    if (ch.bucket.CanConsume(now)) {
      return now;
    }
    Time avail = ch.bucket.NextAvailable(now);
    if (avail <= now) {
      avail = now + 1;
    }
    PoqState& p = poq_tracker_.at(key.second);
    out_seq_.erase(it);
    p.seq_key = SeqKey{avail, key.second};
    out_seq_.insert(p.seq_key);
  }
  return kTimeInfinity;
}

int MopiFq::QueueDepth(OutputId output) const {
  auto it = poq_tracker_.find(output);
  return it != poq_tracker_.end() ? it->second.depth : 0;
}

size_t MopiFq::MemoryFootprint() const {
  size_t bytes = pool_.capacity() * sizeof(Entry);
  for (const auto& [output, poq] : poq_tracker_) {
    bytes += sizeof(OutputId) + sizeof(PoqState);
    bytes += poq.round_tails.capacity() * sizeof(int32_t);
    bytes += poq.source_latest.size() *
             (sizeof(SourceId) + sizeof(SourceState) + 2 * sizeof(void*));
  }
  bytes += rate_lim_.size() * (sizeof(OutputId) + sizeof(ChannelState) + 2 * sizeof(void*));
  bytes += shares_.size() * (sizeof(SourceId) + sizeof(double) + 2 * sizeof(void*));
  bytes += out_seq_.size() * (sizeof(SeqKey) + 3 * sizeof(void*));
  return bytes;
}

void MopiFq::PurgeIdle(Time now, Duration idle) {
  rate_lim_.EraseIf([this, now, idle](OutputId output, const ChannelState& ch) {
    return ch.last_active + idle < now && !poq_tracker_.contains(output);
  });
}

void MopiFq::CheckInvariants() const {
  size_t counted_total = 0;
  for (const auto& [output, poq] : poq_tracker_) {
    DCC_CHECK(poq.depth > 0);
    DCC_CHECK(out_seq_.contains(poq.seq_key));
    DCC_CHECK(poq.seq_key.second == output);
    int depth = 0;
    int32_t prev = -1;
    int32_t last_round = poq.current_round;
    std::unordered_map<SourceId, int> per_source;
    for (int32_t idx = poq.head; idx != -1; idx = pool_[idx].next) {
      const Entry& e = pool_[idx];
      DCC_CHECK(e.prev == prev);
      DCC_CHECK(e.round >= last_round);  // Rounds are non-decreasing.
      last_round = e.round;
      // The round's recorded tail must be at or after this entry.
      const int32_t rt = poq.round_tails[static_cast<size_t>(e.round % config_.max_rounds)];
      DCC_CHECK(rt != -1);
      if (pool_[idx].next == -1 || pool_[pool_[idx].next].round != e.round) {
        DCC_CHECK(rt == idx);
      }
      per_source[e.msg.source]++;
      prev = idx;
      ++depth;
    }
    DCC_CHECK(prev == poq.tail);
    DCC_CHECK(depth == poq.depth);
    DCC_CHECK(pool_[poq.head].round == poq.current_round);
    DCC_CHECK(pool_[poq.tail].round == poq.latest_round);
    for (const auto& [src, cnt] : per_source) {
      auto sit = poq.source_latest.find(src);
      DCC_CHECK(sit != poq.source_latest.end());
      DCC_CHECK(sit->second.queued == cnt);
    }
    counted_total += static_cast<size_t>(depth);
  }
  DCC_CHECK(counted_total == total_depth_);
  DCC_CHECK(out_seq_.size() == poq_tracker_.size());
  (void)counted_total;
}

MopiFq::DebugState MopiFq::GetDebugState(Time now) const {
  DebugState state;
  state.total_depth = total_depth_;
  state.pool_capacity = config_.pool_capacity;
  // Rate-limiter state is the superset: every activated queue also touched
  // its channel bucket, and purged-but-tracked channels still matter for
  // credit-balance series.
  state.channels.reserve(rate_lim_.size());
  for (const auto& [output, channel] : rate_lim_) {
    ChannelDebugState ch;
    ch.output = output;
    ch.credit_tokens = channel.bucket.Available(now);
    ch.capacity_qps = channel.bucket.rate_per_sec();
    auto poq = poq_tracker_.find(output);
    if (poq != poq_tracker_.end()) {
      ch.depth = poq->second.depth;
      ch.current_round = poq->second.current_round;
      ch.latest_round = poq->second.latest_round;
    }
    state.channels.push_back(ch);
  }
  std::sort(state.channels.begin(), state.channels.end(),
            [](const ChannelDebugState& a, const ChannelDebugState& b) {
              return a.output < b.output;
            });
  return state;
}

}  // namespace dcc
