#include "tcp/scoreboard.hpp"

#include <algorithm>

namespace rrtcp::tcp {

void Scoreboard::update(const net::TcpHeader& h, std::uint64_t snd_una) {
  for (int i = 0; i < h.n_sack; ++i) {
    auto [begin, end] = h.sack_block(i);
    if (end <= begin) continue;
    if (end <= snd_una) continue;
    begin = std::max(begin, snd_una);
    highest_sacked_ = std::max(highest_sacked_, end);

    // Merge into blocks_.
    auto it = blocks_.lower_bound(begin);
    if (it != blocks_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= begin) {
        begin = prev->first;
        end = std::max(end, prev->second);
        blocks_.erase(prev);
      }
    }
    while (true) {
      it = blocks_.lower_bound(begin);
      if (it == blocks_.end() || it->first > end) break;
      end = std::max(end, it->second);
      blocks_.erase(it);
    }
    blocks_[begin] = end;
  }

  // Drop state at or below the cumulative ACK.
  while (!blocks_.empty() && blocks_.begin()->second <= snd_una)
    blocks_.erase(blocks_.begin());
  if (!blocks_.empty() && blocks_.begin()->first < snd_una) {
    auto node = blocks_.extract(blocks_.begin());
    const std::uint64_t end = node.mapped();
    blocks_[snd_una] = end;
  }
  std::erase_if(rtx_, [snd_una](std::uint64_t s) { return s < snd_una; });
}

void Scoreboard::reset() {
  blocks_.clear();
  rtx_.clear();
  highest_sacked_ = 0;
}

bool Scoreboard::is_sacked(std::uint64_t seq) const {
  auto it = blocks_.upper_bound(seq);
  if (it == blocks_.begin()) return false;
  --it;
  return seq >= it->first && seq < it->second;
}

std::optional<std::uint64_t> Scoreboard::next_hole(std::uint64_t from,
                                                   std::uint32_t mss,
                                                   int dupthresh,
                                                   bool require_lost) const {
  for (std::uint64_t seq = from; seq + 1 <= highest_sacked_; seq += mss) {
    if (is_sacked(seq)) continue;
    if (rtx_.count(seq)) continue;
    if (require_lost && !is_lost(seq, mss, dupthresh)) continue;
    return seq;
  }
  return std::nullopt;
}

std::uint64_t Scoreboard::sacked_bytes_above(std::uint64_t seq) const {
  std::uint64_t total = 0;
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    if (it->second <= seq) break;
    total += it->second - std::max(it->first, seq);
  }
  return total;
}

long Scoreboard::pipe_packets(std::uint64_t una, std::uint64_t nxt,
                              std::uint32_t mss, int dupthresh) const {
  long pipe = 0;
  for (std::uint64_t s = una; s < nxt; s += mss) {
    const bool sacked = is_sacked(s);
    if (!sacked && !is_lost(s, mss, dupthresh)) ++pipe;
    if (rtx_.count(s)) ++pipe;  // its retransmission is in flight
  }
  return pipe;
}

std::uint64_t Scoreboard::sacked_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [b, e] : blocks_) total += e - b;
  return total;
}

}  // namespace rrtcp::tcp
