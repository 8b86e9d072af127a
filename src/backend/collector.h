#pragma once

#include <unordered_map>
#include <unordered_set>

#include "core/report.h"
#include "sim/simulator.h"
#include "store/store.h"

namespace netseer::backend {

/// Backend endpoint of the reliable report channel: deduplicates
/// retransmitted segments, stores their events into a
/// store::FlowEventStore (in memory or durable), and acks cumulatively
/// per reporting switch.
///
/// The out-of-order window is bounded: a segment more than
/// kReorderWindow sequences ahead of the cumulative ack is dropped (and
/// counted) instead of growing PeerState::seen without limit — the
/// sender's retransmit timer redelivers it once the gap closes, so
/// nothing is lost, only deferred.
class Collector {
 public:
  /// Segments accepted ahead of the cumulative ack, per peer. 1024
  /// 16-byte entries bounds a peer's reorder state at ~16 KiB where the
  /// unbounded set grew with every hole the lossy management network
  /// left behind.
  static constexpr std::uint32_t kReorderWindow = 1024;

  Collector(sim::Simulator& sim, util::NodeId id, core::ReportChannel& channel,
            store::FlowEventStore& store)
      : sim_(sim), id_(id), channel_(channel), store_(store) {
    channel_.register_endpoint(id_, [this](util::NodeId from, const core::ReportMsg& msg) {
      on_message(from, msg);
    });
  }

  [[nodiscard]] util::NodeId id() const { return id_; }
  [[nodiscard]] std::uint64_t segments_received() const { return segments_; }
  [[nodiscard]] std::uint64_t duplicate_segments() const { return duplicates_; }
  [[nodiscard]] std::uint64_t events_stored() const { return events_stored_; }
  /// Segments dropped for landing beyond the bounded reorder window.
  [[nodiscard]] std::uint64_t window_dropped_segments() const { return window_drops_; }

 private:
  void on_message(util::NodeId from, const core::ReportMsg& msg) {
    if (msg.kind != core::ReportMsg::Kind::kData) return;
    ++segments_;
    auto& peer = peers_[from];
    if (msg.seq < peer.next_expected || peer.seen.contains(msg.seq)) {
      ++duplicates_;
    } else if (msg.seq >= peer.next_expected + kReorderWindow) {
      // Too far ahead to buffer: drop, count, and let the ack below
      // tell the sender where the gap starts so it retransmits.
      ++window_drops_;
    } else {
      peer.seen.insert(msg.seq);
      // Whole-batch handoff: a durable store amortizes WAL framing and
      // group commit across the segment instead of per event.
      store_.add_batch(msg.batch.events, sim_.now());
      events_stored_ += msg.batch.events.size();
      // Advance the cumulative ack over contiguous receptions.
      while (peer.seen.contains(peer.next_expected)) {
        peer.seen.erase(peer.next_expected);
        ++peer.next_expected;
      }
    }
    core::ReportMsg ack;
    ack.kind = core::ReportMsg::Kind::kAck;
    ack.seq = peer.next_expected;
    channel_.send(id_, from, std::move(ack));
  }

  struct PeerState {
    std::uint32_t next_expected = 0;
    std::unordered_set<std::uint32_t> seen;  // received beyond next_expected, bounded
  };

  sim::Simulator& sim_;
  util::NodeId id_;
  core::ReportChannel& channel_;
  store::FlowEventStore& store_;
  std::unordered_map<util::NodeId, PeerState> peers_;
  std::uint64_t segments_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t events_stored_ = 0;
  std::uint64_t window_drops_ = 0;
};

}  // namespace netseer::backend
