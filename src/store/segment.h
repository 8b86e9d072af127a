#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/format.h"

namespace netseer::store {

/// The indexes the query planner reads instead of scanning a run of
/// rows in LSN order (a sealed segment's or the memtable's). Two tiers,
/// both extended incrementally over an append-only run:
///
///   - the summary: min/max detected_at fences and per-type row counts,
///     which prune whole runs;
///   - the postings: flow-hash -> rows, device -> rows and type -> rows,
///     each row index list in LSN order.
///
/// The memtable keeps one index across appends and extends it at plan
/// time over the rows added since the last query; sealing moves it into
/// the new Segment, which extends it over whatever rows arrived after
/// that query. NOT thread-safe: only the query planner, on the querying
/// thread, extends indexes.
class RowIndex {
 public:
  using Posting = std::vector<std::uint32_t>;

  /// Fold rows [summarized(), rows.size()) into the fences and counts.
  void summarize(std::span<const Row> rows);
  /// summarize(), then fold rows [posted(), rows.size()) into the postings.
  void post(std::span<const Row> rows);

  /// Rows covered by the summary / by the postings (a prefix of the run).
  [[nodiscard]] std::size_t summarized() const { return summarized_; }
  [[nodiscard]] std::size_t posted() const { return posted_; }

  /// Fences over the summarized rows (meaningless while summarized() == 0).
  [[nodiscard]] util::SimTime min_time() const { return min_time_; }
  [[nodiscard]] util::SimTime max_time() const { return max_time_; }
  [[nodiscard]] std::uint32_t type_count(core::EventType type) const {
    const auto raw = static_cast<std::size_t>(type);
    return raw < type_counts_.size() ? type_counts_[raw] : 0;
  }

  /// True when [from, to) could contain a summarized row (fences are
  /// inclusive on both ends; `to` is exclusive as in EventQuery).
  [[nodiscard]] bool overlaps(std::optional<util::SimTime> from,
                              std::optional<util::SimTime> to) const {
    if (summarized_ == 0) return false;
    if (from && max_time_ < *from) return false;
    if (to && min_time_ >= *to) return false;
    return true;
  }

  /// Posting lookups over the posted rows; nullptr when the key has none.
  [[nodiscard]] const Posting* flow_rows(std::uint64_t flow_hash) const {
    const auto it = by_flow_.find(flow_hash);
    return it == by_flow_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const Posting* switch_rows(util::NodeId node) const {
    const auto it = by_switch_.find(node);
    return it == by_switch_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const Posting* type_rows(core::EventType type) const {
    const auto raw = static_cast<std::size_t>(type);
    return raw < by_type_.size() && !by_type_[raw].empty() ? &by_type_[raw] : nullptr;
  }

 private:
  static constexpr std::size_t kTypeSlots = 8;

  std::size_t summarized_ = 0;
  std::size_t posted_ = 0;
  util::SimTime min_time_ = 0;
  util::SimTime max_time_ = 0;
  std::array<std::uint32_t, kTypeSlots> type_counts_{};
  std::unordered_map<std::uint64_t, Posting> by_flow_;
  std::unordered_map<util::NodeId, Posting> by_switch_;
  std::array<Posting, kTypeSlots> by_type_;
};

/// An immutable, time-partitioned run of rows in LSN order, with the
/// RowIndex the query engine intersects instead of scanning, plus a
/// detection-time order for windowed scans that have no posting.
///
/// A segment is sealed from the memtable (taking over the memtable's
/// index) or merged out of smaller segments by compaction, and never
/// mutated afterwards. Its summary is complete from construction; the
/// postings and the time order build lazily on first lookup, so sealing
/// stays off the ingest hot path and a loaded segment that only serves
/// time-windowed scans never hashes a row. The on-disk format stays a
/// plain CRC-protected row run.
class Segment {
 public:
  /// Build from rows already sorted by LSN (callers: memtable seal,
  /// compaction merge, segment-file load). `rows` must be non-empty.
  /// `index` may cover any prefix of `rows` (the memtable's, at seal);
  /// its summary is completed here, its postings on first lookup.
  static Segment build(std::vector<Row> rows, std::uint32_t file_id = 0, RowIndex index = {});

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] std::uint64_t min_lsn() const { return min_lsn_; }
  [[nodiscard]] std::uint64_t max_lsn() const { return max_lsn_; }
  [[nodiscard]] util::SimTime min_time() const { return index_.min_time(); }
  [[nodiscard]] util::SimTime max_time() const { return index_.max_time(); }

  /// Id of the backing seg-NNNNNNNN.seg file; 0 for memory-only.
  [[nodiscard]] std::uint32_t file_id() const { return file_id_; }
  void set_file_id(std::uint32_t id) { file_id_ = id; }

  /// The segment's index: summary() is complete from construction;
  /// index() first builds or extends the postings over every row (under
  /// the serial-planner contract, see RowIndex).
  [[nodiscard]] const RowIndex& summary() const { return index_; }
  [[nodiscard]] const RowIndex& index() const {
    if (index_.posted() < rows_.size()) index_.post(rows_);
    return index_;
  }

  /// Row indexes whose detected_at lies in [from, to), in (detected_at,
  /// row) order. Builds the detection-time order on first use; under the
  /// serial-planner contract (see RowIndex).
  [[nodiscard]] std::span<const std::uint32_t> time_range(
      std::optional<util::SimTime> from, std::optional<util::SimTime> to) const;

  /// Write as a CRC-protected segment file (fsync'd, via a .tmp +
  /// rename + directory fsync, so a crash mid-seal never leaves a half
  /// segment under the final name and a sealed one cannot vanish).
  [[nodiscard]] bool save(const std::string& path) const;

  /// Load and fully validate a segment file (header, row encodings,
  /// CRC footer); nullopt on any corruption.
  [[nodiscard]] static std::optional<Segment> load(const std::string& path,
                                                   std::uint32_t file_id);

 private:
  Segment() = default;

  std::vector<Row> rows_;
  std::uint64_t min_lsn_ = 0;
  std::uint64_t max_lsn_ = 0;
  std::uint32_t file_id_ = 0;

  mutable RowIndex index_;
  // Detection-time order, built lazily by time_range(): row indexes
  // sorted by (detected_at, row), with their detected_at alongside so
  // the binary search stays inside one dense array.
  mutable std::vector<util::SimTime> time_keys_;
  mutable std::vector<std::uint32_t> time_order_;
};

/// Segment files under `dir` ("seg-NNNNNNNN.seg"), sorted by file id.
struct SegmentFileRef {
  std::uint32_t index = 0;
  std::string path;
};
[[nodiscard]] std::vector<SegmentFileRef> list_segment_files(const std::string& dir);

[[nodiscard]] std::string segment_path(const std::string& dir, std::uint32_t index);

}  // namespace netseer::store
