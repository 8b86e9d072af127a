#include "store/segment.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

namespace netseer::store {

namespace fs = std::filesystem;

namespace {

[[nodiscard]] std::optional<std::uint32_t> seg_index(const std::string& filename) {
  constexpr const char* kPrefix = "seg-";
  constexpr const char* kSuffix = ".seg";
  const std::size_t prefix = std::strlen(kPrefix);
  const std::size_t suffix = std::strlen(kSuffix);
  if (filename.size() <= prefix + suffix) return std::nullopt;
  if (filename.compare(0, prefix, kPrefix) != 0) return std::nullopt;
  if (filename.compare(filename.size() - suffix, suffix, kSuffix) != 0) return std::nullopt;
  std::uint32_t value = 0;
  for (std::size_t i = prefix; i < filename.size() - suffix; ++i) {
    if (filename[i] < '0' || filename[i] > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint32_t>(filename[i] - '0');
  }
  return value;
}

}  // namespace

std::string segment_path(const std::string& dir, std::uint32_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08u.seg", index);
  return (fs::path(dir) / name).string();
}

std::vector<SegmentFileRef> list_segment_files(const std::string& dir) {
  std::vector<SegmentFileRef> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto index = seg_index(entry.path().filename().string());
    if (!index) continue;
    files.push_back(SegmentFileRef{*index, entry.path().string()});
  }
  std::sort(files.begin(), files.end(),
            [](const SegmentFileRef& a, const SegmentFileRef& b) { return a.index < b.index; });
  return files;
}

void RowIndex::summarize(std::span<const Row> rows) {
  if (summarized_ == 0 && !rows.empty()) {
    min_time_ = rows.front().stored.event.detected_at;
    max_time_ = min_time_;
  }
  for (std::size_t i = summarized_; i < rows.size(); ++i) {
    const auto& event = rows[i].stored.event;
    min_time_ = std::min(min_time_, event.detected_at);
    max_time_ = std::max(max_time_, event.detected_at);
    const auto raw = static_cast<std::size_t>(event.type);
    if (raw < type_counts_.size()) ++type_counts_[raw];
  }
  summarized_ = rows.size();
}

void RowIndex::post(std::span<const Row> rows) {
  summarize(rows);
  for (std::size_t i = posted_; i < rows.size(); ++i) {
    const auto& event = rows[i].stored.event;
    const auto row = static_cast<std::uint32_t>(i);
    by_flow_[event.flow.hash64()].push_back(row);
    by_switch_[event.switch_id].push_back(row);
    const auto raw = static_cast<std::size_t>(event.type);
    if (raw < by_type_.size()) by_type_[raw].push_back(row);
  }
  posted_ = rows.size();
}

Segment Segment::build(std::vector<Row> rows, std::uint32_t file_id, RowIndex index) {
  Segment seg;
  seg.rows_ = std::move(rows);
  seg.file_id_ = file_id;
  seg.min_lsn_ = seg.rows_.front().lsn;
  seg.max_lsn_ = seg.rows_.back().lsn;
  // The summary stays eager (one cheap pass over the rows the handed-in
  // index has not seen, needed for pruning); postings wait for the
  // first lookup so sealing costs no hashing on the ingest path.
  seg.index_ = std::move(index);
  seg.index_.summarize(seg.rows_);
  return seg;
}

std::span<const std::uint32_t> Segment::time_range(std::optional<util::SimTime> from,
                                                   std::optional<util::SimTime> to) const {
  if (time_order_.size() != rows_.size()) {
    // Sorting (time, row) pairs keeps ties in row (= LSN) order; rows
    // that arrived in detection order need no sort at all.
    std::vector<std::pair<util::SimTime, std::uint32_t>> order(rows_.size());
    for (std::uint32_t i = 0; i < rows_.size(); ++i) {
      order[i] = {rows_[i].stored.event.detected_at, i};
    }
    if (!std::is_sorted(order.begin(), order.end())) std::sort(order.begin(), order.end());
    time_keys_.resize(order.size());
    time_order_.resize(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      time_keys_[i] = order[i].first;
      time_order_[i] = order[i].second;
    }
  }
  const auto first = from ? std::lower_bound(time_keys_.begin(), time_keys_.end(), *from)
                          : time_keys_.begin();
  const auto last = to ? std::lower_bound(first, time_keys_.end(), *to) : time_keys_.end();
  if (first >= last) return {};
  return {time_order_.data() + (first - time_keys_.begin()),
          static_cast<std::size_t>(last - first)};
}

bool Segment::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;

  std::array<std::byte, kSegHeaderBytes> header{};
  std::memcpy(header.data(), kSegFileMagic, sizeof(kSegFileMagic));
  put_le<std::uint16_t>(header.data() + 4, kStoreVersion);
  put_le<std::uint16_t>(header.data() + 6, 0);
  put_le<std::uint64_t>(header.data() + 8, rows_.size());
  put_le<std::uint64_t>(header.data() + 16, min_lsn_);
  put_le<std::uint64_t>(header.data() + 24, max_lsn_);
  put_le<std::int64_t>(header.data() + 32, min_time());
  put_le<std::int64_t>(header.data() + 40, max_time());

  std::uint32_t crc = util::crc32_update(0, header);
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
  for (const Row& row : rows_) {
    if (!ok) break;
    const auto encoded = encode_row(row.stored);
    crc = util::crc32_update(crc, encoded);
    ok = std::fwrite(encoded.data(), 1, encoded.size(), f) == encoded.size();
  }
  std::array<std::byte, 4> footer{};
  put_le<std::uint32_t>(footer.data(), crc);
  ok = ok && std::fwrite(footer.data(), 1, footer.size(), f) == footer.size();
  // fsync before the rename: the rename must never make a segment
  // visible whose bytes could still be lost to an OS crash.
  ok = ok && sync_file(f);
  std::fclose(f);
  if (!ok) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return false;
  sync_dir(fs::path(path).parent_path().string());
  return true;
}

std::optional<Segment> Segment::load(const std::string& path, std::uint32_t file_id) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;

  std::array<std::byte, kSegHeaderBytes> header{};
  if (std::fread(header.data(), 1, header.size(), f) != header.size() ||
      std::memcmp(header.data(), kSegFileMagic, sizeof(kSegFileMagic)) != 0 ||
      get_le<std::uint16_t>(header.data() + 4) != kStoreVersion) {
    std::fclose(f);
    return std::nullopt;
  }
  const std::uint64_t count = get_le<std::uint64_t>(header.data() + 8);
  const std::uint64_t first_lsn = get_le<std::uint64_t>(header.data() + 16);
  if (count == 0) {
    std::fclose(f);
    return std::nullopt;  // empty segments are never written
  }

  std::uint32_t crc = util::crc32_update(0, header);
  std::vector<Row> rows;
  rows.reserve(count);
  std::array<std::byte, kRowBytes> raw{};
  std::uint64_t lsn_cursor = first_lsn;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (std::fread(raw.data(), 1, raw.size(), f) != raw.size()) {
      std::fclose(f);
      return std::nullopt;
    }
    crc = util::crc32_update(crc, raw);
    auto stored = decode_row(raw);
    if (!stored) {
      std::fclose(f);
      return std::nullopt;
    }
    rows.push_back(Row{*stored, lsn_cursor++});
  }
  std::array<std::byte, 4> footer{};
  const bool footer_ok = std::fread(footer.data(), 1, footer.size(), f) == footer.size();
  // The footer must also be the end of the file: trailing bytes mean a
  // mangled count field (or appended garbage), not a smaller segment.
  std::byte trailing{};
  const bool at_eof = std::fread(&trailing, 1, 1, f) == 0;
  std::fclose(f);
  if (!footer_ok || !at_eof || get_le<std::uint32_t>(footer.data()) != crc) return std::nullopt;

  Segment seg = build(std::move(rows), file_id);
  // The header's fences are authoritative for the lsn range (rows only
  // carry the reconstructed consecutive run); sanity-check agreement.
  if (seg.max_lsn_ != get_le<std::uint64_t>(header.data() + 24)) return std::nullopt;
  return seg;
}

}  // namespace netseer::store
