#include "store/segment.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/event.h"

namespace netseer::store {
namespace {

namespace fs = std::filesystem;

class SegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Suffix with the case name: ctest runs each case as its own process,
    // possibly in parallel with siblings.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() / (std::string("netseer_segment_test.") + info->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static Row row(std::uint64_t lsn, util::NodeId node, std::uint16_t sport,
                 core::EventType type = core::EventType::kDrop) {
    auto ev = core::make_event(type,
                               packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                                               packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6,
                                               sport, 80},
                               node, static_cast<util::SimTime>(lsn * 100));
    return Row{backend::StoredEvent{ev, static_cast<util::SimTime>(lsn * 100 + 7)}, lsn};
  }

  std::string dir_;
};

TEST_F(SegmentTest, BuildComputesFencesAndIndexes) {
  std::vector<Row> rows{row(10, 1, 1000), row(11, 2, 1001), row(12, 1, 1000),
                        row(13, 3, 1002, core::EventType::kCongestion)};
  const auto segment = Segment::build(std::move(rows));
  EXPECT_EQ(segment.size(), 4u);
  EXPECT_EQ(segment.min_lsn(), 10u);
  EXPECT_EQ(segment.max_lsn(), 13u);
  EXPECT_EQ(segment.min_time(), 1000);
  EXPECT_EQ(segment.max_time(), 1300);
  EXPECT_EQ(segment.summary().type_count(core::EventType::kDrop), 3u);
  EXPECT_EQ(segment.summary().type_count(core::EventType::kCongestion), 1u);
  EXPECT_EQ(segment.summary().type_count(core::EventType::kPause), 0u);

  const auto& index = segment.index();
  const auto* same_flow = index.flow_rows(row(0, 1, 1000).stored.event.flow.hash64());
  ASSERT_NE(same_flow, nullptr);
  EXPECT_EQ(*same_flow, (RowIndex::Posting{0, 2}));
  const auto* node1 = index.switch_rows(1);
  ASSERT_NE(node1, nullptr);
  EXPECT_EQ(node1->size(), 2u);
  EXPECT_EQ(index.switch_rows(99), nullptr);
  const auto* congestion = index.type_rows(core::EventType::kCongestion);
  ASSERT_NE(congestion, nullptr);
  EXPECT_EQ(*congestion, (RowIndex::Posting{3}));
  EXPECT_EQ(index.type_rows(core::EventType::kPause), nullptr);
}

TEST_F(SegmentTest, SealTakesOverAPartialIndexAndExtendsIt) {
  // The memtable's index covers the rows of its last query; the segment
  // completes the summary at build and the postings on first lookup.
  std::vector<Row> rows{row(1, 1, 1000), row(2, 2, 1001), row(3, 1, 1000),
                        row(4, 2, 1002, core::EventType::kPause)};
  RowIndex partial;
  partial.post(std::span<const Row>(rows.data(), 2));
  const auto segment = Segment::build(std::move(rows), 0, std::move(partial));
  EXPECT_EQ(segment.summary().summarized(), 4u);
  EXPECT_EQ(segment.summary().posted(), 2u);
  EXPECT_EQ(segment.summary().type_count(core::EventType::kPause), 1u);
  EXPECT_EQ(segment.max_time(), 400);
  EXPECT_EQ(segment.index().posted(), 4u);
  EXPECT_EQ(*segment.index().switch_rows(1), (RowIndex::Posting{0, 2}));
  EXPECT_EQ(*segment.index().switch_rows(2), (RowIndex::Posting{1, 3}));
  EXPECT_EQ(*segment.index().type_rows(core::EventType::kPause), (RowIndex::Posting{3}));
}

TEST_F(SegmentTest, TimeRangeSelectsTheWindowInTimeOrder) {
  // detected_at out of LSN order, with a tie: 500 300 700 300 100.
  std::vector<Row> rows;
  for (const util::SimTime at : {500, 300, 700, 300, 100}) {
    rows.push_back(row(rows.size() + 1, 1, 1000));
    rows.back().stored.event.detected_at = at;
  }
  const auto segment = Segment::build(std::move(rows));
  const auto range = [&](std::optional<util::SimTime> from, std::optional<util::SimTime> to) {
    const auto span = segment.time_range(from, to);
    return std::vector<std::uint32_t>(span.begin(), span.end());
  };
  EXPECT_EQ(range(300, 700), (std::vector<std::uint32_t>{1, 3, 0}));
  EXPECT_EQ(range(std::nullopt, 301), (std::vector<std::uint32_t>{4, 1, 3}));
  EXPECT_EQ(range(600, std::nullopt), (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(range(301, 500).empty());
  EXPECT_TRUE(range(700, 300).empty());
  EXPECT_EQ(range(std::nullopt, std::nullopt).size(), 5u);
}

TEST_F(SegmentTest, OverlapUsesFences) {
  const auto segment = Segment::build({row(1, 1, 1000), row(2, 1, 1001)});  // times 100..200
  EXPECT_TRUE(segment.summary().overlaps(std::nullopt, std::nullopt));
  EXPECT_TRUE(segment.summary().overlaps(100, 101));
  EXPECT_TRUE(segment.summary().overlaps(200, std::nullopt));
  EXPECT_FALSE(segment.summary().overlaps(201, std::nullopt));  // starts past max_time
  EXPECT_FALSE(segment.summary().overlaps(std::nullopt, 100));  // to exclusive
  EXPECT_TRUE(segment.summary().overlaps(std::nullopt, 101));
}

TEST_F(SegmentTest, SaveLoadRoundTrip) {
  std::vector<Row> rows;
  for (std::uint64_t i = 0; i < 100; ++i) {
    rows.push_back(row(50 + i, static_cast<util::NodeId>(i % 4),
                       static_cast<std::uint16_t>(2000 + i % 16)));
  }
  const auto segment = Segment::build(std::move(rows));
  const auto path = segment_path(dir_, 7);
  ASSERT_TRUE(segment.save(path));

  const auto loaded = Segment::load(path, 7);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->file_id(), 7u);
  ASSERT_EQ(loaded->size(), 100u);
  EXPECT_EQ(loaded->min_lsn(), 50u);
  EXPECT_EQ(loaded->max_lsn(), 149u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(loaded->rows()[i].lsn, segment.rows()[i].lsn);
    EXPECT_EQ(loaded->rows()[i].stored.event, segment.rows()[i].stored.event);
    EXPECT_EQ(loaded->rows()[i].stored.stored_at, segment.rows()[i].stored.stored_at);
  }
  // Indexes are rebuilt on load.
  EXPECT_NE(loaded->index().switch_rows(1), nullptr);
}

TEST_F(SegmentTest, LoadRejectsFlippedByte) {
  const auto segment = Segment::build({row(1, 1, 1000), row(2, 1, 1001)});
  const auto path = segment_path(dir_, 1);
  ASSERT_TRUE(segment.save(path));
  const auto size = fs::file_size(path);
  for (const std::uintmax_t offset : {std::uintmax_t{10}, size / 2, size - 2}) {
    auto bytes = [&] {
      std::ifstream in(path, std::ios::binary);
      return std::string(std::istreambuf_iterator<char>(in), {});
    }();
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x10);
    const auto mangled = (fs::path(dir_) / "mangled.seg").string();
    std::ofstream(mangled, std::ios::binary) << bytes;
    EXPECT_FALSE(Segment::load(mangled, 1).has_value()) << "offset " << offset;
  }
}

TEST_F(SegmentTest, LoadRejectsTruncation) {
  const auto segment = Segment::build({row(1, 1, 1000), row(2, 1, 1001)});
  const auto path = segment_path(dir_, 1);
  ASSERT_TRUE(segment.save(path));
  const auto size = fs::file_size(path);
  for (std::uintmax_t keep = 0; keep < size; keep += 7) {
    const auto cut = (fs::path(dir_) / "cut.seg").string();
    fs::copy_file(path, cut, fs::copy_options::overwrite_existing);
    fs::resize_file(cut, keep);
    EXPECT_FALSE(Segment::load(cut, 1).has_value()) << "kept " << keep << " bytes";
  }
}

TEST_F(SegmentTest, LoadRejectsTrailingBytes) {
  // A mangled count field that shrank past real rows (or appended
  // garbage) leaves bytes after the footer; load must not accept the
  // file as a smaller segment.
  const auto segment = Segment::build({row(1, 1, 1000), row(2, 1, 1001)});
  const auto path = segment_path(dir_, 1);
  ASSERT_TRUE(segment.save(path));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << 'x';
  }
  EXPECT_FALSE(Segment::load(path, 1).has_value());
}

TEST_F(SegmentTest, ListSegmentFilesSortsAndFilters) {
  ASSERT_TRUE(Segment::build({row(1, 1, 1)}).save(segment_path(dir_, 12)));
  ASSERT_TRUE(Segment::build({row(2, 1, 2)}).save(segment_path(dir_, 3)));
  std::ofstream(fs::path(dir_) / "notasegment.txt") << "x";
  const auto files = list_segment_files(dir_);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].index, 3u);
  EXPECT_EQ(files[1].index, 12u);
}

}  // namespace
}  // namespace netseer::store
