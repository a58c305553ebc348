#include "src/core/event.hpp"

#include <gtest/gtest.h>

namespace fsmon::core {
namespace {

StdEvent sample_event() {
  StdEvent event;
  event.id = 42;
  event.kind = EventKind::kMovedTo;
  event.is_dir = true;
  event.watch_root = "/mnt/lustre";
  event.path = "/okdir/hi.txt";
  event.cookie = 7;
  event.timestamp = common::TimePoint{std::chrono::nanoseconds(123456789)};
  event.source = "lustre:MDT2";
  return event;
}

TEST(EventKindTest, NamesMatchPaperTableTwo) {
  EXPECT_EQ(to_string(EventKind::kCreate), "CREATE");
  EXPECT_EQ(to_string(EventKind::kModify), "MODIFY");
  EXPECT_EQ(to_string(EventKind::kClose), "CLOSE");
  EXPECT_EQ(to_string(EventKind::kDelete), "DELETE");
  EXPECT_EQ(to_string(EventKind::kMovedFrom), "MOVED_FROM");
  EXPECT_EQ(to_string(EventKind::kMovedTo), "MOVED_TO");
}

TEST(EventKindTest, ParseRoundTrip) {
  for (auto kind : {EventKind::kCreate, EventKind::kModify, EventKind::kAttrib,
                    EventKind::kClose, EventKind::kOpen, EventKind::kDelete,
                    EventKind::kMovedFrom, EventKind::kMovedTo}) {
    EXPECT_EQ(parse_event_kind(to_string(kind)), kind);
  }
  EXPECT_FALSE(parse_event_kind("BOGUS").has_value());
}

TEST(StdEventTest, InotifyLineFormat) {
  // Table II format: "<root> <KIND>[,ISDIR] <path>".
  StdEvent event;
  event.kind = EventKind::kCreate;
  event.watch_root = "/home/arnab/test";
  event.path = "/hello.txt";
  EXPECT_EQ(to_inotify_line(event), "/home/arnab/test CREATE /hello.txt");
  event.kind = EventKind::kCreate;
  event.is_dir = true;
  event.path = "/okdir";
  EXPECT_EQ(to_inotify_line(event), "/home/arnab/test CREATE,ISDIR /okdir");
}

TEST(StdEventTest, FullPathJoinsRootAndPath) {
  StdEvent event;
  event.watch_root = "/mnt/lustre";
  event.path = "/a/b";
  EXPECT_EQ(event.full_path(), "/mnt/lustre/a/b");
  event.watch_root = "/";
  EXPECT_EQ(event.full_path(), "/a/b");
}

TEST(StdEventTest, RenameHalfAccessorsAndKey) {
  StdEvent from = sample_event();
  from.kind = EventKind::kMovedFrom;
  StdEvent to = sample_event();
  to.kind = EventKind::kMovedTo;
  to.path = "/okdir/renamed.txt";
  EXPECT_TRUE(from.is_rename_from());
  EXPECT_FALSE(from.is_rename_to());
  EXPECT_TRUE(to.is_rename_to());
  EXPECT_TRUE(from.is_rename_half());
  EXPECT_TRUE(to.is_rename_half());
  // Both halves of one RENME record share the same (source, cookie) key.
  EXPECT_EQ(from.rename_key(), to.rename_key());
  StdEvent other = to;
  other.cookie = 8;
  EXPECT_NE(from.rename_key(), other.rename_key());
  StdEvent create = sample_event();
  create.kind = EventKind::kCreate;
  EXPECT_FALSE(create.is_rename_half());
}

TEST(StdEventTest, HasPathRejectsSentinelAndEmpty) {
  StdEvent event = sample_event();
  EXPECT_TRUE(event.has_path());
  event.path = kParentDirectoryRemoved;
  EXPECT_FALSE(event.has_path());
  event.path.clear();
  EXPECT_FALSE(event.has_path());
}

TEST(StdEventTest, ParentPathAndBaseName) {
  StdEvent event = sample_event();
  event.path = "/a/b/c.txt";
  EXPECT_EQ(event.parent_path(), "/a/b");
  EXPECT_EQ(event.base_name(), "c.txt");
  event.path = "/top";
  EXPECT_EQ(event.parent_path(), "/");
  EXPECT_EQ(event.base_name(), "top");
  event.path = kParentDirectoryRemoved;
  EXPECT_EQ(event.parent_path(), "/");
  EXPECT_EQ(event.base_name(), "");
}

TEST(SerializationTest, RoundTripPreservesAllFields) {
  const StdEvent original = sample_event();
  const auto bytes = serialize_event(original);
  auto decoded = deserialize_event(bytes);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().first, original);
  EXPECT_EQ(decoded.value().second, bytes.size());
}

TEST(SerializationTest, EmptyStringsRoundTrip) {
  StdEvent event;
  const auto bytes = serialize_event(event);
  auto decoded = deserialize_event(bytes);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().first, event);
}

TEST(SerializationTest, TruncatedInputFails) {
  const auto bytes = serialize_event(sample_event());
  for (std::size_t len = 0; len + 1 < bytes.size(); len += 7) {
    auto decoded = deserialize_event(std::span(bytes.data(), len));
    EXPECT_FALSE(decoded.is_ok()) << "len=" << len;
    EXPECT_EQ(decoded.code(), common::ErrorCode::kCorrupt);
  }
}

TEST(SerializationTest, BadKindRejected) {
  auto bytes = serialize_event(sample_event());
  bytes[8] = std::byte{0xEE};  // kind byte follows the 8-byte id
  EXPECT_EQ(deserialize_event(bytes).code(), common::ErrorCode::kCorrupt);
}

EventBatch sample_batch(std::size_t n) {
  EventBatch batch;
  for (std::size_t i = 0; i < n; ++i) {
    StdEvent event = sample_event();
    event.id = 100 + i;
    event.path = "/file" + std::to_string(i);
    batch.events.push_back(std::move(event));
  }
  return batch;
}

TEST(BatchCodecTest, RoundTripPreservesAllEvents) {
  const EventBatch original = sample_batch(5);
  const auto bytes = encode_batch(original);
  auto decoded = decode_batch(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), original);
}

TEST(BatchCodecTest, EmptyBatchIsValid) {
  const auto bytes = encode_batch(EventBatch{});
  auto decoded = decode_batch(bytes);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(BatchCodecTest, BadMagicRejected) {
  auto bytes = encode_batch(sample_batch(2));
  bytes[0] = std::byte{0x00};
  EXPECT_EQ(decode_batch(bytes).code(), common::ErrorCode::kCorrupt);
}

TEST(BatchCodecTest, TruncatedFrameRejectedAtEveryLength) {
  const auto bytes = encode_batch(sample_batch(3));
  for (std::size_t len = 0; len < bytes.size(); len += 5) {
    auto decoded = decode_batch(std::span(bytes.data(), len));
    EXPECT_FALSE(decoded.is_ok()) << "len=" << len;
    EXPECT_EQ(decoded.code(), common::ErrorCode::kCorrupt);
  }
}

TEST(BatchCodecTest, CrcMismatchRejected) {
  auto bytes = encode_batch(sample_batch(3));
  // Flip a payload byte mid-batch; the trailer CRC catches it.
  bytes[bytes.size() / 2] ^= std::byte{0xFF};
  EXPECT_EQ(decode_batch(bytes).code(), common::ErrorCode::kCorrupt);
}

TEST(BatchCodecTest, TrailingGarbageRejected) {
  auto bytes = encode_batch(sample_batch(1));
  bytes.push_back(std::byte{0x00});
  EXPECT_EQ(decode_batch(bytes).code(), common::ErrorCode::kCorrupt);
}

TEST(BatchCodecTest, ViewIndexesEveryEventWithoutDecoding) {
  const EventBatch batch = sample_batch(4);
  const auto bytes = encode_batch(batch);
  auto view = view_batch(bytes);
  ASSERT_TRUE(view.is_ok());
  ASSERT_EQ(view.value().count, 4u);
  ASSERT_EQ(view.value().events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto [offset, length] = view.value().events[i];
    auto decoded = deserialize_event(std::span(bytes).subspan(offset, length));
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value().first, batch.events[i]);
  }
}

TEST(BatchCodecTest, PatchIdsRenumbersInPlaceAndCrcStaysValid) {
  auto bytes = encode_batch(sample_batch(4));
  auto patched = patch_batch_ids(bytes, 1000);
  ASSERT_TRUE(patched.is_ok()) << patched.status().to_string();
  EXPECT_EQ(patched.value(), 4u);
  // The patched frame still passes full CRC verification...
  auto decoded = decode_batch(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  // ...and only the ids changed, to the consecutive block.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(decoded.value().events[i].id, 1000 + i);
    EXPECT_EQ(decoded.value().events[i].path, "/file" + std::to_string(i));
  }
}

TEST(BatchCodecTest, PeekTimestampMatchesDecodedEvent) {
  const StdEvent event = sample_event();
  const auto bytes = serialize_event(event);
  auto peeked = peek_event_timestamp(bytes);
  ASSERT_TRUE(peeked.is_ok());
  EXPECT_EQ(peeked.value(), event.timestamp);
  EXPECT_EQ(peek_event_timestamp(std::span(bytes.data(), 10)).code(),
            common::ErrorCode::kCorrupt);
}

TEST(BatchCodecTest, PeekKindAndIsDirMatchDecodedEvent) {
  const StdEvent event = sample_event();  // kMovedTo, is_dir=true
  const auto bytes = serialize_event(event);
  auto kind = peek_event_kind(bytes);
  ASSERT_TRUE(kind.is_ok());
  EXPECT_EQ(kind.value(), EventKind::kMovedTo);
  auto is_dir = peek_event_is_dir(bytes);
  ASSERT_TRUE(is_dir.is_ok());
  EXPECT_TRUE(is_dir.value());

  StdEvent file = event;
  file.kind = EventKind::kModify;
  file.is_dir = false;
  const auto file_bytes = serialize_event(file);
  EXPECT_EQ(peek_event_kind(file_bytes).value(), EventKind::kModify);
  EXPECT_FALSE(peek_event_is_dir(file_bytes).value());

  // Short buffers and corrupt kind bytes are rejected, not misread.
  EXPECT_EQ(peek_event_kind(std::span(bytes.data(), 8)).code(),
            common::ErrorCode::kCorrupt);
  EXPECT_EQ(peek_event_is_dir(std::span(bytes.data(), 9)).code(),
            common::ErrorCode::kCorrupt);
  auto corrupt = serialize_event(event);
  corrupt[8] = std::byte{0xEE};
  EXPECT_EQ(peek_event_kind(corrupt).code(), common::ErrorCode::kCorrupt);
}

// Byte offset of the path's u64 length prefix in a serialized event:
// the fixed 26-byte header, then watch_root's length and bytes.
std::size_t path_length_offset(const StdEvent& event) {
  return 26 + 8 + event.watch_root.size();
}

void write_u64(std::vector<std::byte>& bytes, std::size_t offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes[offset + static_cast<std::size_t>(i)] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
}

TEST(BatchCodecTest, PeekPathAndIdMatchDecodedEvent) {
  const StdEvent event = sample_event();
  const auto bytes = serialize_event(event);
  auto path = peek_event_path(bytes);
  ASSERT_TRUE(path.is_ok()) << path.status().to_string();
  EXPECT_EQ(path.value(), "/okdir/hi.txt");
  // A view into the record, not a copy.
  EXPECT_GE(reinterpret_cast<const std::byte*>(path.value().data()), bytes.data());
  EXPECT_LT(reinterpret_cast<const std::byte*>(path.value().data()),
            bytes.data() + bytes.size());
  EXPECT_EQ(peek_event_id(bytes).value(), 42u);

  // Empty watch_root and empty path are valid and peek as such.
  StdEvent bare = event;
  bare.watch_root.clear();
  bare.path.clear();
  const auto bare_bytes = serialize_event(bare);
  ASSERT_TRUE(peek_event_path(bare_bytes).is_ok());
  EXPECT_EQ(peek_event_path(bare_bytes).value(), "");
  EXPECT_EQ(peek_event_source(bare_bytes).value(), "lustre:MDT2");

  // Non-canonical paths come back verbatim; normalizing is the caller's.
  StdEvent relative = event;
  relative.path = "a//b/../c/";
  EXPECT_EQ(peek_event_path(serialize_event(relative)).value(), "a//b/../c/");
}

TEST(BatchCodecTest, PeekPathRejectsOutOfBoundsLengths) {
  const StdEvent event = sample_event();
  const auto bytes = serialize_event(event);
  // Too short for the header, for watch_root's prefix, or for the path.
  for (std::size_t n : {0, 8, 26, 30, 34}) {
    EXPECT_EQ(peek_event_path(std::span(bytes.data(), n)).code(),
              common::ErrorCode::kCorrupt)
        << n;
  }
  EXPECT_EQ(peek_event_path(std::span(bytes.data(), path_length_offset(event) + 8 + 3)).code(),
            common::ErrorCode::kCorrupt);
  EXPECT_EQ(peek_event_id(std::span(bytes.data(), 7)).code(), common::ErrorCode::kCorrupt);

  // A path length one past the record, or absurdly large.
  for (std::uint64_t len : {std::uint64_t{bytes.size()}, std::uint64_t{1} << 40,
                            ~std::uint64_t{0}}) {
    auto corrupt = bytes;
    write_u64(corrupt, path_length_offset(event), len);
    EXPECT_EQ(peek_event_path(corrupt).code(), common::ErrorCode::kCorrupt) << len;
    EXPECT_EQ(peek_event_source(corrupt).code(), common::ErrorCode::kCorrupt) << len;
  }
  // A corrupt watch_root length fails the path peek too.
  auto corrupt_root = bytes;
  write_u64(corrupt_root, 26, bytes.size());
  EXPECT_EQ(peek_event_path(corrupt_root).code(), common::ErrorCode::kCorrupt);
}

TEST(BatchCodecTest, DecodeEventsDecodesOnlyTheGivenIndices) {
  const EventBatch original = sample_batch(6);
  const auto bytes = encode_batch(original);
  auto view = view_batch(bytes);
  ASSERT_TRUE(view.is_ok());
  const auto before = codec_counters();
  std::vector<StdEvent> out;
  const std::vector<std::uint32_t> indices{1, 4, 5};
  ASSERT_TRUE(decode_events(bytes, view.value(), indices, out).is_ok());
  const auto after = codec_counters();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], original.events[1]);
  EXPECT_EQ(out[1], original.events[4]);
  EXPECT_EQ(out[2], original.events[5]);
  EXPECT_EQ(after.deserialize_calls - before.deserialize_calls, 3u);

  out.clear();
  ASSERT_TRUE(decode_events(bytes, view.value(), {}, out).is_ok());
  EXPECT_TRUE(out.empty());
}

TEST(BatchCodecTest, CodecCountersAdvance) {
  const auto before = codec_counters();
  const auto bytes = encode_batch(sample_batch(3));
  auto decoded = decode_batch(bytes);
  ASSERT_TRUE(decoded.is_ok());
  const auto after = codec_counters();
  EXPECT_EQ(after.serialize_calls - before.serialize_calls, 3u);
  EXPECT_EQ(after.deserialize_calls - before.deserialize_calls, 3u);
}

TEST(SerializationTest, ConsecutiveEventsDecodeSequentially) {
  std::vector<std::byte> buffer;
  StdEvent a = sample_event();
  StdEvent b = sample_event();
  b.id = 43;
  b.path = "/other";
  serialize_event(a, buffer);
  serialize_event(b, buffer);
  auto first = deserialize_event(buffer);
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().first.id, 42u);
  auto second = deserialize_event(std::span(buffer).subspan(first.value().second));
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().first.path, "/other");
}

}  // namespace
}  // namespace fsmon::core
