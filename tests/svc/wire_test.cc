// Length-prefixed JSON framing for the lmbenchd protocol.
#include "src/svc/wire.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <thread>

#include "src/sys/error.h"
#include "src/sys/fdio.h"
#include "src/sys/pipe.h"

namespace lmb::svc {
namespace {

TEST(WireTest, FramesRoundTrip) {
  sys::Pipe pipe;
  write_frame(pipe.write_fd(), "{\"op\":\"status\"}");
  write_frame(pipe.write_fd(), "");  // empty payloads are legal frames
  std::optional<std::string> first = read_frame(pipe.read_fd());
  std::optional<std::string> second = read_frame(pipe.read_fd());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "{\"op\":\"status\"}");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "");
}

TEST(WireTest, CleanEofAtBoundaryIsNullopt) {
  sys::Pipe pipe;
  write_frame(pipe.write_fd(), "done");
  pipe.close_write();
  EXPECT_EQ(read_frame(pipe.read_fd()).value(), "done");
  EXPECT_FALSE(read_frame(pipe.read_fd()).has_value());
}

TEST(WireTest, EofMidFrameThrows) {
  // A torn connection mid-payload is a protocol error, not a clean close.
  sys::Pipe pipe;
  const unsigned char partial[] = {0, 0, 0, 10, 'h', 'i'};
  ASSERT_EQ(::write(pipe.write_fd(), partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  pipe.close_write();
  EXPECT_THROW(read_frame(pipe.read_fd()), std::exception);
}

TEST(WireTest, EofInsideLengthPrefixThrows) {
  sys::Pipe pipe;
  const unsigned char partial[] = {0, 0};
  ASSERT_EQ(::write(pipe.write_fd(), partial, sizeof(partial)), 2);
  pipe.close_write();
  EXPECT_THROW(read_frame(pipe.read_fd()), std::exception);
}

TEST(WireTest, OversizedLengthPrefixThrows) {
  sys::Pipe pipe;
  const unsigned char huge[] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::write(pipe.write_fd(), huge, sizeof(huge)), 4);
  EXPECT_THROW(read_frame(pipe.read_fd()), std::runtime_error);
}

TEST(WireTest, OversizedPayloadRefusedAtWrite) {
  sys::Pipe pipe;
  std::string big(kMaxFrameBytes + 1, 'x');
  EXPECT_THROW(write_frame(pipe.write_fd(), big), std::invalid_argument);
}

TEST(WireBoundedTest, CompleteFrameReadsNormally) {
  sys::Pipe pipe;
  write_frame(pipe.write_fd(), "{\"ok\":true}");
  std::optional<std::string> got =
      read_frame_bounded(pipe.read_fd(), /*first_byte_timeout_ms=*/1000,
                         /*stall_timeout_ms=*/1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "{\"ok\":true}");
}

TEST(WireBoundedTest, CleanEofIsStillNullopt) {
  sys::Pipe pipe;
  pipe.close_write();
  EXPECT_FALSE(read_frame_bounded(pipe.read_fd(), 1000, 1000).has_value());
}

TEST(WireBoundedTest, NoFrameAtAllTimesOut) {
  sys::Pipe pipe;  // writer stays open but silent
  try {
    read_frame_bounded(pipe.read_fd(), /*first_byte_timeout_ms=*/50,
                       /*stall_timeout_ms=*/50);
    FAIL() << "expected SysError(ETIMEDOUT)";
  } catch (const sys::SysError& e) {
    EXPECT_EQ(e.error_code(), ETIMEDOUT);
  }
}

TEST(WireBoundedTest, StallInsideLengthPrefixTimesOut) {
  // The daemon died after sending 2 of the 4 length bytes; the connection
  // stays open (no EOF) so only the stall timer can save the client.
  sys::Pipe pipe;
  const unsigned char torn[] = {0, 0};
  ASSERT_EQ(::write(pipe.write_fd(), torn, sizeof(torn)), 2);
  try {
    read_frame_bounded(pipe.read_fd(), -1, /*stall_timeout_ms=*/50);
    FAIL() << "expected SysError(ETIMEDOUT)";
  } catch (const sys::SysError& e) {
    EXPECT_EQ(e.error_code(), ETIMEDOUT);
  }
}

TEST(WireBoundedTest, StallInsidePayloadTimesOut) {
  // "Kill the daemon mid-frame": a full length prefix promising 10 bytes,
  // 2 delivered, then silence with the fd still open.  Before the bounded
  // read, this was the hang reported in the issue — read_full would block
  // forever waiting for the remaining 8 bytes.
  sys::Pipe pipe;
  const unsigned char partial[] = {0, 0, 0, 10, 'h', 'i'};
  ASSERT_EQ(::write(pipe.write_fd(), partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  try {
    read_frame_bounded(pipe.read_fd(), 1000, /*stall_timeout_ms=*/50);
    FAIL() << "expected SysError(ETIMEDOUT)";
  } catch (const sys::SysError& e) {
    EXPECT_EQ(e.error_code(), ETIMEDOUT);
  }
}

TEST(WireBoundedTest, SlowTricklePassesWhileEachGapIsBounded) {
  // The stall timer bounds per-byte gaps, not total frame time: a slow but
  // live peer must not be cut off.
  sys::Pipe pipe;
  std::thread writer([fd = pipe.write_fd()] {
    const unsigned char frame[] = {0, 0, 0, 2, 'o', 'k'};
    for (unsigned char b : frame) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ASSERT_EQ(::write(fd, &b, 1), 1);
    }
  });
  std::optional<std::string> got =
      read_frame_bounded(pipe.read_fd(), /*first_byte_timeout_ms=*/2000,
                         /*stall_timeout_ms=*/2000);
  writer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "ok");
}

TEST(WireBoundedTest, EofMidPayloadStillThrowsRuntimeError) {
  // A peer that dies and *closes* is a torn frame (runtime_error), distinct
  // from one that stalls with the fd open (SysError ETIMEDOUT).
  sys::Pipe pipe;
  const unsigned char partial[] = {0, 0, 0, 10, 'h', 'i'};
  ASSERT_EQ(::write(pipe.write_fd(), partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  pipe.close_write();
  EXPECT_THROW(read_frame_bounded(pipe.read_fd(), 1000, 1000), std::runtime_error);
}

TEST(FrameStreamTest, FramesThatArriveTogetherTakeOneRead) {
  sys::Pipe pipe;
  write_frame(pipe.write_fd(), "first");
  write_frame(pipe.write_fd(), "second");
  FrameStream frames(pipe.read_fd(), -1, 1000);
  EXPECT_EQ(frames.next().value(), "first");
  // The read that returned the first frame took the second one too.
  EXPECT_FALSE(sys::poll_readable(pipe.read_fd(), 0));
  EXPECT_EQ(frames.next().value(), "second");
  pipe.close_write();
  EXPECT_FALSE(frames.next().has_value());
}

TEST(FrameStreamTest, StallInsideFrameTimesOutThoughTheFirstByteWaitIsUnbounded) {
  sys::Pipe pipe;
  const unsigned char partial[] = {0, 0, 0, 10, 'h', 'i'};
  ASSERT_EQ(::write(pipe.write_fd(), partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  FrameStream frames(pipe.read_fd(), /*first_byte_timeout_ms=*/-1, /*stall_timeout_ms=*/50);
  try {
    frames.next();
    FAIL() << "expected SysError(ETIMEDOUT)";
  } catch (const sys::SysError& e) {
    EXPECT_EQ(e.error_code(), ETIMEDOUT);
  }
}

TEST(WireTest, ParseMessageRequiresAnObject) {
  EXPECT_EQ(parse_message("{\"op\":\"status\"}").object().size(), 1u);
  EXPECT_THROW(parse_message("[1,2]"), std::invalid_argument);
  EXPECT_THROW(parse_message("not json"), std::invalid_argument);
}

TEST(WireTest, ErrorMessageIsParseableAndNotOk) {
  report::JsonValue v = parse_message(error_message("boom \"quoted\""));
  const report::JsonObject& obj = v.object();
  EXPECT_FALSE(report::find(obj, "ok")->boolean());
  EXPECT_EQ(report::find(obj, "error")->str(), "boom \"quoted\"");
}

}  // namespace
}  // namespace lmb::svc
