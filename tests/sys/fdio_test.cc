#include "src/sys/fdio.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <vector>

#include "src/sys/epoll_loop.h"
#include "src/sys/error.h"
#include "src/sys/pipe.h"
#include "src/sys/temp.h"

namespace lmb::sys {
namespace {

TEST(FdioTest, WriteAndReadFileRoundTrip) {
  TempDir dir("lmb_fdio");
  std::string path = dir.file("data.txt");
  write_file(path, "hello lmbench\n");
  EXPECT_EQ(read_file(path), "hello lmbench\n");
}

TEST(FdioTest, ReadFileMissingThrows) {
  EXPECT_THROW(read_file("/nonexistent/really/not/here"), SysError);
  EXPECT_THROW(open_read("/nonexistent/really/not/here"), SysError);
}

TEST(FdioTest, ReadFullAcrossPipeChunks) {
  Pipe pipe;
  std::string payload(10000, 'z');
  // Writer child-free: write in small chunks from this thread via the pipe
  // buffer (fits: default pipe capacity is 64K).
  write_full(pipe.write_fd(), payload.data(), payload.size());
  std::string got(payload.size(), '\0');
  read_full(pipe.read_fd(), got.data(), got.size());
  EXPECT_EQ(got, payload);
}

TEST(FdioTest, ReadFullThrowsOnEof) {
  Pipe pipe;
  write_full(pipe.write_fd(), "ab", 2);
  pipe.close_write();
  char buf[8];
  EXPECT_THROW(read_full(pipe.read_fd(), buf, 8), std::runtime_error);
}

TEST(FdioTest, ReadSomeReturnsZeroAtEof) {
  Pipe pipe;
  pipe.close_write();
  char buf[4];
  EXPECT_EQ(read_some(pipe.read_fd(), buf, sizeof(buf)), 0u);
}

TEST(FdioTest, WriteToClosedPipeThrows) {
  Pipe pipe;
  pipe.close_read();
  // SIGPIPE must be ignored for EPIPE to surface as an errno.
  signal(SIGPIPE, SIG_IGN);
  char c = 'x';
  EXPECT_THROW(write_full(pipe.write_fd(), &c, 1), SysError);
}

TEST(FdioTest, WritevNonblockGathersIovecs) {
  Pipe pipe;
  set_nonblocking(pipe.write_fd());
  const std::string header = "HDR!";
  const std::string payload = "payload bytes";
  ::iovec iov[2];
  iov[0].iov_base = const_cast<char*>(header.data());
  iov[0].iov_len = header.size();
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  const IoOutcome w = writev_nonblock(pipe.write_fd(), iov, 2);
  EXPECT_EQ(w.bytes, header.size() + payload.size());
  EXPECT_FALSE(w.would_block);
  EXPECT_FALSE(w.closed);
  std::string got(header.size() + payload.size(), '\0');
  read_full(pipe.read_fd(), got.data(), got.size());
  EXPECT_EQ(got, header + payload);
}

TEST(FdioTest, WritevNonblockReportsWouldBlockWhenFull) {
  Pipe pipe;
  set_nonblocking(pipe.write_fd());
  std::vector<char> chunk(64 * 1024, 'x');
  ::iovec iov{chunk.data(), chunk.size()};
  // Fill the pipe until the kernel pushes back.
  for (int i = 0; i < 64; ++i) {
    const IoOutcome w = writev_nonblock(pipe.write_fd(), &iov, 1);
    if (w.would_block) {
      EXPECT_EQ(w.bytes, 0u);
      return;
    }
    ASSERT_GT(w.bytes, 0u);
  }
  FAIL() << "pipe never filled (4 MB written without EAGAIN)";
}

TEST(FdioTest, WritevNonblockMapsEpipeToClosed) {
  Pipe pipe;
  set_nonblocking(pipe.write_fd());
  pipe.close_read();
  signal(SIGPIPE, SIG_IGN);
  char c = 'x';
  ::iovec iov{&c, 1};
  const IoOutcome w = writev_nonblock(pipe.write_fd(), &iov, 1);
  EXPECT_TRUE(w.closed);
  EXPECT_EQ(w.bytes, 0u);
}

TEST(FdioTest, OpenWriteTruncates) {
  TempDir dir("lmb_fdio");
  std::string path = dir.file("t");
  write_file(path, "long content here");
  write_file(path, "x");
  EXPECT_EQ(read_file(path), "x");
}

TEST(FdioTest, ReadFileEmpty) {
  TempDir dir("lmb_fdio");
  std::string path = dir.file("empty");
  write_file(path, "");
  EXPECT_EQ(read_file(path), "");
}

TEST(FdioTest, AppendLineStartsAfterATornLine) {
  TempDir dir("lmb_fdio");
  std::string path = dir.file("log");
  append_line(path, "a\n");  // creates the file
  append_line(path, "b\n");
  EXPECT_EQ(read_file(path), "a\nb\n");
  write_file(path, "a\n{\"torn");
  append_line(path, "c\n");
  EXPECT_EQ(read_file(path), "a\n{\"torn\nc\n");
}

}  // namespace
}  // namespace lmb::sys
