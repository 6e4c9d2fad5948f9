// Seeded mutation fuzz over the daemon's input path: incremental frame
// reassembly (FrameReader) and the JSON parser every request goes through.
// Reference-model style, like the timer-wheel fuzz test: blocking read_frame,
// FrameReader fed in random chunks and the read-ahead FrameStream must agree
// with a reference decoder on every byte stream, and the parser must either
// parse or throw std::invalid_argument — never crash.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/report/json.h"
#include "src/svc/wire.h"
#include "src/sys/pipe.h"

namespace lmb::svc {
namespace {

// What a reader made of one byte stream: its frames, then whether it ended
// cleanly or with a std::runtime_error.
struct Outcome {
  std::vector<std::string> frames;
  bool threw = false;

  bool operator==(const Outcome& o) const { return frames == o.frames && threw == o.threw; }
};

// Reads `stream` back from a pipe with read_frame, or with one FrameStream
// when `read_ahead`.
Outcome read_from_pipe(const std::string& stream, bool read_ahead) {
  sys::Pipe pipe;  // streams stay far below the pipe's capacity
  EXPECT_EQ(::write(pipe.write_fd(), stream.data(), stream.size()),
            static_cast<ssize_t>(stream.size()));
  pipe.close_write();
  FrameStream frames(pipe.read_fd());
  Outcome out;
  try {
    while (std::optional<std::string> frame =
               read_ahead ? frames.next() : read_frame(pipe.read_fd())) {
      out.frames.push_back(std::move(*frame));
    }
  } catch (const std::runtime_error&) {
    out.threw = true;
  }
  return out;
}

// The wire format decoded straight from the whole stream, sharing no code
// with FrameReader: the reference every reader is checked against.
Outcome decode_reference(const std::string& stream) {
  Outcome out;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    if (stream.size() - pos < 4) {
      out.threw = true;  // torn length prefix
      break;
    }
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len = (len << 8) | static_cast<unsigned char>(stream[pos + i]);
    }
    if (len > kMaxFrameBytes || stream.size() - pos - 4 < len) {
      out.threw = true;  // oversized, or torn payload
      break;
    }
    out.frames.push_back(stream.substr(pos + 4, len));
    pos += 4 + len;
  }
  return out;
}

Outcome read_with_frame_reader(const std::string& stream, std::mt19937_64& rng) {
  FrameReader reader;
  Outcome out;
  try {
    std::size_t pos = 0;
    while (pos < stream.size()) {
      std::uniform_int_distribution<std::size_t> chunk(1, stream.size() - pos);
      const std::size_t n = chunk(rng);
      reader.feed(stream.data() + pos, n);
      pos += n;
      while (std::optional<std::string> frame = reader.next()) {
        out.frames.push_back(std::move(*frame));
      }
    }
    reader.at_eof();
  } catch (const std::runtime_error&) {
    out.threw = true;
  }
  return out;
}

std::string random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::uniform_int_distribution<int> byte(0, 255);
  std::string s(n, '\0');
  for (char& c : s) {
    c = static_cast<char>(byte(rng));
  }
  return s;
}

std::string length_prefix(std::uint32_t len) {
  return {static_cast<char>(len >> 24), static_cast<char>(len >> 16), static_cast<char>(len >> 8),
          static_cast<char>(len)};
}

TEST(FrameReaderTest, ReassemblesFramesFedOneByteAtATime) {
  const std::string stream = encode_frame("{\"op\":\"status\"}") + encode_frame("");
  FrameReader reader;
  std::vector<std::string> frames;
  for (char c : stream) {
    reader.feed(&c, 1);
    while (std::optional<std::string> frame = reader.next()) {
      frames.push_back(*frame);
    }
  }
  reader.at_eof();
  EXPECT_EQ(frames, (std::vector<std::string>{"{\"op\":\"status\"}", ""}));
}

TEST(FrameReaderTest, TornAndOversizedStreamsThrow) {
  FrameReader torn_prefix;
  torn_prefix.feed("\0\0", 2);
  EXPECT_FALSE(torn_prefix.next().has_value());
  EXPECT_THROW(torn_prefix.at_eof(), std::runtime_error);

  FrameReader torn_payload;
  const std::string partial = length_prefix(10) + "hi";
  torn_payload.feed(partial.data(), partial.size());
  EXPECT_FALSE(torn_payload.next().has_value());
  EXPECT_THROW(torn_payload.at_eof(), std::runtime_error);

  FrameReader oversized;
  const std::string huge = length_prefix(kMaxFrameBytes + 1);
  oversized.feed(huge.data(), huge.size());
  EXPECT_THROW(oversized.next(), std::runtime_error);
}

TEST(FrameReaderFuzzTest, AgreesWithReadFrameOnMutatedStreams) {
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<int> frame_count(0, 4);
  std::uniform_int_distribution<std::size_t> payload_len(0, 200);
  std::uniform_int_distribution<int> mutation(0, 3);
  int threw = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string stream;
    for (int i = frame_count(rng); i > 0; --i) {
      stream += encode_frame(random_bytes(rng, payload_len(rng)));
    }
    switch (mutation(rng)) {
      case 0:
        break;  // well-formed
      case 1: {  // torn: cut anywhere
        if (!stream.empty()) {
          stream.resize(std::uniform_int_distribution<std::size_t>(0, stream.size() - 1)(rng));
        }
        break;
      }
      case 2: {  // an oversized length prefix, maybe with some payload after it
        const std::uint32_t len = std::uniform_int_distribution<std::uint32_t>(
            kMaxFrameBytes + 1, UINT32_MAX)(rng);
        stream += length_prefix(len) + random_bytes(rng, payload_len(rng) % 8);
        break;
      }
      case 3: {  // byte flips, which may land in a length prefix
        for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0 && !stream.empty();
             --flips) {
          stream[rng() % stream.size()] ^= static_cast<char>(1u << (rng() % 8));
        }
        break;
      }
    }
    const Outcome expected = read_from_pipe(stream, /*read_ahead=*/false);
    const Outcome model = decode_reference(stream);
    ASSERT_TRUE(expected == model) << "round " << round << ": read_frame gave "
                                   << expected.frames.size() << " frames, threw="
                                   << expected.threw << "; the reference decoder gave "
                                   << model.frames.size() << " frames, threw=" << model.threw;
    const Outcome got = read_with_frame_reader(stream, rng);
    ASSERT_TRUE(got == expected) << "round " << round << ": read_frame gave "
                                 << expected.frames.size() << " frames, threw=" << expected.threw
                                 << "; FrameReader gave " << got.frames.size()
                                 << " frames, threw=" << got.threw;
    const Outcome streamed = read_from_pipe(stream, /*read_ahead=*/true);
    ASSERT_TRUE(streamed == expected) << "round " << round << ": read_frame gave "
                                      << expected.frames.size() << " frames, threw="
                                      << expected.threw << "; FrameStream gave "
                                      << streamed.frames.size()
                                      << " frames, threw=" << streamed.threw;
    threw += expected.threw ? 1 : 0;
  }
  // The mutations must actually exercise the error paths.
  EXPECT_GT(threw, 500);
}

// Parses `text`; anything but success or std::invalid_argument fails the
// test (a crash fails it too, by taking the binary down).
void expect_parses_or_rejects(const std::string& text) {
  try {
    const report::JsonValue v = report::parse_json(text);
    // What parses must survive a serialize/parse round trip.
    const std::string once = report::to_text(v);
    EXPECT_EQ(report::to_text(report::parse_json(once)), once);
  } catch (const std::invalid_argument&) {
  }
}

TEST(JsonFuzzTest, MutatedMessagesParseOrThrowInvalidArgument) {
  const std::vector<std::string> corpus = {
      "{\"op\":\"status\"}",
      "{\"op\":\"submit\",\"args\":{\"quick\":\"true\",\"only\":\"lat_syscall,lat_pipe\"}}",
      "{\"op\":\"trend\",\"bench\":\"lat_tcp_n\",\"metric\":\"loopback_p99_us\"}",
      "{\"ok\":true,\"results\":{\"schema\":\"lmbenchpp.results.v1\",\"results\":[{\"name\":"
      "\"lat_syscall\",\"status\":\"ok\",\"metrics\":[{\"key\":\"null_us\",\"value\":0.0312,"
      "\"unit\":\"us\",\"samples\":[1e-3,-2.5E+2,3]}],\"wall_ms\":null,\"note\":\"tab\\t\\u00e9"
      "\\\"q\\\"\"}],\"flags\":[true,false,null]}}",
  };
  // Bytes that steer mutations into the parser's structural paths.
  const std::string alphabet = "{}[]\":,\\0123456789.eE+-tfnlrsu \t\n\x01\xff";
  std::mt19937_64 rng(29);
  int rejected = 0;
  for (int round = 0; round < 20000; ++round) {
    std::string text = corpus[rng() % corpus.size()];
    for (int edits = 1 + static_cast<int>(rng() % 4); edits > 0; --edits) {
      const std::size_t at = text.empty() ? 0 : rng() % text.size();
      switch (rng() % 5) {
        case 0:  // flip a bit
          if (!text.empty()) {
            text[at] ^= static_cast<char>(1u << (rng() % 8));
          }
          break;
        case 1:  // insert a structural byte
          text.insert(at, 1, alphabet[rng() % alphabet.size()]);
          break;
        case 2:  // delete a short range
          text.erase(at, rng() % 6);
          break;
        case 3:  // truncate
          text.resize(at);
          break;
        case 4:  // duplicate a slice
          text.insert(at, text.substr(rng() % (text.size() + 1), rng() % 12));
          break;
      }
    }
    try {
      report::parse_json(text);
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
    expect_parses_or_rejects(text);
  }
  EXPECT_GT(rejected, 10000);
}

TEST(JsonFuzzTest, DeepNestingIsRejectedNotAStackOverflow) {
  // One small frame's worth of brackets must not take the daemon down.
  expect_parses_or_rejects(std::string(1'000'000, '['));
  std::string objects;
  for (int i = 0; i < 200'000; ++i) {
    objects += "{\"a\":";
  }
  expect_parses_or_rejects(objects);
  EXPECT_THROW(report::parse_json(std::string(1'000'000, '[')), std::invalid_argument);
  // Real documents nest a handful of levels; a few dozen stay fine.
  EXPECT_NO_THROW(report::parse_json(std::string(64, '[') + std::string(64, ']')));
}

}  // namespace
}  // namespace lmb::svc
