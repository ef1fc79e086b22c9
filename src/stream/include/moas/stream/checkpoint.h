// Checkpoint framing: versioned, checksummed, line-oriented text.
//
// A stream checkpoint is a sequence of space-separated token lines between
// a version header and a checksum trailer:
//
//   # moasguard stream checkpoint v1
//   <payload line>
//   ...
//   checksum <16 hex digits>
//
// The checksum is FNV-1a over every payload byte (header included, newlines
// included), so truncation, bit rot, and editing are all detected before a
// single field is parsed. Doubles are serialized as the hex of their bit
// pattern — restore is bit-exact, which the crash/restore differential
// tests depend on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <sstream>
#include <string>
#include <vector>

namespace moas::stream {

inline constexpr std::string_view kCheckpointHeader = "# moasguard stream checkpoint v1";

/// Streams payload lines to `os`, accumulating the running checksum.
/// Writes the version header on construction; finish() writes the trailer.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::ostream& os);

  /// Write one payload line (a trailing '\n' is appended and hashed).
  void line(const std::string& text);

  /// Write the checksum trailer. The writer must not be used afterwards.
  void finish();

 private:
  std::ostream* os_;
  std::uint64_t hash_;
  bool finished_ = false;
};

/// Reads a whole checkpoint up front, verifying the header and checksum.
/// Throws std::invalid_argument on a missing/wrong header, a corrupted or
/// absent trailer, or a checksum mismatch. Payload lines are then consumed
/// sequentially with next().
class CheckpointReader {
 public:
  explicit CheckpointReader(std::istream& is);

  /// The next payload line. Throws std::invalid_argument when exhausted
  /// (a truncated logical structure inside an intact frame).
  const std::string& next();
  bool done() const { return cursor_ >= lines_.size(); }
  /// Payload lines not yet consumed. A restored count of lines to follow
  /// must not exceed it — the checksum proves the file is intact, not that
  /// its counts are sane.
  std::size_t remaining() const { return lines_.size() - cursor_; }

 private:
  std::vector<std::string> lines_;
  std::size_t cursor_ = 0;
};

/// Bit-exact double round-trip: 16 hex digits of the IEEE-754 pattern.
std::string double_bits(double value);
double double_from_bits(const std::string& text);

/// Tokenizer for payload lines: whitespace-split fields, typed extraction,
/// hard failure (std::invalid_argument) on any mismatch.
class LineParser {
 public:
  explicit LineParser(const std::string& line) : in_(line) {}

  std::string token();
  std::uint64_t u64();
  std::int64_t i64();
  int day() { return static_cast<int>(i64()); }
  double f64();  // reads a double_bits() token
  /// A u64() counting the payload lines that follow; rejects a count larger
  /// than `reader.remaining()`.
  std::uint64_t line_count(const CheckpointReader& reader);

  /// Consume a token and require it to equal `expected`.
  void expect(std::string_view expected);

 private:
  std::istringstream in_;
};

}  // namespace moas::stream
