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
#include <string_view>
#include <vector>

#include "moas/bgp/asn.h"
#include "moas/net/prefix.h"

namespace moas::stream {

inline constexpr std::string_view kCheckpointHeader = "# moasguard stream checkpoint v1";

/// Builds a checkpoint image in one buffer, then hashes it and writes it to
/// `os` in one piece. The constructor starts the version header; finish()
/// writes the image and its checksum trailer.
///
/// A payload line starts with line(tag) and takes its fields from the
/// typed appenders, each of which writes one space and the token straight
/// into the buffer, with no temporary strings:
///
///   w.line("gap").i64(first_day).i64(last_day);
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::ostream& os);

  /// Start a payload line with `text` (a tag, or a whole preformatted line).
  /// The previous line ends here.
  CheckpointWriter& line(std::string_view text);

  CheckpointWriter& u64(std::uint64_t value);
  CheckpointWriter& i64(std::int64_t value);
  /// A double as double_bits() renders it.
  CheckpointWriter& f64(double value);
  /// "a.b.c.d/len", as net::Prefix::to_string renders it.
  CheckpointWriter& prefix(const net::Prefix& prefix);
  /// The set's size, then each ASN in order.
  CheckpointWriter& asn_set(const bgp::AsnSet& set);

  /// Write the image and its checksum trailer to the stream. The writer
  /// must not be used afterwards.
  void finish();

 private:
  std::ostream* os_;
  std::string image_;
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
