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
//
// Each record is described once, in a function template over the
// direction. CheckpointWriter and CheckpointReader expose the same
// chainable calls; the writer takes values and the reader writes into
// references, checking the tag and every field as it goes:
//
//   template <typename IO, typename Gap>
//   void gap_record(IO& io, Gap& g) {
//     io.line("gap").day(g.first_day).day(g.last_day);
//   }
//
// With a CheckpointWriter and a const Gap this appends the line; with a
// CheckpointReader it parses the next line into `g`.
//
// An image is written in sections: each is formatted into a
// CheckpointWriter of its own (the stream detector formats its shards'
// sections on its worker pool), and CheckpointImage hashes and writes them
// in order. The bytes do not depend on how the sections were split.
#pragma once

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "moas/bgp/asn.h"
#include "moas/core/moas_list.h"
#include "moas/net/prefix.h"
#include "moas/util/assert.h"

namespace moas::stream {

inline constexpr std::string_view kCheckpointHeader = "# moasguard stream checkpoint v1";

/// Formats payload lines into a buffer of its own, which grows to hold
/// everything written to it: one section of an image, which
/// CheckpointImage then hashes and writes. Writers of different sections
/// share nothing, so they may run on different threads.
///
/// A payload line starts with line(tag) and takes its fields from the
/// typed appenders. Each appender checks once for room for its longest
/// token, then writes one space and the token through a cursor into the
/// buffer, with no temporary strings and no per-token string append.
class CheckpointWriter {
 public:
  /// A first buffer of `capacity` bytes, allocated here, on the calling
  /// thread.
  explicit CheckpointWriter(std::size_t capacity = kFirstBytes);

  /// Start a payload line with `text` (a tag, or a whole preformatted line).
  /// The previous line ends here.
  CheckpointWriter& line(std::string_view text);

  CheckpointWriter& u64(std::uint64_t value);
  CheckpointWriter& i64(std::int64_t value);
  CheckpointWriter& day(int value) { return i64(value); }
  /// A double as double_bits() renders it.
  CheckpointWriter& f64(double value);
  /// "a.b.c.d/len", as net::Prefix::to_string renders it.
  CheckpointWriter& prefix(const net::Prefix& prefix);
  /// The set's size, then each ASN in order.
  CheckpointWriter& asn_set(const bgp::AsnSet& set);
  CheckpointWriter& asn_set(core::MoasList list) { return asn_set(list.set()); }

  /// A structural value the reader requires to equal its own (`what` names
  /// it in the reader's error): f64, i64 or u64 by its type.
  template <typename T>
  CheckpointWriter& match(const T& value, std::string_view /*what*/) {
    if constexpr (std::is_floating_point_v<T>) {
      return f64(value);
    } else if constexpr (std::is_signed_v<T>) {
      return i64(value);
    } else {
      return u64(value);
    }
  }

  /// An enum as its integer value; the reader rejects one above `last`.
  template <typename Enum>
  CheckpointWriter& enumeration(Enum value, Enum /*last*/, std::string_view /*what*/) {
    return u64(static_cast<std::uint64_t>(value));
  }

  /// A counted list: the element count on the current line, then
  /// `each(element)` for every element, which may start lines of its own.
  /// The reader bounds the count by the payload lines left, or by `max`.
  template <typename Container, typename Each>
  CheckpointWriter& list(const Container& items, Each&& each) {
    u64(items.size());
    for (const auto& item : items) each(item);
    return *this;
  }
  template <typename Container, typename Each>
  CheckpointWriter& list(const Container& items, std::uint64_t /*max*/, Each&& each) {
    return list(items, std::forward<Each>(each));
  }

  /// Everything written so far.
  std::string_view bytes() const {
    return {buffer_.get(), static_cast<std::size_t>(cursor_ - buffer_.get())};
  }

 private:
  static constexpr std::size_t kFirstBytes = std::size_t{1} << 16;

  /// The cursor, with room for at least `n` more bytes behind it.
  char* room(std::size_t n) {
    if (static_cast<std::size_t>(end_ - cursor_) < n) grow(n);
    return cursor_;
  }
  /// Move the bytes to a buffer with room for at least `n` more.
  void grow(std::size_t n);

  std::unique_ptr<char[]> buffer_;  // [buffer_, cursor_) is written
  char* cursor_;                    // where the next byte goes
  char* end_;                       // one past the buffer
};

/// Writes one image to `os`: the version header, then each section as it
/// is appended, then the checksum trailer. FNV-1a runs over the bytes in
/// order, so hashing a section at a time gives the whole image's hash. An
/// image never sealed has no trailer, which CheckpointReader rejects.
class CheckpointImage {
 public:
  explicit CheckpointImage(std::ostream& os);

  /// Hash the section's bytes and write them out.
  void append(const CheckpointWriter& section);
  /// End the last payload line and write the trailer. The image must not
  /// be appended to afterwards.
  void seal();

 private:
  void write(std::string_view bytes);

  std::ostream* os_;
  std::uint64_t hash_;  // FNV-1a of every byte written so far
  bool sealed_ = false;
};

/// Bit-exact double round-trip: 16 hex digits of the IEEE-754 pattern.
std::string double_bits(double value);
double double_from_bits(std::string_view text);

/// Tokenizer for one payload line: whitespace-split fields, typed
/// extraction, hard failure (std::invalid_argument) on any mismatch. It
/// views the line, which must outlive it.
class LineParser {
 public:
  LineParser() = default;
  explicit LineParser(const std::string& line) : rest_(line) {}
  LineParser(std::string&&) = delete;

  std::string_view token();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();  // reads a double_bits() token

  /// Consume a token and require it to equal `expected`.
  void expect(std::string_view expected);

 private:
  std::string_view rest_;
};

/// Reads a whole checkpoint up front, verifying the header and checksum.
/// Throws std::invalid_argument on a missing/wrong header, a corrupted or
/// absent trailer, or a checksum mismatch. Payload lines are then consumed
/// in order, either whole with next() or field by field with the calls
/// CheckpointWriter offers, which here read into their arguments.
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

  /// Start the next payload line, which must be tagged `tag`.
  CheckpointReader& line(std::string_view tag);

  template <std::unsigned_integral T>
  CheckpointReader& u64(T& value) {
    const std::uint64_t raw = fields_.u64();
    if constexpr (sizeof(T) < sizeof(std::uint64_t)) {
      MOAS_REQUIRE(raw <= std::numeric_limits<T>::max(), "checkpoint: value out of range");
    }
    value = static_cast<T>(raw);
    return *this;
  }
  CheckpointReader& i64(std::int64_t& value);
  CheckpointReader& day(int& value);
  CheckpointReader& f64(double& value);
  CheckpointReader& prefix(net::Prefix& prefix);
  CheckpointReader& asn_set(bgp::AsnSet& set);
  /// Reads the set as above and interns it.
  CheckpointReader& asn_set(core::MoasList& list);

  template <typename T>
  CheckpointReader& match(const T& expected, std::string_view what) {
    bool same = false;
    if constexpr (std::is_floating_point_v<T>) {
      same = fields_.f64() == expected;
    } else if constexpr (std::is_signed_v<T>) {
      same = fields_.i64() == expected;
    } else {
      same = fields_.u64() == expected;
    }
    MOAS_REQUIRE(same, "checkpoint: " + std::string(what) + " mismatch");
    return *this;
  }

  template <typename Enum>
  CheckpointReader& enumeration(Enum& value, Enum last, std::string_view what) {
    const std::uint64_t raw = fields_.u64();
    MOAS_REQUIRE(raw <= static_cast<std::uint64_t>(last), "checkpoint: bad " + std::string(what));
    value = static_cast<Enum>(raw);
    return *this;
  }

  /// Appends the elements to `items` (a map takes key/value pairs).
  template <typename Container, typename Each>
  CheckpointReader& list(Container& items, Each&& each) {
    return list(items, remaining(), std::forward<Each>(each));
  }
  template <typename Container, typename Each>
  CheckpointReader& list(Container& items, std::uint64_t max, Each&& each) {
    const std::uint64_t n = fields_.u64();
    MOAS_REQUIRE(n <= max, "checkpoint: list count overruns its bound");
    if constexpr (requires { items.reserve(n); }) items.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      if constexpr (requires { typename Container::mapped_type; }) {
        std::pair<typename Container::key_type, typename Container::mapped_type> entry;
        each(entry);
        items.try_emplace(std::move(entry.first), std::move(entry.second));
      } else {
        each(items.emplace_back());
      }
    }
    return *this;
  }

 private:
  std::vector<std::string> lines_;
  std::size_t cursor_ = 0;
  LineParser fields_;  // the line line() started
};

}  // namespace moas::stream
