#include "moas/stream/checkpoint.h"

#include <bit>
#include <istream>
#include <ostream>

#include "moas/util/assert.h"
#include "moas/util/strings.h"

namespace moas::stream {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

std::string hex16(std::uint64_t value) {
  static const char digits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

std::uint64_t parse_hex16(std::string_view text) {
  MOAS_REQUIRE(text.size() == 16, "checkpoint: expected 16 hex digits");
  std::uint64_t value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      throw std::invalid_argument("checkpoint: bad hex digit in checksum");
    }
  }
  return value;
}

}  // namespace

CheckpointWriter::CheckpointWriter(std::ostream& os) : os_(&os), hash_(kFnvOffset) {
  line(std::string(kCheckpointHeader));
}

void CheckpointWriter::line(const std::string& text) {
  MOAS_REQUIRE(!finished_, "checkpoint writer already finished");
  hash_ = fnv1a(hash_, text);
  hash_ = fnv1a(hash_, "\n");
  *os_ << text << '\n';
}

void CheckpointWriter::finish() {
  MOAS_REQUIRE(!finished_, "checkpoint writer already finished");
  *os_ << "checksum " << hex16(hash_) << '\n';
  finished_ = true;
}

CheckpointReader::CheckpointReader(std::istream& is) {
  std::uint64_t hash = kFnvOffset;
  bool sealed = false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("checksum ", 0) == 0) {
      const std::uint64_t stored = parse_hex16(util::trim(line.substr(9)));
      MOAS_REQUIRE(stored == hash, "checkpoint: checksum mismatch (corrupt or truncated)");
      sealed = true;
      break;
    }
    hash = fnv1a(hash, line);
    hash = fnv1a(hash, "\n");
    lines_.push_back(line);
  }
  MOAS_REQUIRE(sealed, "checkpoint: missing checksum trailer");
  MOAS_REQUIRE(!lines_.empty() && lines_.front() == kCheckpointHeader,
               "checkpoint: missing or unsupported version header");
  cursor_ = 1;  // past the header
}

const std::string& CheckpointReader::next() {
  MOAS_REQUIRE(cursor_ < lines_.size(), "checkpoint: truncated payload");
  return lines_[cursor_++];
}

std::string double_bits(double value) {
  return hex16(std::bit_cast<std::uint64_t>(value));
}

double double_from_bits(const std::string& text) {
  return std::bit_cast<double>(parse_hex16(text));
}

std::string LineParser::token() {
  std::string t;
  in_ >> t;
  MOAS_REQUIRE(!t.empty(), "checkpoint: truncated line");
  return t;
}

std::uint64_t LineParser::u64() {
  std::uint64_t value = 0;
  MOAS_REQUIRE(util::parse_u64(token(), value), "checkpoint: expected an unsigned integer");
  return value;
}

std::int64_t LineParser::i64() {
  const std::string t = token();
  if (!t.empty() && t.front() == '-') {
    std::uint64_t mag = 0;
    MOAS_REQUIRE(util::parse_u64(t.substr(1), mag) && mag <= 1ULL << 62,
                 "checkpoint: expected an integer");
    return -static_cast<std::int64_t>(mag);
  }
  std::uint64_t value = 0;
  MOAS_REQUIRE(util::parse_u64(t, value) && value <= 1ULL << 62,
               "checkpoint: expected an integer");
  return static_cast<std::int64_t>(value);
}

double LineParser::f64() { return double_from_bits(token()); }

std::uint64_t LineParser::line_count(const CheckpointReader& reader) {
  const std::uint64_t n = u64();
  MOAS_REQUIRE(n <= reader.remaining(), "checkpoint: line count overruns the payload");
  return n;
}

void LineParser::expect(std::string_view expected) {
  const std::string t = token();
  MOAS_REQUIRE(t == expected,
               "checkpoint: expected '" + std::string(expected) + "', got '" + t + "'");
}

}  // namespace moas::stream
