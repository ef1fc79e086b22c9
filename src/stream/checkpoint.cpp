#include "moas/stream/checkpoint.h"

#include <algorithm>
#include <bit>
#include <charconv>
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

/// Writes 16 lowercase hex digits of `value` at `out`; returns the end.
char* put_hex16(char* out, std::uint64_t value) {
  static const char digits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = digits[value & 0xf];
    value >>= 4;
  }
  return out + 16;
}

/// Longest tokens, leading space included: a 64-bit integer in decimal
/// (20 characters with a sign), 16 hex digits, "255.255.255.255/255".
constexpr std::size_t kIntRoom = 1 + 20;
constexpr std::size_t kHexRoom = 1 + 16;
constexpr std::size_t kPrefixRoom = 1 + 19;
constexpr std::string_view kTrailer = "checksum ";

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

CheckpointWriter::CheckpointWriter(const std::size_t capacity)
    : buffer_(std::make_unique_for_overwrite<char[]>(capacity)),
      cursor_(buffer_.get()),
      end_(buffer_.get() + capacity) {}

void CheckpointWriter::grow(const std::size_t n) {
  const std::size_t used = static_cast<std::size_t>(cursor_ - buffer_.get());
  const std::size_t size =
      std::max(2 * static_cast<std::size_t>(end_ - buffer_.get()), used + n);
  auto bigger = std::make_unique_for_overwrite<char[]>(size);
  std::copy(buffer_.get(), cursor_, bigger.get());
  buffer_ = std::move(bigger);
  cursor_ = buffer_.get() + used;
  end_ = buffer_.get() + size;
}

CheckpointWriter& CheckpointWriter::line(std::string_view text) {
  char* out = room(1 + text.size());
  *out++ = '\n';
  cursor_ = std::copy(text.begin(), text.end(), out);
  return *this;
}

CheckpointWriter& CheckpointWriter::u64(std::uint64_t value) {
  char* out = room(kIntRoom);
  *out++ = ' ';
  cursor_ = std::to_chars(out, end_, value).ptr;
  return *this;
}

CheckpointWriter& CheckpointWriter::i64(std::int64_t value) {
  char* out = room(kIntRoom);
  *out++ = ' ';
  cursor_ = std::to_chars(out, end_, value).ptr;
  return *this;
}

CheckpointWriter& CheckpointWriter::f64(double value) {
  char* out = room(kHexRoom);
  *out++ = ' ';
  cursor_ = put_hex16(out, std::bit_cast<std::uint64_t>(value));
  return *this;
}

CheckpointWriter& CheckpointWriter::prefix(const net::Prefix& prefix) {
  char* out = room(kPrefixRoom);
  const std::uint32_t address = prefix.network().value();
  for (int shift = 24; shift >= 0; shift -= 8) {
    *out++ = shift == 24 ? ' ' : '.';
    out = std::to_chars(out, end_, (address >> shift) & 0xffu).ptr;
  }
  *out++ = '/';
  cursor_ = std::to_chars(out, end_, prefix.length()).ptr;
  return *this;
}

CheckpointWriter& CheckpointWriter::asn_set(const bgp::AsnSet& set) {
  u64(set.size());
  for (const bgp::Asn asn : set) u64(asn);
  return *this;
}

CheckpointImage::CheckpointImage(std::ostream& os) : os_(&os), hash_(kFnvOffset) {
  write(kCheckpointHeader);
}

void CheckpointImage::write(const std::string_view bytes) {
  MOAS_REQUIRE(!sealed_, "checkpoint image already sealed");
  hash_ = fnv1a(hash_, bytes);
  os_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void CheckpointImage::append(const CheckpointWriter& section) { write(section.bytes()); }

void CheckpointImage::seal() {
  write("\n");
  // The trailer is not hashed.
  char trailer[kTrailer.size() + 16 + 1];
  char* out = std::copy(kTrailer.begin(), kTrailer.end(), trailer);
  out = put_hex16(out, hash_);
  *out++ = '\n';
  os_->write(trailer, out - trailer);
  sealed_ = true;
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

CheckpointReader& CheckpointReader::line(const std::string_view tag) {
  fields_ = LineParser(next());
  fields_.expect(tag);
  return *this;
}

CheckpointReader& CheckpointReader::i64(std::int64_t& value) {
  value = fields_.i64();
  return *this;
}

CheckpointReader& CheckpointReader::day(int& value) {
  const std::int64_t raw = fields_.i64();
  MOAS_REQUIRE(raw >= std::numeric_limits<int>::min() && raw <= std::numeric_limits<int>::max(),
               "checkpoint: day out of range");
  value = static_cast<int>(raw);
  return *this;
}

CheckpointReader& CheckpointReader::f64(double& value) {
  value = fields_.f64();
  return *this;
}

CheckpointReader& CheckpointReader::prefix(net::Prefix& prefix) {
  const auto parsed = net::Prefix::parse(fields_.token());
  MOAS_REQUIRE(parsed.has_value(), "checkpoint: bad prefix");
  prefix = *parsed;
  return *this;
}

CheckpointReader& CheckpointReader::asn_set(bgp::AsnSet& set) {
  const std::uint64_t n = fields_.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    bgp::Asn asn = 0;
    u64(asn);
    set.insert(asn);
  }
  return *this;
}

CheckpointReader& CheckpointReader::asn_set(core::MoasList& list) {
  bgp::AsnSet set;
  asn_set(set);
  list = core::MoasList::of(set);
  return *this;
}

std::string double_bits(double value) {
  std::string out(16, '0');
  put_hex16(out.data(), std::bit_cast<std::uint64_t>(value));
  return out;
}

double double_from_bits(const std::string_view text) {
  return std::bit_cast<double>(parse_hex16(text));
}

std::string_view LineParser::token() {
  // The whitespace set of `std::istream >> std::string` in the C locale.
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  const std::size_t begin = rest_.find_first_not_of(kSpace);
  MOAS_REQUIRE(begin != std::string_view::npos, "checkpoint: truncated line");
  rest_.remove_prefix(begin);
  const std::size_t end = std::min(rest_.find_first_of(kSpace), rest_.size());
  const std::string_view t = rest_.substr(0, end);
  rest_.remove_prefix(end);
  return t;
}

std::uint64_t LineParser::u64() {
  std::uint64_t value = 0;
  MOAS_REQUIRE(util::parse_u64(token(), value), "checkpoint: expected an unsigned integer");
  return value;
}

std::int64_t LineParser::i64() {
  const std::string_view t = token();
  if (t.front() == '-') {
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

void LineParser::expect(const std::string_view expected) {
  const std::string_view t = token();
  MOAS_REQUIRE(t == expected, "checkpoint: expected '" + std::string(expected) + "', got '" +
                                  std::string(t) + "'");
}

}  // namespace moas::stream
