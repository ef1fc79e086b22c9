#include "moas/bgp/wire.h"

#include <algorithm>

#include "moas/util/assert.h"

namespace moas::bgp::wire {

namespace {

// Attribute flag bits (RFC 4271 §4.3).
constexpr std::uint8_t kFlagOptional = 0x80;
constexpr std::uint8_t kFlagTransitive = 0x40;
constexpr std::uint8_t kFlagPartial = 0x20;
constexpr std::uint8_t kFlagExtendedLength = 0x10;

// AS_PATH segment types.
constexpr std::uint8_t kSegmentSet = 1;
constexpr std::uint8_t kSegmentSequence = 2;

// The UPDATE message type octet (RFC 4271 §4.1).
constexpr std::uint8_t kTypeUpdate = 2;

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  /// Overwrite a previously written big-endian u16 at `pos`.
  void patch_u16(std::size_t pos, std::uint16_t v) {
    buf_[pos] = static_cast<std::uint8_t>(v >> 8);
    buf_[pos + 1] = static_cast<std::uint8_t>(v);
  }
  std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  /// `truncation_code`/`truncation_subcode` classify an out-of-bounds read:
  /// truncation inside the header is a header error, inside an UPDATE body
  /// or attribute an UPDATE error.
  explicit Reader(std::span<const std::uint8_t> data,
                  ErrorCode truncation_code = ErrorCode::MessageHeader,
                  std::uint8_t truncation_subcode = kHdrBadLength)
      : data_(data), code_(truncation_code), subcode_(truncation_subcode) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw WireError(code_, subcode_, "truncated message");
  }
  std::span<const std::uint8_t> data_;
  ErrorCode code_;
  std::uint8_t subcode_;
  std::size_t pos_ = 0;
};

void write_prefix(Writer& w, const net::Prefix& prefix) {
  w.u8(static_cast<std::uint8_t>(prefix.length()));
  const std::uint32_t addr = prefix.network().value();
  const unsigned octets = (prefix.length() + 7) / 8;
  for (unsigned i = 0; i < octets; ++i) {
    w.u8(static_cast<std::uint8_t>(addr >> (24 - 8 * i)));
  }
}

net::Prefix read_prefix(Reader& r) {
  const unsigned length = r.u8();
  if (length > 32) {
    throw WireError(ErrorCode::UpdateMessage, kUpdInvalidNetworkField, "prefix length > 32");
  }
  const unsigned octets = (length + 7) / 8;
  std::uint32_t addr = 0;
  for (unsigned i = 0; i < octets; ++i) {
    addr |= static_cast<std::uint32_t>(r.u8()) << (24 - 8 * i);
  }
  return net::Prefix(net::Ipv4Addr(addr), length);
}

void write_header(Writer& w) {
  for (int i = 0; i < 16; ++i) w.u8(0xff);
  w.u16(0);  // length, patched later
  w.u8(kTypeUpdate);
}

std::vector<std::uint8_t> finish(Writer& w) {
  MOAS_REQUIRE(w.size() <= kMaxMessageSize, "message exceeds the 4096-octet BGP limit");
  w.patch_u16(16, static_cast<std::uint16_t>(w.size()));
  return w.take();
}

/// Validates an UPDATE's header and returns its body.
std::span<const std::uint8_t> update_body(std::span<const std::uint8_t> data) {
  if (data.size() < kHeaderSize) {
    throw WireError(ErrorCode::MessageHeader, kHdrBadLength, "short header");
  }
  for (int i = 0; i < 16; ++i) {
    if (data[static_cast<std::size_t>(i)] != 0xff) {
      throw WireError(ErrorCode::MessageHeader, kHdrNotSynchronized, "bad marker");
    }
  }
  const std::size_t length = static_cast<std::size_t>((data[16] << 8) | data[17]);
  if (length < kHeaderSize || length > kMaxMessageSize) {
    throw WireError(ErrorCode::MessageHeader, kHdrBadLength, "bad length field");
  }
  if (length != data.size()) {
    throw WireError(ErrorCode::MessageHeader, kHdrBadLength, "length field does not match buffer");
  }
  if (data[18] != kTypeUpdate) {
    throw WireError(ErrorCode::MessageHeader, kHdrBadType, "not an UPDATE message");
  }
  return data.subspan(kHeaderSize);
}

/// The 2-octet representation of an ASN: itself, or AS_TRANS (RFC 6793
/// §4.2.1) when it does not fit — the true value then travels in AS4_PATH.
std::uint16_t narrow_asn(Asn asn) {
  return asn <= 0xffffu ? static_cast<std::uint16_t>(asn)
                        : static_cast<std::uint16_t>(kAsTrans);
}

void write_attribute_header(Writer& w, std::uint8_t flags, AttrType type,
                            std::size_t length) {
  if (length > 0xff) flags |= kFlagExtendedLength;
  w.u8(flags);
  w.u8(static_cast<std::uint8_t>(type));
  if (flags & kFlagExtendedLength) {
    w.u16(static_cast<std::uint16_t>(length));
  } else {
    w.u8(static_cast<std::uint8_t>(length));
  }
}

void write_attributes(Writer& w, const PathAttributes& attrs) {
  // ORIGIN — well-known mandatory.
  write_attribute_header(w, kFlagTransitive, AttrType::Origin, 1);
  w.u8(static_cast<std::uint8_t>(attrs.origin_code));

  // AS_PATH — well-known mandatory. Wide ASNs travel as AS_TRANS here, with
  // the true path in the AS4_PATH attribute appended further down.
  std::size_t path_len = 0;
  for (const auto& seg : attrs.path.segments()) path_len += 2 + 2 * seg.asns.size();
  write_attribute_header(w, kFlagTransitive, AttrType::AsPath, path_len);
  bool wide_asn = false;
  for (const auto& seg : attrs.path.segments()) {
    w.u8(seg.kind == PathSegment::Kind::Set ? kSegmentSet : kSegmentSequence);
    MOAS_REQUIRE(seg.asns.size() <= 255, "path segment too long for wire format");
    w.u8(static_cast<std::uint8_t>(seg.asns.size()));
    for (Asn asn : seg.asns) {
      if (asn > 0xffffu) wide_asn = true;
      w.u16(narrow_asn(asn));
    }
  }

  // NEXT_HOP — well-known mandatory. The AS-level simulator has no concrete
  // next hop, so 0.0.0.0 stands in.
  write_attribute_header(w, kFlagTransitive, AttrType::NextHop, 4);
  w.u32(0);

  // MED — optional non-transitive; omitted when zero.
  if (attrs.med != 0) {
    write_attribute_header(w, kFlagOptional, AttrType::Med, 4);
    w.u32(attrs.med);
  }

  // LOCAL_PREF is never sent: it belongs to IBGP sessions, and every
  // session here is EBGP-style.

  // COMMUNITIES — optional transitive (RFC 1997); the MOAS list rides here.
  if (!attrs.communities.empty()) {
    write_attribute_header(w, kFlagOptional | kFlagTransitive, AttrType::Communities,
                           4 * attrs.communities.size());
    for (Community c : attrs.communities.values()) w.u32(c.raw());
  }

  // LARGE_COMMUNITIES — optional transitive (RFC 8092); MOAS-list members
  // with 4-octet ASNs ride here (the classic attribute cannot carry them).
  if (!attrs.large_communities.empty()) {
    write_attribute_header(w, kFlagOptional | kFlagTransitive, AttrType::LargeCommunities,
                           12 * attrs.large_communities.size());
    for (const LargeCommunity& c : attrs.large_communities.values()) {
      w.u32(c.global_admin());
      w.u32(c.data1());
      w.u32(c.data2());
    }
  }

  // AS4_PATH — optional transitive (RFC 6793 §4.2.2): the true 4-octet path
  // behind the AS_TRANS stand-ins above. Self-describing, so any receiver
  // reconstructs the full path; absent for all-narrow paths, keeping their
  // byte streams unchanged.
  if (wide_asn) {
    std::size_t as4_len = 0;
    for (const auto& seg : attrs.path.segments()) as4_len += 2 + 4 * seg.asns.size();
    write_attribute_header(w, kFlagOptional | kFlagTransitive, AttrType::As4Path, as4_len);
    for (const auto& seg : attrs.path.segments()) {
      w.u8(seg.kind == PathSegment::Kind::Set ? kSegmentSet : kSegmentSequence);
      w.u8(static_cast<std::uint8_t>(seg.asns.size()));
      for (Asn asn : seg.asns) w.u32(asn);
    }
  }
}

/// The RFC 7606 action for a malformed attribute of a known type. The
/// per-attribute guidance of §7: anything the decision process or the MOAS
/// detector depends on (ORIGIN, AS_PATH, NEXT_HOP, and COMMUNITIES — the
/// MOAS list rides there) demotes to treat-as-withdraw; non-essential
/// tie-breakers (MED, LOCAL_PREF on our EBGP-style sessions) are discarded.
ErrorAction action_for(AttrType type) {
  switch (type) {
    case AttrType::Med:
    case AttrType::LocalPref:
      return ErrorAction::AttributeDiscard;
    case AttrType::As4Path:
      // RFC 6793 §6: AS4_PATH is advisory reconstruction data — a broken
      // one is discarded and the AS_TRANS path stands, never the routes.
      return ErrorAction::AttributeDiscard;
    default:
      // Includes LARGE_COMMUNITIES: the wide MOAS list rides there, so like
      // classic COMMUNITIES a damaged one demotes to treat-as-withdraw.
      return ErrorAction::TreatAsWithdraw;
  }
}

/// Parse one AS_PATH/AS4_PATH attribute value: a run of segments with
/// `four_octet`-wide members. Shared RFC 7607 (AS 0) and empty-AS_SET
/// rejection. Throws WireError.
AsPath read_as_path(Reader& value, bool four_octet) {
  AsPath path;
  const auto read_asn = [&]() -> Asn {
    const Asn asn = four_octet ? value.u32() : static_cast<Asn>(value.u16());
    if (asn == kNoAs) {
      // RFC 7607: AS 0 anywhere in AS_PATH makes the UPDATE malformed.
      throw WireError(ErrorCode::UpdateMessage, kUpdMalformedAsPath, "AS 0 in AS_PATH");
    }
    return asn;
  };
  while (!value.done()) {
    const std::uint8_t seg_type = value.u8();
    const std::uint8_t count = value.u8();
    if (seg_type == kSegmentSequence) {
      std::vector<Asn> asns;
      for (unsigned i = 0; i < count; ++i) asns.push_back(read_asn());
      path.append_sequence(asns);
    } else if (seg_type == kSegmentSet) {
      if (count == 0) {
        throw WireError(ErrorCode::UpdateMessage, kUpdMalformedAsPath, "empty AS_SET segment");
      }
      AsnSet set;
      for (unsigned i = 0; i < count; ++i) set.insert(read_asn());
      path.append_set(std::move(set));
    } else {
      throw WireError(ErrorCode::UpdateMessage, kUpdMalformedAsPath,
                      "unknown AS_PATH segment type");
    }
  }
  return path;
}

/// RFC 6793 §4.2.3: reconstruct the true path from a 2-octet AS_PATH
/// (AS_TRANS stand-ins) and its AS4_PATH. The AS4_PATH covers the trailing
/// hops; any extra leading AS_PATH hops (prepended by old speakers that
/// cannot update AS4_PATH) are kept verbatim. An AS4_PATH claiming more
/// hops than AS_PATH is inconsistent and ignored, as the RFC instructs.
AsPath merge_as4_path(const AsPath& path, const AsPath& as4) {
  const std::size_t path_hops = path.selection_length();
  const std::size_t as4_hops = as4.selection_length();
  if (as4_hops > path_hops) return path;
  std::size_t take = path_hops - as4_hops;  // leading hops kept from AS_PATH
  AsPath merged;
  for (const auto& seg : path.segments()) {
    if (take == 0) break;
    if (seg.kind == PathSegment::Kind::Set) {
      merged.append_set(AsnSet(seg.asns.begin(), seg.asns.end()));
      --take;  // a set counts as one hop
    } else if (seg.asns.size() <= take) {
      merged.append_sequence(seg.asns);
      take -= seg.asns.size();
    } else {
      merged.append_sequence(std::vector<Asn>(
          seg.asns.begin(), seg.asns.begin() + static_cast<std::ptrdiff_t>(take)));
      take = 0;
    }
  }
  for (const auto& seg : as4.segments()) {
    if (seg.kind == PathSegment::Kind::Set) {
      merged.append_set(AsnSet(seg.asns.begin(), seg.asns.end()));
    } else {
      merged.append_sequence(seg.asns);
    }
  }
  return merged;
}

struct ParsedUpdate {
  UpdateMessage message;
  std::vector<AttributeIssue> issues;
};

void add_issue(ParsedUpdate& out, ErrorAction action, std::uint8_t attr_type,
               std::uint8_t subcode, std::string detail) {
  out.issues.push_back(AttributeIssue{action, attr_type, ErrorCode::UpdateMessage, subcode,
                                      std::move(detail)});
}

/// Parse exactly the path-attribute section (a Reader bounded to Total Path
/// Attribute Length octets), classifying every problem instead of throwing.
/// Issues are recorded in encounter order, so strict RFC 4271 handling can
/// throw the first one and match the old first-bad-byte behavior.
void read_attributes_classified(Reader& section, ParsedUpdate& out) {
  PathAttributes attrs;
  bool saw_origin = false;
  bool saw_as_path = false;
  bool saw_next_hop = false;
  std::optional<AsPath> as4_path;
  while (!section.done()) {
    std::uint8_t flags = 0;
    std::uint8_t type = 0;
    std::size_t length = 0;
    try {
      flags = section.u8();
      type = section.u8();
      length = (flags & kFlagExtendedLength) ? section.u16() : static_cast<std::size_t>(section.u8());
    } catch (const WireError&) {
      // Without a complete header the rest of the section cannot be framed.
      add_issue(out, ErrorAction::TreatAsWithdraw, 0, kUpdMalformedAttrList,
                "attribute header truncated");
      break;
    }
    std::span<const std::uint8_t> raw;
    try {
      raw = section.bytes(length);
    } catch (const WireError&) {
      // The claimed length overruns the attribute section; the NLRI
      // boundary is still known from Total Path Attribute Length, so the
      // routes are salvageable even though the remaining attributes are not.
      add_issue(out, ErrorAction::TreatAsWithdraw, type, kUpdAttrLengthError,
                "attribute value overruns the attribute section");
      break;
    }
    // Mandatory-presence is about which attributes the sender included, not
    // which ones parsed; a present-but-broken ORIGIN is an ORIGIN issue, not
    // additionally a missing-attribute one.
    switch (static_cast<AttrType>(type)) {
      case AttrType::Origin: saw_origin = true; break;
      case AttrType::AsPath: saw_as_path = true; break;
      case AttrType::NextHop: saw_next_hop = true; break;
      default: break;
    }
    try {
      Reader value(raw, ErrorCode::UpdateMessage, kUpdAttrLengthError);
      switch (static_cast<AttrType>(type)) {
        case AttrType::Origin: {
          if (length != 1) {
            throw WireError(ErrorCode::UpdateMessage, kUpdAttrLengthError, "ORIGIN must be 1 octet");
          }
          const std::uint8_t code = value.u8();
          if (code > 2) {
            throw WireError(ErrorCode::UpdateMessage, kUpdInvalidOrigin, "unknown ORIGIN code");
          }
          attrs.origin_code = static_cast<OriginCode>(code);
          break;
        }
        case AttrType::AsPath:
          attrs.path = read_as_path(value, /*four_octet=*/false);
          break;
        case AttrType::As4Path:
          as4_path = read_as_path(value, /*four_octet=*/true);
          break;
        case AttrType::NextHop:
          if (length != 4) {
            throw WireError(ErrorCode::UpdateMessage, kUpdAttrLengthError, "NEXT_HOP must be 4 octets");
          }
          value.u32();  // the AS-level model does not keep it
          break;
        case AttrType::Med:
          if (length != 4) {
            throw WireError(ErrorCode::UpdateMessage, kUpdAttrLengthError, "MED must be 4 octets");
          }
          attrs.med = value.u32();
          break;
        case AttrType::LocalPref:
          if (length != 4) {
            throw WireError(ErrorCode::UpdateMessage, kUpdAttrLengthError, "LOCAL_PREF must be 4 octets");
          }
          attrs.local_pref = value.u32();
          break;
        case AttrType::Communities: {
          if (length % 4 != 0) {
            throw WireError(ErrorCode::UpdateMessage, kUpdAttrLengthError,
                            "COMMUNITIES length not a multiple of 4");
          }
          CommunitySet communities;
          while (!value.done()) communities.add(Community(value.u32()));
          attrs.communities = std::move(communities);
          break;
        }
        case AttrType::LargeCommunities: {
          if (length % 12 != 0) {
            throw WireError(ErrorCode::UpdateMessage, kUpdAttrLengthError,
                            "LARGE_COMMUNITY length not a multiple of 12");
          }
          LargeCommunitySet large;
          while (!value.done()) {
            const std::uint32_t admin = value.u32();
            const std::uint32_t data1 = value.u32();
            const std::uint32_t data2 = value.u32();
            large.add(LargeCommunity(admin, data1, data2));
          }
          attrs.large_communities = std::move(large);
          break;
        }
        default:
          if (!(flags & kFlagOptional)) {
            throw WireError(ErrorCode::UpdateMessage, kUpdUnrecognizedWellKnown,
                            "unrecognized well-known attribute " + std::to_string(type));
          }
          if (flags & kFlagTransitive) {
            // RFC 4271 §9: unknown optional transitive attributes are
            // retained and re-advertised with the Partial bit set.
            out.message.unknown_attrs.push_back(
                UnknownAttribute{type, std::vector<std::uint8_t>(raw.begin(), raw.end())});
          }
          // Unknown optional non-transitive: quietly discarded.
          break;
      }
    } catch (const WireError& e) {
      add_issue(out, action_for(static_cast<AttrType>(type)), type, e.subcode(), e.what());
    }
  }
  if (!saw_origin || !saw_as_path || !saw_next_hop) {
    add_issue(out, ErrorAction::TreatAsWithdraw, 0, kUpdMissingWellKnown,
              "missing well-known mandatory attribute");
  }
  if (as4_path && saw_as_path) {
    attrs.path = merge_as4_path(attrs.path, *as4_path);
  }
  out.message.attrs = std::move(attrs);
}

/// Shared body parse behind both decode_update flavors. Throws WireError
/// for SessionReset-class damage (header, withdrawn-routes section,
/// attribute-section framing, NLRI); everything inside the attribute
/// section is classified into `issues` instead.
ParsedUpdate parse_update(std::span<const std::uint8_t> data) {
  // Truncation inside the UPDATE body is an UPDATE error, not a header one.
  Reader r(update_body(data), ErrorCode::UpdateMessage, kUpdMalformedAttrList);

  ParsedUpdate out;
  const std::size_t withdrawn_len = r.u16();
  {
    Reader withdrawn(r.bytes(withdrawn_len));
    while (!withdrawn.done()) out.message.withdrawn.push_back(read_prefix(withdrawn));
  }
  const std::size_t attrs_len = r.u16();
  if (attrs_len > 0) {
    if (attrs_len > r.remaining()) {
      throw WireError(ErrorCode::UpdateMessage, kUpdMalformedAttrList, "attribute section truncated");
    }
    Reader section(r.bytes(attrs_len), ErrorCode::UpdateMessage, kUpdMalformedAttrList);
    read_attributes_classified(section, out);
  }
  while (!r.done()) out.message.nlri.push_back(read_prefix(r));
  if (!out.message.nlri.empty() && !out.message.attrs) {
    add_issue(out, ErrorAction::TreatAsWithdraw, 0, kUpdMissingWellKnown,
              "NLRI without path attributes");
  }
  return out;
}

}  // namespace

const char* to_string(ErrorAction action) {
  switch (action) {
    case ErrorAction::Ignore: return "ignore";
    case ErrorAction::AttributeDiscard: return "attribute-discard";
    case ErrorAction::TreatAsWithdraw: return "treat-as-withdraw";
    case ErrorAction::SessionReset: return "session-reset";
  }
  return "?";
}

std::vector<std::uint8_t> encode_update(const UpdateMessage& update) {
  MOAS_REQUIRE(update.nlri.empty() || update.attrs.has_value(),
               "announcements need path attributes");
  Writer w;
  write_header(w);

  const std::size_t withdrawn_len_pos = w.size();
  w.u16(0);
  for (const auto& prefix : update.withdrawn) write_prefix(w, prefix);
  w.patch_u16(withdrawn_len_pos,
              static_cast<std::uint16_t>(w.size() - withdrawn_len_pos - 2));

  const std::size_t attrs_len_pos = w.size();
  w.u16(0);
  if (update.attrs) write_attributes(w, *update.attrs);
  for (const auto& attr : update.unknown_attrs) {
    // Pass-through of attributes we do not implement: optional transitive
    // with the Partial bit, since this speaker did not originate them.
    write_attribute_header(w, kFlagOptional | kFlagTransitive | kFlagPartial,
                           static_cast<AttrType>(attr.type), attr.value.size());
    w.bytes(attr.value);
  }
  w.patch_u16(attrs_len_pos, static_cast<std::uint16_t>(w.size() - attrs_len_pos - 2));

  for (const auto& prefix : update.nlri) write_prefix(w, prefix);
  return finish(w);
}

UpdateMessage decode_update(std::span<const std::uint8_t> data) {
  ParsedUpdate parsed = parse_update(data);
  if (!parsed.issues.empty()) {
    // Strict RFC 4271 discipline: the first problem aborts the message with
    // the NOTIFICATION code it documents.
    const AttributeIssue& first = parsed.issues.front();
    throw WireError(first.code, first.subcode, first.detail);
  }
  return std::move(parsed.message);
}

ErrorAction DecodeResult::severity() const {
  ErrorAction worst = ErrorAction::Ignore;
  for (const AttributeIssue& issue : issues) worst = std::max(worst, issue.action);
  return worst;
}

UpdateMessage DecodeResult::to_deliverable() const {
  if (severity() < ErrorAction::TreatAsWithdraw) return message;
  // Treat-as-withdraw: the sender's explicit withdrawals stand, every
  // announced prefix is revoked as an error-withdrawal, and nothing from
  // the damaged attribute set survives.
  UpdateMessage out;
  out.withdrawn = message.withdrawn;
  out.error_withdrawn = message.nlri;
  return out;
}

DecodeResult decode_update_revised(std::span<const std::uint8_t> data) {
  ParsedUpdate parsed = parse_update(data);
  return DecodeResult{std::move(parsed.message), std::move(parsed.issues)};
}

bool is_end_of_rib(const UpdateMessage& message) {
  return message.withdrawn.empty() && message.nlri.empty() && message.error_withdrawn.empty();
}

std::vector<std::uint8_t> encode_sim_update(const Update& update) {
  UpdateMessage message;
  if (update.kind == Update::Kind::Withdraw) {
    message.withdrawn.push_back(update.prefix);
  } else if (update.kind == Update::Kind::Announce) {
    MOAS_REQUIRE(update.route.has_value(), "announce update without route");
    message.attrs = update.route->attrs;
    message.nlri.push_back(update.prefix);
  }  // EndOfRib: the empty message IS the marker
  return encode_update(message);
}

std::vector<Update> to_sim_updates(const UpdateMessage& message) {
  std::vector<Update> out;
  if (is_end_of_rib(message)) {
    out.push_back(Update::end_of_rib());
    return out;
  }
  for (const auto& prefix : message.withdrawn) out.push_back(Update::withdraw(prefix));
  for (const auto& prefix : message.error_withdrawn) {
    out.push_back(Update::make_error_withdraw(prefix));
  }
  for (const auto& prefix : message.nlri) {
    MOAS_ENSURE(message.attrs.has_value(), "NLRI without attributes");
    Route route;
    route.prefix = prefix;
    route.attrs = *message.attrs;
    out.push_back(Update::announce(std::move(route)));
  }
  return out;
}

}  // namespace moas::bgp::wire
