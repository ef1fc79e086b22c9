// BGP-4 UPDATE wire format (RFC 4271 §4.3), plus the RFC 1997 COMMUNITIES
// attribute encoding the MOAS list travels in.
//
// The simulator itself exchanges in-memory Update objects; this module
// exists so that (a) the byte-level cost of a MOAS list can be measured
// honestly (Section 4.3 discusses the size overhead), (b) the chaos harness
// can corrupt real bytes on the wire, and (c) the encoding logic is tested
// against the RFC's corner cases (extended-length attributes, AS_SET
// segments, prefix padding).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "moas/bgp/route.h"

namespace moas::bgp::wire {

/// NOTIFICATION error codes (RFC 4271 §6.1).
enum class ErrorCode : std::uint8_t {
  MessageHeader = 1,
  UpdateMessage = 3,
};

// Message Header Error subcodes (§6.2).
inline constexpr std::uint8_t kHdrNotSynchronized = 1;
inline constexpr std::uint8_t kHdrBadLength = 2;
inline constexpr std::uint8_t kHdrBadType = 3;

// UPDATE Message Error subcodes (§6.4).
inline constexpr std::uint8_t kUpdMalformedAttrList = 1;
inline constexpr std::uint8_t kUpdUnrecognizedWellKnown = 2;
inline constexpr std::uint8_t kUpdMissingWellKnown = 3;
inline constexpr std::uint8_t kUpdAttrLengthError = 5;
inline constexpr std::uint8_t kUpdInvalidOrigin = 6;
inline constexpr std::uint8_t kUpdInvalidNetworkField = 10;
inline constexpr std::uint8_t kUpdMalformedAsPath = 11;

/// RFC 7606 revised error-handling actions, ordered by severity so the
/// overall fate of a message is the maximum over its individual problems.
enum class ErrorAction : std::uint8_t {
  /// No action needed (unknown optional attributes and the like).
  Ignore = 0,
  /// Drop the broken attribute, keep the routes (non-essential attrs).
  AttributeDiscard = 1,
  /// The NLRI is intact but an essential attribute is not: treat every
  /// announced prefix as withdrawn instead of installing garbage.
  TreatAsWithdraw = 2,
  /// Framing or NLRI damage — the RFC 4271 NOTIFICATION + reset stands.
  SessionReset = 3,
};

const char* to_string(ErrorAction action);

/// Malformed input while decoding. Carries the RFC 4271 NOTIFICATION error
/// code + subcode a session must send before resetting, so a receiver never
/// has to guess what went wrong.
class WireError : public std::runtime_error {
 public:
  WireError(ErrorCode code, std::uint8_t subcode, const std::string& what)
      : std::runtime_error(what), code_(code), subcode_(subcode) {}

  ErrorCode code() const { return code_; }
  std::uint8_t code_octet() const { return static_cast<std::uint8_t>(code_); }
  std::uint8_t subcode() const { return subcode_; }

 private:
  ErrorCode code_;
  std::uint8_t subcode_;
};

/// Fixed header size: 16-byte marker + 2-byte length + 1-byte type.
inline constexpr std::size_t kHeaderSize = 19;
inline constexpr std::size_t kMaxMessageSize = 4096;

/// Path-attribute type codes used here.
enum class AttrType : std::uint8_t {
  Origin = 1,
  AsPath = 2,
  NextHop = 3,
  Med = 4,
  LocalPref = 5,
  Communities = 8,
  /// RFC 6793: the true 4-octet path backing AS_TRANS stand-ins in a
  /// 2-octet AS_PATH. Optional transitive; emitted only when needed.
  As4Path = 17,
  /// RFC 8092 large communities; wide-ASN MOAS-list members ride here.
  LargeCommunities = 32,
};

/// An attribute we do not implement but must not destroy: RFC 4271 §9 says
/// unknown optional transitive attributes are retained and re-advertised
/// with the Partial flag bit set.
struct UnknownAttribute {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> value;

  friend auto operator<=>(const UnknownAttribute&, const UnknownAttribute&) = default;
};

/// The content of one UPDATE message. A single message may withdraw several
/// prefixes and announce several prefixes sharing one attribute set.
struct UpdateMessage {
  std::vector<net::Prefix> withdrawn;
  std::optional<PathAttributes> attrs;  // required when nlri is non-empty
  std::vector<net::Prefix> nlri;
  /// Unknown optional transitive attributes carried through verbatim
  /// (re-encoded with the Partial bit; RFC 4271 §9).
  std::vector<UnknownAttribute> unknown_attrs;
  /// Prefixes revoked by RFC 7606 treat-as-withdraw rather than by the
  /// sender. Filled by DecodeResult::to_deliverable(), never by decoding;
  /// to_sim_updates() turns them into error-withdraw updates so the
  /// receiving router can drop detector evidence tied to them.
  std::vector<net::Prefix> error_withdrawn;
};

/// Encode an UPDATE. Throws std::invalid_argument for unencodable input
/// (an over-long message or path segment). AS_PATH is written with 2-octet
/// ASNs: wide ones travel as AS_TRANS, with the true path appended as a
/// self-describing AS4_PATH (RFC 6793 §4.2.2), so byte streams for
/// all-narrow paths are identical to the pre-AS4 encoding.
std::vector<std::uint8_t> encode_update(const UpdateMessage& update);

/// Decode an UPDATE (must include the header). Throws WireError at the
/// first problem — the strict RFC 4271 discipline. AS_PATH is read with
/// 2-octet ASNs; an AS4_PATH attribute is merged per RFC 6793 §4.2.3 to
/// recover wide ones.
UpdateMessage decode_update(std::span<const std::uint8_t> data);

/// One classified problem found while decoding an UPDATE under RFC 7606.
struct AttributeIssue {
  ErrorAction action = ErrorAction::Ignore;
  /// Attribute type code the problem is pinned to (0: not attributable to
  /// a single attribute, e.g. a missing mandatory attribute).
  std::uint8_t attr_type = 0;
  /// The NOTIFICATION code/subcode strict handling would have sent.
  ErrorCode code = ErrorCode::UpdateMessage;
  std::uint8_t subcode = 0;
  std::string detail;
};

/// Result of decode_update_revised: the salvage plus every classified
/// problem. With no issues the message is exactly what decode_update
/// returns.
struct DecodeResult {
  UpdateMessage message;
  std::vector<AttributeIssue> issues;

  /// Maximum action over all issues (Ignore when the message was clean).
  ErrorAction severity() const;

  /// Apply the severity to produce the message a session should hand to
  /// the routing layer: at TreatAsWithdraw the NLRI moves to
  /// error_withdrawn and the attributes are dropped; at AttributeDiscard
  /// or below the salvaged message passes through unchanged (broken
  /// non-essential attributes were already left out during parsing).
  UpdateMessage to_deliverable() const;
};

/// Decode an UPDATE with RFC 7606 revised error handling: problems inside
/// the path-attribute section are classified and survived instead of
/// aborting the parse. Still throws WireError for SessionReset-class
/// damage — a broken header, withdrawn-routes section, attribute-section
/// framing (Total Path Attribute Length overrunning the body), or NLRI —
/// because then no prefix list can be trusted.
DecodeResult decode_update_revised(std::span<const std::uint8_t> data);

/// An UPDATE with no withdrawn routes and no NLRI is the RFC 4724 §2
/// End-of-RIB marker for IPv4 unicast.
bool is_end_of_rib(const UpdateMessage& message);

/// Convert between the simulator's Update and wire messages.
/// An EndOfRib update encodes as the empty UPDATE that is its marker.
std::vector<std::uint8_t> encode_sim_update(const Update& update);
/// A decoded message may carry several announcements/withdrawals; expand to
/// simulator updates (announcements share the attribute set).
std::vector<Update> to_sim_updates(const UpdateMessage& message);

}  // namespace moas::bgp::wire
