#include "moas/bgp/wire.h"

#include <gtest/gtest.h>

#include "moas/core/moas_list.h"

namespace moas::bgp::wire {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

PathAttributes attrs_for(std::vector<Asn> path) {
  PathAttributes attrs;
  attrs.path = AsPath(std::move(path));
  return attrs;
}

/// Wrap a hand-built UPDATE body in the 19-octet header.
std::vector<std::uint8_t> frame_update(const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> bytes(16, 0xff);
  const std::size_t total = kHeaderSize + body.size();
  bytes.push_back(static_cast<std::uint8_t>(total >> 8));
  bytes.push_back(static_cast<std::uint8_t>(total));
  bytes.push_back(2);  // UPDATE
  bytes.insert(bytes.end(), body.begin(), body.end());
  return bytes;
}

TEST(Wire, HeaderShape) {
  // The empty UPDATE: header plus two zero section lengths.
  const auto bytes = encode_update(UpdateMessage{});
  ASSERT_EQ(bytes.size(), kHeaderSize + 4);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(bytes[static_cast<std::size_t>(i)], 0xff);
  EXPECT_EQ(bytes[16], 0);
  EXPECT_EQ(bytes[17], kHeaderSize + 4);
  EXPECT_EQ(bytes[18], 2);  // UPDATE
  for (std::size_t i = kHeaderSize; i < bytes.size(); ++i) EXPECT_EQ(bytes[i], 0);
}

TEST(Wire, UpdateRoundTripAnnounce) {
  UpdateMessage msg;
  msg.attrs = attrs_for({701, 1239, 4006});
  msg.attrs->origin_code = OriginCode::Egp;
  msg.attrs->med = 42;
  msg.attrs->communities = core::encode_moas_list({4006, 2026});
  msg.nlri.push_back(pfx("135.38.0.0/16"));

  const auto bytes = encode_update(msg);
  const UpdateMessage decoded = decode_update(bytes);
  ASSERT_EQ(decoded.nlri.size(), 1u);
  EXPECT_EQ(decoded.nlri[0], pfx("135.38.0.0/16"));
  ASSERT_TRUE(decoded.attrs.has_value());
  EXPECT_EQ(decoded.attrs->path.to_string(), "701 1239 4006");
  EXPECT_EQ(decoded.attrs->origin_code, OriginCode::Egp);
  EXPECT_EQ(decoded.attrs->med, 42u);
  EXPECT_EQ(core::decode_moas_list(decoded.attrs->communities), (AsnSet{4006, 2026}));
}

TEST(Wire, UpdateRoundTripWithdraw) {
  UpdateMessage msg;
  msg.withdrawn = {pfx("10.0.0.0/8"), pfx("192.168.4.0/22")};
  const auto bytes = encode_update(msg);
  const UpdateMessage decoded = decode_update(bytes);
  EXPECT_EQ(decoded.withdrawn, msg.withdrawn);
  EXPECT_FALSE(decoded.attrs.has_value());
  EXPECT_TRUE(decoded.nlri.empty());
}

TEST(Wire, MixedWithdrawAndAnnounce) {
  UpdateMessage msg;
  msg.withdrawn = {pfx("10.0.0.0/8")};
  msg.attrs = attrs_for({7});
  msg.nlri = {pfx("11.0.0.0/8"), pfx("12.0.0.0/9")};
  const UpdateMessage decoded = decode_update(encode_update(msg));
  EXPECT_EQ(decoded.withdrawn.size(), 1u);
  EXPECT_EQ(decoded.nlri.size(), 2u);
}

TEST(Wire, AsSetSegmentsSurvive) {
  UpdateMessage msg;
  PathAttributes attrs = attrs_for({7018});
  attrs.path.append_set({4006, 2026});
  msg.attrs = attrs;
  msg.nlri = {pfx("135.38.0.0/16")};
  const UpdateMessage decoded = decode_update(encode_update(msg));
  EXPECT_EQ(decoded.attrs->path.to_string(), "7018 {2026,4006}");
  EXPECT_EQ(decoded.attrs->path.origin_candidates(), (AsnSet{2026, 4006}));
}

TEST(Wire, PrefixPaddingBoundaries) {
  // 0, 1, 2, 3 and 4 octet prefixes all round-trip.
  for (const char* text : {"0.0.0.0/0", "128.0.0.0/1", "10.0.0.0/8", "10.128.0.0/9",
                           "10.20.0.0/16", "10.20.128.0/17", "10.20.30.0/24",
                           "10.20.30.128/25", "10.20.30.41/32"}) {
    UpdateMessage msg;
    msg.withdrawn = {pfx(text)};
    const UpdateMessage decoded = decode_update(encode_update(msg));
    EXPECT_EQ(decoded.withdrawn.at(0), pfx(text)) << text;
  }
}

TEST(Wire, LocalPrefIsNotSent) {
  UpdateMessage msg;
  msg.attrs = attrs_for({7});
  msg.attrs->local_pref = 300;
  msg.nlri = {pfx("10.0.0.0/8")};
  const UpdateMessage decoded = decode_update(encode_update(msg));
  EXPECT_EQ(decoded.attrs->local_pref, 100u);  // default, not transmitted
}

TEST(Wire, DecodesInboundLocalPref) {
  // A peer may still send LOCAL_PREF (an IBGP-style speaker); the decoder
  // keeps its value.
  const auto bytes = frame_update({
      0x00, 0x00,                                // no withdrawn routes
      0x00, 0x19,                                // attr length = 25
      0x40, 0x01, 0x01, 0x00,                    // ORIGIN = IGP
      0x40, 0x02, 0x04, 0x02, 0x01, 0x00, 0x07,  // AS_PATH = SEQ(7)
      0x40, 0x03, 0x04, 0x00, 0x00, 0x00, 0x00,  // NEXT_HOP = 0.0.0.0
      0x40, 0x05, 0x04, 0x00, 0x00, 0x01, 0x2c,  // LOCAL_PREF = 300
      0x08, 0x0a                                 // NLRI 10.0.0.0/8
  });
  const UpdateMessage decoded = decode_update(bytes);
  ASSERT_TRUE(decoded.attrs.has_value());
  EXPECT_EQ(decoded.attrs->local_pref, 300u);
  EXPECT_EQ(decoded.attrs->path, AsPath({7}));
  EXPECT_EQ(decoded.nlri, (std::vector<net::Prefix>{pfx("10.0.0.0/8")}));
}

TEST(Wire, WideAsnTravelsAsTransPlusAs4Path) {
  // RFC 6793 toward a non-negotiated peer: AS_PATH carries AS_TRANS
  // stand-ins, the true 4-octet path rides the self-describing AS4_PATH,
  // and a plain decoder recovers the full path by the §4.2.3 merge.
  UpdateMessage msg;
  msg.attrs = attrs_for({70'000, 1239, 4'200'000'000});
  msg.nlri = {pfx("10.0.0.0/8")};
  const auto bytes = encode_update(msg);
  // The 2-octet AS_PATH on the wire substitutes AS_TRANS (23456) for both
  // wide hops: the big-endian pair must appear in the byte stream.
  int trans_hops = 0;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    if (bytes[i] == (kAsTrans >> 8) && bytes[i + 1] == (kAsTrans & 0xff)) ++trans_hops;
  }
  EXPECT_GE(trans_hops, 2);
  const UpdateMessage decoded = decode_update(bytes);
  ASSERT_TRUE(decoded.attrs.has_value());
  EXPECT_EQ(decoded.attrs->path, msg.attrs->path);
}

TEST(Wire, NarrowPathsCarryNoAs4Path) {
  // All-narrow byte streams must be identical to the pre-AS4 encoding: no
  // AS4_PATH attribute, and the decode round-trips.
  UpdateMessage msg;
  msg.attrs = attrs_for({701, 1239, 4006});
  msg.nlri = {pfx("135.38.0.0/16")};
  const auto bytes = encode_update(msg);
  for (std::size_t i = kHeaderSize; i + 1 < bytes.size(); ++i) {
    EXPECT_FALSE(bytes[i] == 0xc0 && bytes[i + 1] == 17) << "AS4_PATH at offset " << i;
  }
  EXPECT_EQ(decode_update(bytes).attrs->path, msg.attrs->path);
}

TEST(Wire, LargeCommunitiesRoundTrip) {
  // RFC 8092: wide-ASN MOAS-list members ride large communities and must
  // survive the AS_TRANS encoding.
  UpdateMessage msg;
  msg.attrs = attrs_for({70'000, 4006});
  msg.attrs->large_communities.add(LargeCommunity(70'000, 0xff9a, 0));
  msg.attrs->large_communities.add(LargeCommunity(4'000'000'000, 7, 9));
  msg.nlri = {pfx("10.0.0.0/8")};
  const UpdateMessage decoded = decode_update(encode_update(msg));
  ASSERT_TRUE(decoded.attrs.has_value());
  EXPECT_EQ(decoded.attrs->large_communities, msg.attrs->large_communities);
  EXPECT_EQ(decoded.attrs->path, msg.attrs->path);
}

TEST(Wire, RevisedDecodeDiscardsBrokenAs4Path) {
  // RFC 6793 §6: a malformed AS4_PATH is attribute-discarded — the routes
  // stand on the AS_TRANS path instead of the session resetting.
  UpdateMessage msg;
  msg.attrs = attrs_for({70'000, 1239});
  msg.nlri = {pfx("10.0.0.0/8")};
  auto bytes = encode_update(msg);
  // Corrupt the AS4_PATH segment header: find the attribute (flags 0xc0,
  // type 17) and overwrite its segment type with garbage.
  bool corrupted = false;
  for (std::size_t i = kHeaderSize; i + 3 < bytes.size(); ++i) {
    if (bytes[i] == 0xc0 && bytes[i + 1] == 17) {
      bytes[i + 3] = 0x77;  // first value octet: bogus segment type
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  const DecodeResult result = decode_update_revised(bytes);
  EXPECT_EQ(result.severity(), ErrorAction::AttributeDiscard);
  const UpdateMessage deliverable = result.to_deliverable();
  ASSERT_TRUE(deliverable.attrs.has_value());
  // The salvaged path is the 2-octet one: wide hops degraded to AS_TRANS.
  EXPECT_EQ(deliverable.attrs->path, AsPath({kAsTrans, 1239}));
}

TEST(Wire, RejectsNlriWithoutAttributes) {
  UpdateMessage msg;
  msg.nlri = {pfx("10.0.0.0/8")};
  EXPECT_THROW(encode_update(msg), std::invalid_argument);
}

TEST(Wire, DecodeRejectsCorruptions) {
  UpdateMessage msg;
  msg.attrs = attrs_for({7});
  msg.nlri = {pfx("10.0.0.0/8")};
  auto bytes = encode_update(msg);

  {
    auto bad = bytes;
    bad[3] = 0x00;  // marker damage
    EXPECT_THROW(decode_update(bad), WireError);
  }
  {
    auto bad = bytes;
    bad[17] = static_cast<std::uint8_t>(bytes.size() + 4);  // wrong length
    EXPECT_THROW(decode_update(bad), WireError);
  }
  {
    auto bad = bytes;
    bad[18] = 9;  // unknown type
    EXPECT_THROW(decode_update(bad), WireError);
  }
  {
    auto truncated = bytes;
    truncated.resize(bytes.size() - 2);
    EXPECT_THROW(decode_update(truncated), WireError);
  }
  {
    auto bad = bytes;
    bad[18] = 4;  // wrong kind: KEEPALIVE
    EXPECT_THROW(decode_update(bad), WireError);
  }
}

TEST(Wire, DecodeRejectsMissingMandatoryAttributes) {
  // Hand-build an UPDATE whose attribute section has ORIGIN only.
  const auto bytes = frame_update({
      0x00, 0x00,              // no withdrawn routes
      0x00, 0x04,              // attr length = 4
      0x40, 0x01, 0x01, 0x00,  // ORIGIN = IGP
      0x08, 0x0a               // NLRI 10.0.0.0/8
  });
  EXPECT_THROW(decode_update(bytes), WireError);
}

TEST(Wire, UnknownOptionalAttributeSkipped) {
  UpdateMessage msg;
  msg.attrs = attrs_for({7});
  msg.nlri = {pfx("10.0.0.0/8")};
  auto bytes = encode_update(msg);
  // Splice an unknown optional attribute (type 200, 2 bytes) into the
  // attribute section: adjust the attribute length and total length.
  const std::vector<std::uint8_t> extra{0x80, 200, 0x02, 0xab, 0xcd};
  // Attribute length field sits right after the 2-byte withdrawn length.
  const std::size_t attr_len_pos = kHeaderSize + 2;
  const std::uint16_t attr_len =
      static_cast<std::uint16_t>((bytes[attr_len_pos] << 8) | bytes[attr_len_pos + 1]);
  // NLRI begins after the attributes; insert just before it.
  const std::size_t insert_pos = attr_len_pos + 2 + attr_len;
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(insert_pos), extra.begin(),
               extra.end());
  const std::uint16_t new_attr_len = static_cast<std::uint16_t>(attr_len + extra.size());
  bytes[attr_len_pos] = static_cast<std::uint8_t>(new_attr_len >> 8);
  bytes[attr_len_pos + 1] = static_cast<std::uint8_t>(new_attr_len);
  const std::uint16_t new_total = static_cast<std::uint16_t>(bytes.size());
  bytes[16] = static_cast<std::uint8_t>(new_total >> 8);
  bytes[17] = static_cast<std::uint8_t>(new_total);

  const UpdateMessage decoded = decode_update(bytes);
  EXPECT_EQ(decoded.nlri.size(), 1u);
  EXPECT_EQ(decoded.attrs->path.to_string(), "7");
}

TEST(Wire, UnknownOptionalTransitiveRetainedWithPartialBit) {
  UpdateMessage msg;
  msg.attrs = attrs_for({7});
  msg.nlri = {pfx("10.0.0.0/8")};
  auto bytes = encode_update(msg);
  // Splice an unknown optional *transitive* attribute (type 200, 2 bytes)
  // into the attribute section, patching the section and header lengths.
  const std::vector<std::uint8_t> extra{0xc0, 200, 0x02, 0xab, 0xcd};
  const std::size_t attr_len_pos = kHeaderSize + 2;
  const std::uint16_t attr_len =
      static_cast<std::uint16_t>((bytes[attr_len_pos] << 8) | bytes[attr_len_pos + 1]);
  const std::size_t insert_pos = attr_len_pos + 2 + attr_len;
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(insert_pos), extra.begin(),
               extra.end());
  const std::uint16_t new_attr_len = static_cast<std::uint16_t>(attr_len + extra.size());
  bytes[attr_len_pos] = static_cast<std::uint8_t>(new_attr_len >> 8);
  bytes[attr_len_pos + 1] = static_cast<std::uint8_t>(new_attr_len);
  bytes[16] = static_cast<std::uint8_t>(bytes.size() >> 8);
  bytes[17] = static_cast<std::uint8_t>(bytes.size());

  // RFC 4271 §9: retained, not skipped.
  const UpdateMessage decoded = decode_update(bytes);
  ASSERT_EQ(decoded.unknown_attrs.size(), 1u);
  EXPECT_EQ(decoded.unknown_attrs[0].type, 200);
  EXPECT_EQ(decoded.unknown_attrs[0].value, (std::vector<std::uint8_t>{0xab, 0xcd}));

  // Re-encoding propagates it with the Partial bit set (this speaker did
  // not originate the attribute).
  const auto reencoded = encode_update(decoded);
  const UpdateMessage again = decode_update(reencoded);
  ASSERT_EQ(again.unknown_attrs.size(), 1u);
  EXPECT_EQ(again.unknown_attrs[0].value, decoded.unknown_attrs[0].value);
  bool found_partial = false;
  for (std::size_t i = kHeaderSize + 4; i + 1 < reencoded.size(); ++i) {
    if (reencoded[i + 1] == 200) {
      EXPECT_EQ(reencoded[i] & 0xe0, 0xe0);  // optional | transitive | partial
      found_partial = true;
      break;
    }
  }
  EXPECT_TRUE(found_partial);
}

TEST(Wire, WrongMessageTypeIsBadTypeAcrossAllDecoders) {
  // Feeding either UPDATE decoder another message kind (OPEN, NOTIFICATION,
  // KEEPALIVE) or an undefined type is the same protocol error: Message
  // Header Error / Bad Message Type.
  UpdateMessage msg;
  msg.attrs = attrs_for({7});
  msg.nlri = {pfx("10.0.0.0/8")};
  const auto check = [](auto&& decode, std::span<const std::uint8_t> bytes) {
    try {
      decode(bytes);
      ADD_FAILURE() << "wrong message type must not decode";
    } catch (const WireError& e) {
      EXPECT_EQ(e.code(), ErrorCode::MessageHeader);
      EXPECT_EQ(e.subcode(), kHdrBadType);
    }
  };
  for (std::uint8_t type : {0, 1, 3, 4, 5}) {
    SCOPED_TRACE(static_cast<int>(type));
    auto bytes = encode_update(msg);
    bytes[18] = type;
    check([](auto b) { (void)decode_update(b); }, bytes);
    check([](auto b) { (void)decode_update_revised(b); }, bytes);
  }
}

TEST(Wire, RevisedDecodeTreatsBrokenOriginAsWithdraw) {
  UpdateMessage msg;
  msg.attrs = attrs_for({7, 40});
  msg.withdrawn = {pfx("192.0.2.0/24")};
  msg.nlri = {pfx("10.0.0.0/8"), pfx("10.1.0.0/16")};
  auto bytes = encode_update(msg);
  // ORIGIN is the first encoded attribute: [flags 0x40][type 1][len 1][code].
  // Layout: header, withdrawn-len (2), the /24 withdrawn route (1+3),
  // total-attr-len (2), then the attribute itself.
  const std::size_t origin_value = kHeaderSize + 2 + 4 + 2 + 3;
  ASSERT_EQ(bytes[origin_value - 2], 1u);  // type octet sanity
  bytes[origin_value] = 9;  // undefined ORIGIN code

  EXPECT_THROW(decode_update(bytes), WireError);  // strict 4271: reset class

  const DecodeResult result = decode_update_revised(bytes);
  EXPECT_EQ(result.severity(), ErrorAction::TreatAsWithdraw);
  ASSERT_EQ(result.issues.size(), 1u);
  EXPECT_EQ(result.issues.front().subcode, kUpdInvalidOrigin);
  const UpdateMessage deliverable = result.to_deliverable();
  EXPECT_EQ(deliverable.withdrawn, msg.withdrawn);
  EXPECT_EQ(deliverable.error_withdrawn, msg.nlri);

  // The sim conversion marks the synthesized withdrawals as error-withdraws
  // so the router can tell them apart from the peer's own revocations.
  const auto updates = to_sim_updates(deliverable);
  ASSERT_EQ(updates.size(), 3u);
  EXPECT_FALSE(updates[0].error_withdraw);  // the explicit withdrawal
  EXPECT_TRUE(updates[1].error_withdraw);
  EXPECT_TRUE(updates[2].error_withdraw);
  for (const auto& update : updates) EXPECT_EQ(update.kind, Update::Kind::Withdraw);
}

TEST(Wire, RevisedDecodeOfValidMessageIsClean) {
  UpdateMessage msg;
  msg.attrs = attrs_for({701, 1239});
  msg.attrs->communities = core::encode_moas_list({40, 226});
  msg.nlri = {pfx("135.38.0.0/16")};
  const DecodeResult result = decode_update_revised(encode_update(msg));
  EXPECT_TRUE(result.issues.empty());
  EXPECT_EQ(result.severity(), ErrorAction::Ignore);
  const UpdateMessage deliverable = result.to_deliverable();
  EXPECT_EQ(deliverable.nlri, msg.nlri);
  EXPECT_TRUE(deliverable.error_withdrawn.empty());
  EXPECT_EQ(deliverable.attrs->communities, msg.attrs->communities);
}

TEST(Wire, SimUpdateConversions) {
  Route route;
  route.prefix = pfx("135.38.0.0/16");
  route.attrs.path = AsPath({40});
  route.attrs.communities = core::encode_moas_list({40, 226});
  const auto bytes = encode_sim_update(Update::announce(route));
  const auto updates = to_sim_updates(decode_update(bytes));
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].kind, Update::Kind::Announce);
  EXPECT_EQ(updates[0].route->prefix, route.prefix);
  EXPECT_EQ(core::decode_moas_list(updates[0].route->attrs.communities),
            (AsnSet{40, 226}));

  const auto wbytes = encode_sim_update(Update::withdraw(pfx("10.0.0.0/8")));
  const auto wupdates = to_sim_updates(decode_update(wbytes));
  ASSERT_EQ(wupdates.size(), 1u);
  EXPECT_EQ(wupdates[0].kind, Update::Kind::Withdraw);
}

}  // namespace
}  // namespace moas::bgp::wire
